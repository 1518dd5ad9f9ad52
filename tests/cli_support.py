"""CLI test helpers shared by the CLI and acceptance tests."""

from mdp_tcm import cli


def run_cli(args):
    return cli.main(list(args))


# training-size flags accepted by every train-ish command
TRAIN_FLAGS = [
    "--pretrain-epochs", "5", "--finetune-epochs", "150",
    "--classifier-learning-rate", "0.01", "--regressor-learning-rate", "0.003",
    "--batch-size", "64", "--hidden-range", "6,16",
]

# extra flags for commands that evolve costs / smooth estimates
DE_FLAGS = [
    "--de-population", "10", "--de-generations", "12",
    "--smoothing-window", "10",
]
