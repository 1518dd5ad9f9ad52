import pytest

from mdp_tcm.fanout import pin_blas_to_one_thread

from cli_support import DE_FLAGS, TRAIN_FLAGS, run_cli


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """BLAS on one thread from the first test on, as in every CLI process:
    `cli.main` pins it in this process, and a library test's bits would
    otherwise depend on whether a CLI test ran before it."""
    pin_blas_to_one_thread()


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    """Small desk-scale fleet shared by the CLI tests."""
    out = tmp_path_factory.mktemp("runs")
    code = run_cli(["generate", "--out", str(out), "--runs", "3", "--seed", "7",
                    "--desk-scale", "--run-seconds", "40", "--skew", "8"])
    assert code == 0
    return out


@pytest.fixture(scope="session")
def multistate_model(tmp_path_factory, data_dir):
    """One trained multistate model file shared by evaluate/predict tests."""
    out = tmp_path_factory.mktemp("models") / "pipeline.model"
    code = run_cli(["train", "--data", str(data_dir), "--out", str(out),
                    "--kind", "multistate", "--seed", "5",
                    "--train-ratio", "1.0"] + TRAIN_FLAGS + DE_FLAGS)
    assert code == 0
    return out
