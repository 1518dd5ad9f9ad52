import pytest

from cli_support import DE_FLAGS, TRAIN_FLAGS, run_cli


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
