import numpy as np
import pytest

from mdp_tcm import dbn
from mdp_tcm import _kernels
from mdp_tcm.cost_sensitive import CostVector
from mdp_tcm.errors import DataError
from mdp_tcm.model_io import (load_model, read_model_file, save_model,
                              write_model_file)
from mdp_tcm.multistate import EcsDbnModel, MultiStateModel


def random_model(sizes, head, seed=0):
    """A model with float32 weights, as training makes them."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(0, 0.5, _kernels.theta_size(sizes)).astype(np.float32)
    return dbn.DbnModel(sizes, head, theta)


class TestLowLevel:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {"alpha": rng.normal(0, 1, (3, 4)), "beta": rng.normal(0, 1, 7)}
        path = tmp_path / "m.model"
        write_model_file(path, "dbn-classifier", arrays, {"layer_sizes": "3,4"})
        kind, got, config = read_model_file(path)
        assert kind == "dbn-classifier"
        assert config["layer_sizes"] == "3,4"
        assert np.array_equal(got["alpha"], arrays["alpha"])
        assert np.array_equal(got["beta"], arrays["beta"])

    def test_checksum_detects_corruption(self, tmp_path):
        path = tmp_path / "m.model"
        write_model_file(path, "dbn-regressor", {"theta": np.ones(4)}, {})
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            read_model_file(path)

    def test_version_gate(self, tmp_path):
        path = tmp_path / "m.model"
        write_model_file(path, "dbn-regressor", {"theta": np.ones(2)}, {})
        text = path.read_bytes().replace(b"mdptcm-model v1", b"mdptcm-model v9", 1)
        path.write_bytes(text)
        with pytest.raises(DataError, match="unsupported"):
            read_model_file(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "nope.model"
        path.write_bytes(b"hello world\n")
        with pytest.raises(DataError):
            read_model_file(path)


class TestTypedRoundTrips:
    def test_classifier(self, tmp_path):
        model = random_model((6, 5, 3), dbn.SOFTMAX, seed=2)
        path = tmp_path / "clf.model"
        save_model(path, model, train_config={"seed": 3})
        loaded = load_model(path)
        assert loaded.layer_sizes == model.layer_sizes
        assert loaded.head == dbn.SOFTMAX
        assert np.array_equal(loaded.theta, model.theta)

    def test_regressor_predictions_bit_identical(self, tmp_path):
        model = random_model((6, 5, 1), dbn.LINEAR, seed=3)
        path = tmp_path / "reg.model"
        save_model(path, model)
        loaded = load_model(path)
        x = np.random.default_rng(4).random((20, 6))
        assert np.array_equal(dbn.predict_regression(model, x),
                              dbn.predict_regression(loaded, x))

    def test_ecs_dbn(self, tmp_path):
        base = random_model((6, 5, 4), dbn.SOFTMAX, seed=5)
        ecs = EcsDbnModel(base, CostVector(np.array([0.9, 0.2, 0.5, 0.7])))
        path = tmp_path / "ecs.model"
        save_model(path, ecs)
        loaded = load_model(path)
        assert isinstance(loaded, EcsDbnModel)
        assert np.array_equal(loaded.costs.costs, ecs.costs.costs)
        assert np.array_equal(loaded.base.theta, base.theta)

    def test_multistate_with_partial_routing(self, tmp_path):
        base = random_model((6, 5, 4), dbn.SOFTMAX, seed=6)
        ecs = EcsDbnModel(base, CostVector(np.array([1.0, 1.0, 0.3, 0.8])))
        regs = {0: random_model((6, 4, 1), dbn.LINEAR, seed=7),
                3: random_model((6, 3, 1), dbn.LINEAR, seed=8)}
        fallback = random_model((6, 5, 1), dbn.LINEAR, seed=9)
        model = MultiStateModel(ecs, regs, fallback, smoothing_window=25,
                                sticky_steps=2)
        path = tmp_path / "ms.model"
        save_model(path, model, train_config={"preset": "prognosis-default"})
        loaded = load_model(path)
        assert isinstance(loaded, MultiStateModel)
        assert set(loaded.regressors) == {0, 3}
        assert loaded.smoothing_window == 25
        assert loaded.sticky_steps == 2
        assert np.array_equal(loaded.regressors[3].theta, regs[3].theta)
        assert np.array_equal(loaded.fallback.theta, fallback.theta)
        assert loaded.regressor_for(1) is loaded.fallback

    def test_multistate_no_smoothing(self, tmp_path):
        base = random_model((4, 3, 4), dbn.SOFTMAX, seed=10)
        model = MultiStateModel(EcsDbnModel(base, CostVector.uniform(4)), {},
                                random_model((4, 3, 1), dbn.LINEAR, seed=11),
                                smoothing_window=None)
        path = tmp_path / "ms0.model"
        save_model(path, model)
        assert load_model(path).smoothing_window is None

    def test_weights_narrow_to_float32_and_costs_stay_float64(self, tmp_path):
        base = random_model((6, 5, 4), dbn.SOFTMAX, seed=13)
        model = MultiStateModel(EcsDbnModel(base, CostVector(np.array([0.9, 0.2, 0.5, 0.7]))),
                                {2: random_model((6, 4, 1), dbn.LINEAR, seed=14)},
                                random_model((6, 5, 1), dbn.LINEAR, seed=15))
        path = tmp_path / "ms.model"
        save_model(path, model)
        # the file stays format v1 with a float64 payload, which float32 widens into
        assert path.read_bytes().startswith(b"mdptcm-model v1\n")
        _, arrays, _ = read_model_file(path)
        assert arrays["diagnoser.theta"].dtype == np.float64
        assert arrays["diagnoser.theta"].tobytes() == base.theta.astype(np.float64).tobytes()
        loaded = load_model(path)
        for got, want in ((loaded.diagnoser.base, base), (loaded.regressors[2],
                                                          model.regressors[2]),
                          (loaded.fallback, model.fallback)):
            assert got.theta.dtype == np.float32
            assert got.theta.tobytes() == want.theta.tobytes()
        assert loaded.diagnoser.costs.costs.dtype == np.float64
        assert loaded.diagnoser.costs.costs.tobytes() == model.diagnoser.costs.costs.tobytes()

    def test_weights_not_float32_exact_round_once(self, tmp_path):
        # float64 weights, as a model trained on float64 frames holds them
        rng = np.random.default_rng(16)
        theta = rng.normal(0, 0.5, _kernels.theta_size((6, 5, 1)))
        path = tmp_path / "reg.model"
        save_model(path, dbn.DbnModel((6, 5, 1), dbn.LINEAR, theta))
        loaded = load_model(path)
        assert not np.array_equal(theta.astype(np.float32), theta)
        assert loaded.theta.tobytes() == theta.astype(np.float32).tobytes()

    def test_save_is_deterministic(self, tmp_path):
        model = random_model((5, 4, 2), dbn.SOFTMAX, seed=12)
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(p1, model, train_config={"seed": 0})
        save_model(p2, model, train_config={"seed": 0})
        assert p1.read_bytes() == p2.read_bytes()
