import numpy as np
import pytest

from mdp_tcm import dbn
from mdp_tcm import _kernels
from mdp_tcm.adaptive_de import DeConfig
from mdp_tcm.cost_sensitive import CostVector
from mdp_tcm.multistate import (EcsDbnModel, MdpTrainConfig, MultiStateModel,
                                diagnose, estimate_wear, estimate_wear_detailed,
                                smooth, train_mdp)
from mdp_tcm.signal_pipeline import FrameDataset

TINY = dbn.TrainConfig(pretrain_epochs=2, finetune_epochs=25, learning_rate=0.01,
                       batch_size=16, hidden_range=(3, 6))
TINY_DE = DeConfig(population_size=8, max_generations=5)


def make_dataset(n=400, seed=0, states=(0, 1, 2, 3)):
    """Tiny synthetic frames whose two features encode wear directly."""
    rng = np.random.default_rng(seed)
    wear_bands = {0: (0, 100), 1: (100.1, 200), 2: (200.1, 299.9), 3: (300, 400)}
    per = n // len(states)
    wear = np.concatenate([np.linspace(*wear_bands[s], per) for s in states])
    frames = np.column_stack([wear / 400.0, 1.0 - wear / 400.0])
    frames += rng.normal(0, 0.01, frames.shape)
    frames = np.clip(frames, 0.0, 1.0)
    return FrameDataset(frames, wear, ("a", "b"), 1)


def linear_regressor(w, b):
    # single affine layer 2 -> 1 acting directly on the two features
    theta = np.array([w[0], w[1], b])
    return dbn.DbnModel((2, 1), dbn.LINEAR, theta)


def uniform_diagnoser():
    theta = np.zeros(_kernels.theta_size((2, 4)))
    base = dbn.DbnModel((2, 4), dbn.SOFTMAX, theta)
    return EcsDbnModel(base, CostVector.uniform(4))


class TestSmooth:
    def test_window_one_identity(self):
        x = np.array([3.0, 1.0, 4.0])
        assert np.array_equal(smooth(x, 1), x)

    def test_two_point_mean(self):
        assert np.allclose(smooth([0.0, 10.0], 2), [0.0, 5.0])

    def test_constant_unchanged(self):
        x = np.full(10, 2.5)
        assert np.allclose(smooth(x, 4), x)

    def test_trailing_window_values(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(smooth(x, 3), [1.0, 1.5, 2.0, 3.0])

    def test_range_never_expands(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 5, 200)
        s = smooth(x, 17)
        assert s.min() >= x.min() - 1e-12 and s.max() <= x.max() + 1e-12

    def test_bad_window(self):
        with pytest.raises(ValueError):
            smooth([1.0], 0)


class TestDiagnose:
    def test_uniform_costs_reduce_to_argmax(self):
        ecs = uniform_diagnoser()
        W, _ = ecs.base.layer(0)
        W[:] = np.array([[5.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 5.0]])
        frames = np.random.default_rng(1).random((30, 2))
        states, post = diagnose(ecs, frames)
        assert np.array_equal(states, np.argmax(post, axis=1))

    def test_posteriors_sum_to_one(self):
        ecs = uniform_diagnoser()
        _, post = diagnose(ecs, np.random.default_rng(2).random((10, 2)))
        assert np.max(np.abs(post.sum(axis=1) - 1.0)) < 1e-12


class TestEstimateWear:
    def _model(self, smoothing=None):
        reg = linear_regressor([400.0, 0.0], 0.0)
        return MultiStateModel(uniform_diagnoser(), {}, reg,
                               smoothing_window=smoothing)

    def test_window_one_equals_unsmoothed(self):
        ds = make_dataset(80)
        m1 = self._model(smoothing=1)
        m_none = self._model(smoothing=None)
        assert np.array_equal(estimate_wear(m1, ds.frames),
                              estimate_wear(m_none, ds.frames))

    def test_constant_pipeline_constant_series(self):
        reg = linear_regressor([0.0, 0.0], 123.0)
        model = MultiStateModel(uniform_diagnoser(), {}, reg, smoothing_window=9)
        out = estimate_wear(model, np.random.default_rng(3).random((50, 2)))
        assert np.allclose(out, 123.0)

    def test_causality_prefix_equivalence(self):
        ds = make_dataset(120, seed=4)
        model = self._model(smoothing=13)
        full = estimate_wear(model, ds.frames)
        prefix = estimate_wear(model, ds.frames[:47])
        assert np.array_equal(full[:47], prefix)

    def test_global_fallback_reduces_to_plain_pipeline(self):
        ds = make_dataset(100, seed=5)
        reg = linear_regressor([390.0, -10.0], 3.0)
        model = MultiStateModel(uniform_diagnoser(), {}, reg, smoothing_window=None)
        mdp_out = estimate_wear(model, ds.frames)
        plain = dbn.predict_regression(reg, ds.frames)
        assert np.array_equal(mdp_out, plain)

    def test_routing_totality(self):
        ds = make_dataset(100, seed=6)
        regs = {s: linear_regressor([100.0 * s, 0.0], 10.0) for s in range(3)}
        model = MultiStateModel(uniform_diagnoser(), regs,
                                linear_regressor([0.0, 0.0], 50.0),
                                smoothing_window=None)
        out = estimate_wear(model, ds.frames)
        assert out.shape == (100,) and np.isfinite(out).all()

    def test_detailed_outputs_aligned(self):
        ds = make_dataset(60, seed=7)
        states, post, raw, smoothed = estimate_wear_detailed(self._model(5), ds.frames)
        assert len(states) == len(post) == len(raw) == len(smoothed) == 60


class TestTrainMdp:
    def test_single_state_data_routes_to_fallback(self):
        ds = make_dataset(200, seed=8, states=(0,))
        config = MdpTrainConfig(classifier=TINY, regressor=TINY, de=TINY_DE,
                                min_state_samples=50, smoothing_window=None)
        model, history = train_mdp(ds, config, seed=1)
        assert set(model.regressors) == {0}
        for s in (1, 2, 3):
            assert model.regressor_for(s) is model.fallback
        assert "fallback" in history["loss"]

    def test_all_states_get_regressors(self):
        ds = make_dataset(400, seed=9)
        config = MdpTrainConfig(classifier=TINY, regressor=TINY, de=TINY_DE,
                                min_state_samples=50, smoothing_window=50)
        model, history = train_mdp(ds, config, seed=2)
        assert set(model.regressors) == {0, 1, 2, 3}
        assert len(history["de"]["best_fitness"]) == TINY_DE.max_generations + 1

    def test_empty_training_set_rejected(self):
        ds = make_dataset(40).subset(np.array([], dtype=int))
        config = MdpTrainConfig(classifier=TINY, regressor=TINY, de=TINY_DE)
        from mdp_tcm.errors import DataError
        with pytest.raises(DataError):
            train_mdp(ds, config, seed=0)

    def test_min_state_samples_respected(self):
        ds = make_dataset(400, seed=10)
        config = MdpTrainConfig(classifier=TINY, regressor=TINY, de=TINY_DE,
                                min_state_samples=150, smoothing_window=None)
        model, _ = train_mdp(ds, config, seed=3)
        # 100 frames per state < 150, so every state must use the fallback
        assert model.regressors == {}


class TestStickyRouting:
    def test_sticky_holds_until_consecutive_agreement(self):
        from mdp_tcm.multistate import _apply_sticky
        states = np.array([0, 1, 0, 1, 1, 1, 2, 2, 2])
        held = _apply_sticky(states, 3)
        assert list(held) == [0, 0, 0, 0, 0, 1, 1, 1, 2]

    def test_sticky_one_is_identity(self):
        from mdp_tcm.multistate import _apply_sticky
        states = np.array([0, 1, 2, 1, 0])
        assert np.array_equal(_apply_sticky(states, 1), states)


class TestRowIndexTraining:
    def test_train_mdp_on_rows_is_train_mdp_on_their_gather(self):
        # unsorted rows of a larger dataset: every sub-model, the DE trace
        # and the log lines are those of training on the gathered subset
        ds = make_dataset(400, seed=12)
        rows = np.random.default_rng(13).permutation(400)[:300]
        config = MdpTrainConfig(classifier=TINY, regressor=TINY, de=TINY_DE,
                                min_state_samples=50, smoothing_window=5)
        got_log, want_log = [], []
        got, got_history = train_mdp(ds, config, seed=4, log=got_log.append, rows=rows)
        want, want_history = train_mdp(ds.subset(rows), config, seed=4, log=want_log.append)
        assert got_log == want_log
        assert set(got.regressors) == set(want.regressors) == {0, 1, 2, 3}
        pairs = [(got.diagnoser.base, want.diagnoser.base), (got.fallback, want.fallback)]
        pairs += [(got.regressors[s], want.regressors[s]) for s in want.regressors]
        for a, b in pairs:
            assert a.theta.tobytes() == b.theta.tobytes()
        assert got.diagnoser.costs.costs.tobytes() == want.diagnoser.costs.costs.tobytes()
        for name, loss in want_history["loss"].items():
            assert got_history["loss"][name].tobytes() == loss.tobytes()
        for key, trace in want_history["de"].items():
            assert np.asarray(got_history["de"][key]).tobytes() == np.asarray(trace).tobytes()

    def test_no_rows_is_an_empty_training_set(self):
        from mdp_tcm.errors import DataError
        config = MdpTrainConfig(classifier=TINY, regressor=TINY, de=TINY_DE)
        with pytest.raises(DataError, match="empty training set"):
            train_mdp(make_dataset(40), config, seed=0, rows=np.array([], dtype=np.intp))
