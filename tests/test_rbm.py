import numpy as np
import pytest

from mdp_tcm import rbm
from mdp_tcm.dbn import TrainConfig
from mdp_tcm.seeding import substream


def random_params(rng, nv, nh, scale=1.0):
    return rbm.RbmParams(rng.normal(0, scale, (nv, nh)),
                         rng.normal(0, scale, nv),
                         rng.normal(0, scale, nh))


class TestEnergy:
    def test_zero_params(self):
        p = rbm.RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        assert rbm.energy(p, [1, 0, 1], [1, 1]) == 0.0

    def test_hand_value(self):
        p = rbm.RbmParams([[1.0]], [1.0], [1.0])
        assert rbm.energy(p, [1.0], [1.0]) == -3.0

    def test_antisymmetry_in_weights_with_zero_biases(self):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, (4, 3))
        p_pos = rbm.RbmParams(w, np.zeros(4), np.zeros(3))
        p_neg = rbm.RbmParams(-w, np.zeros(4), np.zeros(3))
        v = rng.integers(0, 2, 4).astype(float)
        h = rng.integers(0, 2, 3).astype(float)
        assert rbm.energy(p_pos, v, h) == -rbm.energy(p_neg, v, h)

    def test_dimension_mismatch(self):
        p = rbm.RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            rbm.energy(p, [1, 0], [1, 1])


class TestConditionals:
    def test_zero_params_half(self):
        p = rbm.RbmParams(np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        assert np.allclose(rbm.prob_h_given_v(p, [1, 0, 1]), 0.5)
        assert np.allclose(rbm.prob_v_given_h(p, [1, 0]), 0.5)

    def test_saturation(self):
        p = rbm.RbmParams(np.zeros((2, 2)), np.full(2, -20.0), np.full(2, 20.0))
        assert np.all(rbm.prob_h_given_v(p, [0.0, 0.0]) > 1.0 - 1e-8)
        assert np.all(rbm.prob_v_given_h(p, [0.0, 0.0]) < 1e-8)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, 3, 2)
        v = rng.integers(0, 2, 3).astype(float)
        closed = rbm.prob_h_given_v(p, v)
        exact = rbm.exact_conditional(p, v)
        assert np.max(np.abs(closed - exact)) < 1e-10


class TestCdUpdate:
    def test_training_reduces_reconstruction_error(self):
        rng = np.random.default_rng(6)
        pattern = np.array([1.0, 1.0, 0.0, 0.0])
        data = np.tile(pattern, (40, 1))
        p0 = rbm.init_params(4, 6, rng, np.full(4, 0.5))
        cfg = TrainConfig(pretrain_epochs=200, learning_rate=0.05, batch_size=10)
        trained, history = rbm.train_rbm(p0, data, cfg, substream(3, "cd"))
        assert history[-5:].mean() < history[:5].mean()


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _cd_on_shuffled_copies(params, data, config, rng):
    """CD-1 as a loop over a shuffled copy of the data made each epoch."""
    W, a, b = (params.weights.copy(), params.visible_bias.copy(),
               params.hidden_bias.copy())
    n = data.shape[0]
    history = np.zeros(config.pretrain_epochs)
    for epoch in range(config.pretrain_epochs):
        shuffled = np.ascontiguousarray(data[rng.permutation(n)])
        U = rng.random((n, params.n_hidden))
        err = 0.0
        for s in range(0, n, config.batch_size):
            e = min(s + config.batch_size, n)
            V0 = shuffled[s:e]
            Ph0 = _sigmoid(V0 @ W + b)
            H = (U[s:e] < Ph0).astype(np.float64)
            V = _sigmoid(H @ W.T + a)
            Ph1 = _sigmoid(V @ W + b)
            scale = config.learning_rate / (e - s)
            W += scale * (V0.T @ Ph0 - V.T @ Ph1)
            a += scale * (V0.sum(axis=0) - V.sum(axis=0))
            b += scale * (Ph0.sum(axis=0) - Ph1.sum(axis=0))
            err += float(((V0 - V) ** 2).sum())
        history[epoch] = err / n
    return W, a, b, history


class TestCdGather:
    def test_bit_identical_to_shuffled_copies(self):
        rng = np.random.default_rng(11)
        data = rng.random((23, 7))
        p0 = rbm.init_params(7, 5, rng, visible_mean=data.mean(axis=0))
        # 23 rows in batches of 5: the last batch holds 3
        cfg = TrainConfig(pretrain_epochs=4, learning_rate=0.1, batch_size=5)
        got, history = rbm.train_rbm(p0, data, cfg, substream(8, "cd"))
        W, a, b, want_history = _cd_on_shuffled_copies(p0, data, cfg, substream(8, "cd"))
        assert np.array_equal(got.weights, W)
        assert np.array_equal(got.visible_bias, a)
        assert np.array_equal(got.hidden_bias, b)
        assert np.array_equal(history, want_history)


class TestExactOracle:
    def test_uniform_joint_for_zero_params(self):
        p = rbm.RbmParams(np.zeros((2, 1)), np.zeros(2), np.zeros(1))
        _, _, joint = rbm.exact_joint(p)
        assert joint.shape == (4, 2)
        assert np.max(np.abs(joint - 0.125)) < 1e-15

    def test_joint_normalizes(self):
        rng = np.random.default_rng(7)
        p = random_params(rng, 4, 3)
        _, _, joint = rbm.exact_joint(p)
        assert abs(joint.sum() - 1.0) < 1e-12

    def test_conditional_from_joint_matches_closed_form(self):
        rng = np.random.default_rng(8)
        p = random_params(rng, 3, 2)
        vs, hs, joint = rbm.exact_joint(p)
        v = np.array([1.0, 0.0, 1.0])
        iv = int(np.nonzero((vs == v).all(axis=1))[0][0])
        cond = joint[iv] / joint[iv].sum()
        marginal = cond @ hs
        assert np.max(np.abs(marginal - rbm.prob_h_given_v(p, v))) < 1e-10

    def test_size_guard(self):
        p = rbm.RbmParams(np.zeros((15, 10)), np.zeros(15), np.zeros(10))
        with pytest.raises(ValueError):
            rbm.exact_joint(p)


class TestInvariants:
    def test_conditional_closed_form_agreement_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            nv = int(rng.integers(1, 5))
            nh = int(rng.integers(1, 4))
            p = random_params(rng, nv, nh, scale=1.5)
            v = rng.integers(0, 2, nv).astype(float)
            assert np.max(np.abs(rbm.prob_h_given_v(p, v)
                                 - rbm.exact_conditional(p, v))) < 1e-10

    def test_cross_entropy_halves_on_two_mode_data(self):
        rng = substream(11, "test-data")
        data = np.tile(np.array([[1.0, 1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, 1.0]]), (25, 1))
        p0 = rbm.init_params(4, 8, rng, np.full(4, 0.5))
        before = rbm.reconstruction_cross_entropy(p0, data)
        cfg = TrainConfig(pretrain_epochs=200, learning_rate=0.01, batch_size=2)
        trained, _ = rbm.train_rbm(p0, data, cfg, substream(11, "cd"))
        after = rbm.reconstruction_cross_entropy(trained, data)
        assert after <= 0.5 * before


class TestRowIndexTraining:
    def test_rows_train_as_their_gather(self):
        # an unsorted index array into a larger matrix: the bytes of
        # training on the rows it gathers
        rng = np.random.default_rng(31)
        data = rng.random((60, 7))
        rows = rng.permutation(60)[:37]
        cfg = TrainConfig(pretrain_epochs=4, learning_rate=0.05, batch_size=8)
        p0 = rbm.init_params(7, 5, substream(1, "init"), visible_mean=data[rows].mean(axis=0))
        got, got_history = rbm.train_rbm(p0, data, cfg, substream(2, "cd"), rows=rows)
        want, want_history = rbm.train_rbm(p0, data[rows], cfg, substream(2, "cd"))
        for a, b in ((got.weights, want.weights), (got.visible_bias, want.visible_bias),
                     (got.hidden_bias, want.hidden_bias), (got_history, want_history)):
            assert a.tobytes() == b.tobytes()

    def test_no_rows_is_an_error(self):
        p0 = rbm.init_params(3, 2, substream(0, "init"), np.full(3, 0.5))
        with pytest.raises(ValueError, match="nonempty"):
            rbm.train_rbm(p0, np.zeros((4, 3)), TrainConfig(pretrain_epochs=1),
                          substream(0, "cd"), rows=np.array([], dtype=np.intp))
