import numpy as np
import pytest

from mdp_tcm import rbm
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
        p0 = rbm.init_params(4, 6, rng)
        cfg = rbm.CdConfig(epochs=200, learning_rate=0.05, batch_size=10, seed=3)
        trained, history = rbm.train_rbm(p0, data, cfg)
        assert history[-5:].mean() < history[:5].mean()


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
        p0 = rbm.init_params(4, 8, rng)
        before = rbm.reconstruction_cross_entropy(p0, data)
        cfg = rbm.CdConfig(epochs=200, learning_rate=0.01, batch_size=2, seed=11)
        trained, _ = rbm.train_rbm(p0, data, cfg)
        after = rbm.reconstruction_cross_entropy(trained, data)
        assert after <= 0.5 * before
