import numpy as np
import pytest

from mdp_tcm import dbn, rbm
from mdp_tcm import _kernels
from mdp_tcm.errors import NumericError
from mdp_tcm.seeding import substream


def make_model(sizes, head, seed=0, scale=0.5, bias_shift=0.1):
    """Random model with mostly-active ReLU units (keeps FD away from kinks)."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(0, scale, _kernels.theta_size(sizes))
    model = dbn.DbnModel(tuple(sizes), head, theta)
    for l in range(len(sizes) - 2):
        _, b = model.layer(l)
        b += bias_shift
    return model


def fd_gradient(loss_fn, model, eps=1e-5):
    base = model.theta
    grad = np.zeros_like(base)
    for i in range(len(base)):
        up = base.copy()
        up[i] += eps
        dn = base.copy()
        dn[i] -= eps
        m_up = dbn.DbnModel(model.layer_sizes, model.head, up)
        m_dn = dbn.DbnModel(model.layer_sizes, model.head, dn)
        grad[i] = (loss_fn(m_up) - loss_fn(m_dn)) / (2 * eps)
    return grad


def rel_err(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1.0)
    return np.max(np.abs(a - b) / denom)


class TestModelStructure:
    def test_theta_length_checked(self):
        with pytest.raises(ValueError):
            dbn.DbnModel((3, 2, 2), dbn.SOFTMAX, np.zeros(5))

    def test_linear_head_must_be_scalar(self):
        with pytest.raises(ValueError):
            dbn.DbnModel((3, 2, 2), dbn.LINEAR, np.zeros(14))

    def test_layer_views_mutate_theta(self):
        model = make_model((3, 2, 2), dbn.SOFTMAX)
        W, _ = model.layer(0)
        before = model.theta[0]
        W[0, 0] += 1.0
        assert model.theta[0] == before + 1.0


class TestForward:
    def test_zero_model_zero_activations(self):
        model = dbn.DbnModel((3, 2, 2), dbn.SOFTMAX, np.zeros(_kernels.theta_size((3, 2, 2))))
        acts, top = dbn.forward(model, np.ones(3))
        assert np.all(acts[0] == 0.0) and np.all(top == 0.0)

    def test_negative_preactivation_rectified(self):
        model = dbn.DbnModel((1, 1, 1), dbn.LINEAR, np.array([-5.0, 0.0, 1.0, 0.0]))
        _, top = dbn.forward(model, np.array([1.0]))
        assert np.all(top == 0.0)

    def test_hand_computed_2_2_2(self):
        # W0 = [[1, -1], [0, 1]], b0 = [0.5, 0], head W = I, b = 0
        theta = np.array([1.0, -1.0, 0.0, 1.0, 0.5, 0.0,
                          1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        model = dbn.DbnModel((2, 2, 2), dbn.SOFTMAX, theta)
        acts, _ = dbn.forward(model, np.array([1.0, 2.0]))
        # preact = (1*1 + 2*0 + 0.5, 1*(-1) + 2*1 + 0) = (1.5, 1.0)
        assert np.allclose(acts[0], [[1.5, 1.0]])

    def test_dimension_mismatch(self):
        model = make_model((3, 2, 2), dbn.SOFTMAX)
        with pytest.raises(ValueError):
            dbn.forward(model, np.ones(4))


class TestPredictProba:
    def test_zero_head_uniform(self):
        model = dbn.DbnModel((2, 3), dbn.SOFTMAX, np.zeros(_kernels.theta_size((2, 3))))
        p = dbn.predict_proba(model, np.array([0.3, 0.7]))
        assert np.allclose(p, 1.0 / 3.0)

    def test_shift_invariance(self):
        model = make_model((4, 3, 3), dbn.SOFTMAX, seed=1)
        x = np.random.default_rng(2).random(4)
        p1 = dbn.predict_proba(model, x)
        shifted = dbn.DbnModel(model.layer_sizes, model.head, model.theta.copy())
        _, b = shifted.layer(1)
        b += 7.3
        p2 = dbn.predict_proba(shifted, x)
        assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_extreme_logits_stable(self):
        # head weights produce logits (1000, 0)
        theta = np.array([1000.0, 0.0, 0.0, 0.0])
        model = dbn.DbnModel((1, 2), dbn.SOFTMAX, theta)
        p = dbn.predict_proba(model, np.array([1.0]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0, abs=1e-12) and p[1] < 1e-300

    def test_simplex_property(self):
        model = make_model((5, 4, 3), dbn.SOFTMAX, seed=3)
        x = np.random.default_rng(4).random((50, 5))
        p = dbn.predict_proba(model, x)
        assert np.all(p >= 0.0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_wrong_head_rejected(self):
        model = make_model((3, 2, 1), dbn.LINEAR)
        with pytest.raises(ValueError):
            dbn.predict_proba(model, np.ones(3))


class TestPredictRegression:
    def test_zero_model(self):
        model = dbn.DbnModel((2, 2, 1), dbn.LINEAR, np.zeros(_kernels.theta_size((2, 2, 1))))
        assert dbn.predict_regression(model, np.array([0.4, 0.6])) == 0.0

    def test_hand_built_chain(self):
        # hidden w=2 b=0, head w=2 b=3, input 1 -> relu(2)*2 + 3 = 7
        theta = np.array([2.0, 0.0, 2.0, 3.0])
        model = dbn.DbnModel((1, 1, 1), dbn.LINEAR, theta)
        assert dbn.predict_regression(model, np.array([1.0])) == 7.0

    def test_batch_order_invariance(self):
        model = make_model((4, 3, 1), dbn.LINEAR, seed=5)
        x = np.random.default_rng(6).random((20, 4))
        out = dbn.predict_regression(model, x)
        rev = dbn.predict_regression(model, np.ascontiguousarray(x[::-1]))
        assert np.array_equal(out, rev[::-1])

    def test_wrong_head_rejected(self):
        model = make_model((3, 2, 2), dbn.SOFTMAX)
        with pytest.raises(ValueError):
            dbn.predict_regression(model, np.ones(3))


class TestPretrain:
    def test_single_hidden_layer_reduces_to_rbm(self):
        rng = np.random.default_rng(7)
        frames = rng.random((30, 6))
        config = dbn.TrainConfig(pretrain_epochs=5, finetune_epochs=0,
                                 learning_rate=0.05, batch_size=10)
        stack = dbn.pretrain((6, 4, 2), frames, config, rng=substream(1, "pretrain"))
        rng2 = substream(1, "pretrain")
        p0 = rbm.init_params(6, 4, rng2, visible_mean=frames.mean(axis=0))
        expected, _ = rbm.train_rbm(p0, frames, rbm.CdConfig(
            epochs=5, learning_rate=0.05, batch_size=10), rng=rng2)
        assert np.array_equal(stack[0].weights, expected.weights)
        assert np.array_equal(stack[0].hidden_bias, expected.hidden_bias)

    def test_stack_dimensions_chain(self):
        rng = np.random.default_rng(8)
        frames = rng.random((20, 5))
        config = dbn.TrainConfig(pretrain_epochs=2, finetune_epochs=0, batch_size=10)
        stack = dbn.pretrain((5, 4, 3, 2), frames, config, substream(0, "pretrain"))
        assert stack[0].weights.shape == (5, 4)
        assert stack[1].weights.shape == (4, 3)

    def test_zero_epochs_returns_initialization(self):
        rng = np.random.default_rng(9)
        frames = rng.random((20, 5))
        config = dbn.TrainConfig(pretrain_epochs=0, finetune_epochs=0, batch_size=10)
        stack = dbn.pretrain((5, 3, 2), frames, config, rng=substream(2, "pretrain"))
        expected = rbm.init_params(5, 3, substream(2, "pretrain"),
                                   visible_mean=frames.mean(axis=0))
        assert np.array_equal(stack[0].weights, expected.weights)


class TestFinetune:
    def test_zero_lr_classifier_identity(self):
        model = make_model((4, 3, 2), dbn.SOFTMAX, seed=10)
        rng = np.random.default_rng(11)
        x = rng.random((20, 4))
        y = rng.integers(0, 2, 20)
        config = dbn.TrainConfig(pretrain_epochs=0, finetune_epochs=5,
                                 learning_rate=0.0, batch_size=8)
        out, _ = dbn.finetune_classifier(model, x, y, config, substream(0, "finetune"))
        assert np.array_equal(out.theta, model.theta)

    def test_zero_lr_regressor_identity(self):
        model = make_model((4, 3, 1), dbn.LINEAR, seed=12)
        rng = np.random.default_rng(13)
        x = rng.random((20, 4))
        t = rng.random(20) * 400
        config = dbn.TrainConfig(pretrain_epochs=0, finetune_epochs=5,
                                 learning_rate=0.0, batch_size=8)
        out, _ = dbn.finetune_regressor(model, x, t, config, substream(0, "finetune"))
        assert np.array_equal(out.theta, model.theta)

    def test_label_out_of_range(self):
        model = make_model((4, 3, 2), dbn.SOFTMAX)
        config = dbn.TrainConfig(finetune_epochs=1, batch_size=4)
        with pytest.raises(ValueError):
            dbn.finetune_classifier(model, np.zeros((3, 4)), [0, 1, 2], config,
                                    substream(0, "finetune"))

    def test_separable_toy_set_fit(self):
        rng = np.random.default_rng(14)
        n = 60
        y = rng.integers(0, 2, n)
        x = rng.random((n, 3)) * 0.1
        x[:, 0] += y  # first feature separates the classes
        model = make_model((3, 6, 2), dbn.SOFTMAX, seed=15, scale=0.3)
        config = dbn.TrainConfig(pretrain_epochs=0, finetune_epochs=500,
                                 learning_rate=0.05, batch_size=16)
        trained, _ = dbn.finetune_classifier(model, x, y, config,
                                             rng=substream(3, "finetune"))
        pred = np.argmax(dbn.predict_proba(trained, x), axis=1)
        assert np.mean(pred == y) == 1.0

    def test_constant_target_converges_to_constant(self):
        rng = np.random.default_rng(16)
        x = rng.random((40, 3))
        t = np.full(40, 5.0)
        model = make_model((3, 4, 1), dbn.LINEAR, seed=17, scale=0.1)
        config = dbn.TrainConfig(pretrain_epochs=0, finetune_epochs=800,
                                 learning_rate=0.05, batch_size=10)
        trained, _ = dbn.finetune_regressor(model, x, t, config,
                                            rng=substream(4, "finetune"))
        pred = dbn.predict_regression(trained, x)
        assert np.max(np.abs(pred - 5.0)) < 1e-2

    def test_loss_history_reported(self):
        model = make_model((3, 4, 2), dbn.SOFTMAX, seed=18)
        rng = np.random.default_rng(19)
        config = dbn.TrainConfig(pretrain_epochs=0, finetune_epochs=7, batch_size=8)
        _, history = dbn.finetune_classifier(model, rng.random((20, 3)),
                                             rng.integers(0, 2, 20), config,
                                             substream(0, "finetune"))
        assert history.shape == (7,) and np.isfinite(history).all()


class TestGradients:
    def test_classifier_gradient_matches_fd(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        for trial in range(10):
            model = make_model((6, 4, 3), dbn.SOFTMAX, seed=100 + trial)
            x = rng.random((8, 6))
            y = rng.integers(0, 3, 8)
            analytic = dbn.batch_gradient(model, x, y)
            fd = fd_gradient(lambda m: dbn.classifier_loss(m, x, y), model)
            worst = max(worst, rel_err(analytic, fd))
        assert worst < 1e-4

    def test_regressor_gradient_matches_fd(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for trial in range(10):
            model = make_model((6, 4, 3, 1), dbn.LINEAR, seed=200 + trial)
            x = rng.random((8, 6))
            t = rng.random(8) * 3.0
            analytic = dbn.batch_gradient(model, x, t)
            fd = fd_gradient(lambda m: dbn.regressor_loss(m, x, t), model)
            worst = max(worst, rel_err(analytic, fd))
        assert worst < 1e-4

    def test_batch_loss_matches_kernel_loss(self):
        rng = np.random.default_rng(23)
        for sizes, head, loss in (((5, 4, 3), dbn.SOFTMAX, dbn.classifier_loss),
                                  ((5, 3), dbn.SOFTMAX, dbn.classifier_loss),
                                  ((5, 4, 1), dbn.LINEAR, dbn.regressor_loss),
                                  ((5, 1), dbn.LINEAR, dbn.regressor_loss)):
            model = make_model(sizes, head, seed=22)
            x = rng.random((12, 5))
            t = rng.integers(0, 3, 12) if head == dbn.SOFTMAX else rng.random(12) * 3.0
            kernel_loss = _kernels.sgd_epoch(model.theta.copy(), model.sizes_array, x, t,
                                             np.arange(12), 12, 0.0, head)
            assert kernel_loss == pytest.approx(loss(model, x, t), abs=1e-12)


class TestTrainEndToEnd:
    def test_finite_parameters_throughout(self):
        rng = np.random.default_rng(24)
        frames = rng.random((80, 6))
        wear = np.linspace(0, 380, 80)
        labels = (wear > 150).astype(int)
        config = dbn.TrainConfig(pretrain_epochs=3, finetune_epochs=30,
                                 learning_rate=0.01, batch_size=16,
                                 hidden_range=(3, 8))
        clf, _ = dbn.train_classifier(frames, labels, (6, 5, 2), config, seed=1)
        assert np.isfinite(clf.theta).all()
        reg, _ = dbn.train_regressor(frames, wear, (6, 5, 1), config, seed=1)
        assert np.isfinite(reg.theta).all()

    def test_numeric_error_raised_on_blowup(self):
        model = make_model((2, 3, 1), dbn.LINEAR, seed=25, scale=1.0)
        rng = np.random.default_rng(26)
        x = rng.random((30, 2))
        t = rng.random(30) * 1e9  # huge but sub-threshold scale normalization
        config = dbn.TrainConfig(pretrain_epochs=0, finetune_epochs=500,
                                 learning_rate=1e6, batch_size=8)
        # the blow-up overflows on its way to the check
        with pytest.raises(NumericError), pytest.warns(RuntimeWarning):
            dbn.finetune_regressor(model, x, t, config, substream(0, "finetune"))

    def test_presets_exist(self):
        assert dbn.preset("diagnosis-default").finetune_epochs == 1000
        assert dbn.preset("prognosis-default").pretrain_epochs == 200
        with pytest.raises(ValueError):
            dbn.preset("nope")

    def test_hidden_sizes_within_range(self):
        config = dbn.TrainConfig(hidden_range=(5, 60))
        sizes = dbn.draw_hidden_sizes(config, np.random.default_rng(0))
        assert len(sizes) == 3
        assert all(5 <= s <= 60 for s in sizes)
