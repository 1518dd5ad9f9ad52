"""The numpy training kernels: parameter packing and the SGD epoch on both heads."""

import warnings

import numpy as np
import pytest

from mdp_tcm import _kernels

# (head, layer sizes): deep nets and nets with no hidden layer
NETS = [(_kernels.SOFTMAX, (9, 6, 5, 4)), (_kernels.LINEAR, (9, 6, 1)),
        (_kernels.SOFTMAX, (9, 4)), (_kernels.LINEAR, (9, 1))]


def _targets(rng, head, sizes, n):
    if head == _kernels.SOFTMAX:
        return rng.integers(0, sizes[-1], n)
    return rng.random(n) * 4.0


def test_active_backend_is_valid():
    assert _kernels.ACTIVE_BACKEND == "numpy"


def test_theta_size_and_offsets():
    sizes = (5, 4, 3)
    assert _kernels.theta_size(sizes) == 5 * 4 + 4 + 4 * 3 + 3
    theta = np.arange(_kernels.theta_size(sizes), dtype=np.float64)
    (W0, b0), (W1, b1) = _kernels.layer_views(theta, sizes)
    assert (W0.shape, b0.shape, W1.shape, b1.shape) == ((5, 4), (4,), (4, 3), (3,))
    assert [W0[0, 0], b0[0], W1[0, 0], b1[0], b1[-1]] == [0, 20, 24, 36, 38]
    W0[0, 0] = -1.0
    assert theta[0] == -1.0  # views, not copies


def test_partial_final_batch_handled():
    rng = np.random.default_rng(3)
    for head, sizes in NETS:
        sizes = np.array(sizes, dtype=np.int64)
        X = rng.random((10, 9))  # batch 4 -> final batch of 2
        theta = rng.normal(0, 0.3, _kernels.theta_size(sizes))
        loss = _kernels.sgd_epoch(theta, sizes, X, _targets(rng, head, sizes, 10),
                                  np.arange(10), 4, 0.05, head)
        assert np.isfinite(loss) and np.isfinite(theta).all()


@pytest.mark.parametrize("head, sizes", NETS)
def test_order_gathers_the_rows_a_shuffled_copy_holds(head, sizes):
    # bit for bit: batches gathered through `order` are the rows of X[order]
    rng = np.random.default_rng(4)
    sizes = np.array(sizes, dtype=np.int64)
    n = 70
    X = rng.random((n, 9))
    y = _targets(rng, head, sizes, n)
    order = rng.permutation(n)
    theta0 = rng.normal(0, 0.4, _kernels.theta_size(sizes))
    gathered, copied = theta0.copy(), theta0.copy()
    loss_gathered = _kernels.sgd_epoch(gathered, sizes, X, y, order, 16, 0.01, head)
    loss_copied = _kernels.sgd_epoch(copied, sizes, np.ascontiguousarray(X[order]),
                                     np.ascontiguousarray(y[order]), np.arange(n),
                                     16, 0.01, head)
    assert loss_gathered == loss_copied
    assert np.array_equal(gathered, copied)


@pytest.mark.parametrize("head, sizes", NETS)
def test_gram_form_takes_the_direct_steps(head, sizes):
    # the first layer's weights W0 + X.T @ C, and every other parameter, as
    # the direct epoch leaves them, up to rounding
    rng = np.random.default_rng(5)
    sizes = np.array(sizes, dtype=np.int64)
    n = 30
    X = rng.random((n, 9))
    y = _targets(rng, head, sizes, n)
    order = rng.permutation(n)
    direct = rng.normal(0, 0.4, _kernels.theta_size(sizes))
    gram_theta = direct.copy()
    W0 = _kernels.layer_views(gram_theta, sizes)[0][0]
    K, P0, C = X @ X.T, X @ W0, np.zeros((n, sizes[1]))
    loss_direct = _kernels.sgd_epoch(direct, sizes, X, y, order, 8, 0.05, head)
    loss_gram = _kernels.sgd_epoch(gram_theta, sizes, X, y, order, 8, 0.05, head,
                                   (K, P0, C))
    assert np.array_equal(P0, X @ W0)  # W0 is left to the caller
    W0 += X.T @ C
    assert loss_gram == pytest.approx(loss_direct, rel=1e-13)
    assert np.allclose(gram_theta, direct, rtol=1e-12, atol=1e-14)


def test_unknown_head_is_rejected():
    sizes = np.array([3, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="unknown head"):
        _kernels.sgd_epoch(np.zeros(4), sizes, np.zeros((2, 3)), np.zeros(2),
                           np.arange(2), 2, 0.1, "sigmoid")


@pytest.mark.parametrize("dtype, overflow", [(np.float64, -800.0), (np.float32, -100.0)])
def test_sigmoid_gives_exact_limits_without_warning(dtype, overflow):
    # exp(-z) overflows below about -709 in float64 and -88.7 in float32
    z = np.array([overflow, -1e30, -np.inf, 0.0, 1e30, np.inf, -overflow], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _kernels._sigmoid(z)
    assert out.dtype == dtype
    assert out.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("dtype, limit", [(np.float64, 709.0), (np.float32, 88.0)])
def test_sigmoid_keeps_the_bits_of_the_plain_formula(dtype, limit):
    # wherever exp(-z) is finite
    rng = np.random.default_rng(9)
    z = np.concatenate([np.linspace(-limit, limit, 4001),
                        rng.normal(0, 5, 4000)]).astype(dtype)
    want = dtype(1.0) / (dtype(1.0) + np.exp(-z))
    assert _kernels._sigmoid(z).tobytes() == want.tobytes()


def test_sgd_epoch_refuses_mixed_dtypes():
    sizes = np.array([3, 2, 1], dtype=np.int64)
    n = _kernels.theta_size(sizes)
    X32, y32, order = np.zeros((4, 3), np.float32), np.zeros(4, np.float32), np.arange(4)
    with pytest.raises(ValueError, match="frames of dtype float32 do not match "
                                         "parameters of dtype float64"):
        _kernels.sgd_epoch(np.zeros(n), sizes, X32, y32, order, 2, 0.1, _kernels.LINEAR)
    with pytest.raises(ValueError, match="parameters of dtype float32"):
        _kernels.sgd_epoch(np.zeros(n, np.float32), sizes, X32.astype(np.float64),
                           y32.astype(np.float64), order, 2, 0.1, _kernels.LINEAR)
    with pytest.raises(ValueError, match="parameters of dtype float64"):  # the targets
        _kernels.sgd_epoch(np.zeros(n, np.float32), sizes, X32, y32.astype(np.float64),
                           order, 2, 0.1, _kernels.LINEAR)
    with pytest.raises(ValueError, match="parameters of dtype float64"):  # the Gram form's
        gram = (np.zeros((4, 4)), np.zeros((4, 2), np.float32), np.zeros((4, 2), np.float32))
        _kernels.sgd_epoch(np.zeros(n, np.float32), sizes, X32, y32, order, 2, 0.1,
                           _kernels.LINEAR, gram)
    # class labels are integers in either dtype
    theta = np.zeros(_kernels.theta_size([3, 2]), np.float32)
    _kernels.sgd_epoch(theta, np.array([3, 2]), X32, np.zeros(4, np.int64), order, 2, 0.1,
                       _kernels.SOFTMAX)
    assert theta.dtype == np.float32


def test_cd_epoch_refuses_mixed_dtypes():
    X = np.zeros((4, 3), np.float32)
    W, a, b = np.zeros((3, 2), np.float32), np.zeros(3, np.float32), np.zeros(2, np.float32)
    U = np.zeros((4, 2))
    for i in range(3):
        params = [W, a, b]
        params[i] = params[i].astype(np.float64)
        with pytest.raises(ValueError, match="frames of dtype float32 do not match "
                                             "parameters of dtype float64"):
            _kernels.cd_epoch(*params, X, np.arange(4), 2, 0.1, U)
    _kernels.cd_epoch(W, a, b, X, np.arange(4), 2, 0.1, U)
    assert W.dtype == a.dtype == b.dtype == np.float32
