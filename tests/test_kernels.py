"""Backend equivalence: the numba kernels and the numpy fallbacks must give
the same numbers (to accumulated rounding) on identical inputs."""

import numpy as np
import pytest

from mdp_tcm import _kernels

numba_kernels = _kernels.numba_kernels()
needs_numba = pytest.mark.skipif(numba_kernels is None, reason="numba unavailable")


def test_active_backend_is_valid():
    assert _kernels.ACTIVE_BACKEND in ("numpy", "numba")


def test_theta_size_and_offsets():
    sizes = (5, 4, 3)
    assert _kernels.theta_size(sizes) == 5 * 4 + 4 + 4 * 3 + 3
    woff, boff = _kernels.layer_offsets(sizes)
    assert list(woff) == [0, 24]
    assert list(boff) == [20, 36]


@needs_numba
@pytest.mark.parametrize("k", [1, 3])
def test_cd_epoch_backends_agree(k):
    rng = np.random.default_rng(0)
    n, nv, nh, bs = 90, 12, 7, 32
    X = rng.random((n, nv))
    U = rng.random((n, k, nh))
    W0 = rng.normal(0, 0.05, (nv, nh))
    results = {}
    for name, kern in (("numpy", _kernels.numpy_kernels()), ("numba", numba_kernels)):
        W, a, b = W0.copy(), np.zeros(nv), np.zeros(nh)
        err = kern["cd_epoch"](W, a, b, X, bs, 0.05, k, U)
        results[name] = (W, a, b, err)
    for i in range(3):
        assert np.max(np.abs(results["numpy"][i] - results["numba"][i])) < 1e-10
    assert results["numpy"][3] == pytest.approx(results["numba"][3], rel=1e-10)


@needs_numba
def test_classifier_epoch_backends_agree():
    rng = np.random.default_rng(1)
    sizes = np.array([9, 6, 5, 4], dtype=np.int64)
    n, bs = 70, 16
    X = rng.random((n, 9))
    y = rng.integers(0, 4, n)
    theta0 = rng.normal(0, 0.4, _kernels.theta_size(sizes))
    order = rng.permutation(n)
    outs = {}
    for name, kern in (("numpy", _kernels.numpy_kernels()), ("numba", numba_kernels)):
        theta = theta0.copy()
        loss = kern["classifier_epoch"](theta, sizes, X, y, order, bs, 0.05)
        outs[name] = (theta, loss)
    assert np.max(np.abs(outs["numpy"][0] - outs["numba"][0])) < 1e-10
    assert outs["numpy"][1] == pytest.approx(outs["numba"][1], rel=1e-10)


@needs_numba
def test_regressor_epoch_backends_agree():
    rng = np.random.default_rng(2)
    sizes = np.array([9, 6, 1], dtype=np.int64)
    n, bs = 70, 16
    X = rng.random((n, 9))
    t = rng.random(n) * 4.0
    theta0 = rng.normal(0, 0.4, _kernels.theta_size(sizes))
    order = rng.permutation(n)
    outs = {}
    for name, kern in (("numpy", _kernels.numpy_kernels()), ("numba", numba_kernels)):
        theta = theta0.copy()
        loss = kern["regressor_epoch"](theta, sizes, X, t, order, bs, 0.01)
        outs[name] = (theta, loss)
    assert np.max(np.abs(outs["numpy"][0] - outs["numba"][0])) < 1e-10
    assert outs["numpy"][1] == pytest.approx(outs["numba"][1], rel=1e-10)


def test_partial_final_batch_handled():
    rng = np.random.default_rng(3)
    sizes = np.array([4, 3, 2], dtype=np.int64)
    X = rng.random((10, 4))  # batch 4 -> final batch of 2
    y = rng.integers(0, 2, 10)
    theta = rng.normal(0, 0.3, _kernels.theta_size(sizes))
    loss = _kernels.classifier_epoch_np(theta, sizes, X, y, np.arange(10), 4, 0.05)
    assert np.isfinite(loss) and np.isfinite(theta).all()


@pytest.mark.parametrize("kernel, sizes", [("classifier_epoch", (9, 6, 5, 4)),
                                           ("regressor_epoch", (9, 6, 1))])
def test_order_gathers_the_rows_a_shuffled_copy_holds(kernel, sizes):
    # bit for bit: batches gathered through `order` are the rows of X[order]
    rng = np.random.default_rng(4)
    sizes = np.array(sizes, dtype=np.int64)
    n = 70
    X = rng.random((n, 9))
    y = rng.integers(0, 4, n) if kernel == "classifier_epoch" else rng.random(n) * 4.0
    order = rng.permutation(n)
    theta0 = rng.normal(0, 0.4, _kernels.theta_size(sizes))
    step = _kernels.numpy_kernels()[kernel]
    gathered, copied = theta0.copy(), theta0.copy()
    loss_gathered = step(gathered, sizes, X, y, order, 16, 0.01)
    loss_copied = step(copied, sizes, np.ascontiguousarray(X[order]),
                       np.ascontiguousarray(y[order]), np.arange(n), 16, 0.01)
    assert loss_gathered == loss_copied
    assert np.array_equal(gathered, copied)


def test_env_flag_selcontrols_backend(monkeypatch):
    import importlib
    import mdp_tcm._kernels as mod
    monkeypatch.setenv("MDP_TCM_NUMBA", "0")
    reloaded = importlib.reload(mod)
    try:
        assert reloaded.ACTIVE_BACKEND == "numpy"
        assert reloaded.cd_epoch is reloaded.cd_epoch_np
    finally:
        monkeypatch.undo()
        importlib.reload(mod)
