"""Hot training kernels: numba-compiled inner loops with a pure-numpy fallback.

The contrastive-divergence epoch and the SGD fine-tuning epochs dominate
runtime, so each ships in two equivalent implementations:

* a vectorized pure-numpy version (always available), and
* a numba ``@njit`` version compiled on first use.

The active backend is chosen at import time from the ``MDP_TCM_NUMBA``
environment variable: ``"1"`` forces numba, ``"0"`` forces numpy, unset
tries numba and silently falls back. Both paths are deterministic for a
fixed input; they may differ in the last few ulps because the numpy path
uses vectorized reductions while the numba path uses explicit loops.

Network parameters are packed into a single flat ``theta`` vector
(``W0, b0, W1, b1, ...``) so the kernels take plain arrays and gradient
checking can perturb one contiguous buffer.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "cd_epoch",
    "classifier_epoch",
    "regressor_epoch",
    "numpy_kernels",
    "numba_kernels",
    "theta_size",
    "layer_offsets",
]


# ---------------------------------------------------------------------------
# parameter packing
# ---------------------------------------------------------------------------

def theta_size(sizes) -> int:
    """Total parameter count for affine layers sizes[l] -> sizes[l+1]."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return int(np.sum(sizes[:-1] * sizes[1:] + sizes[1:]))


def layer_offsets(sizes):
    """Offsets of each layer's weight matrix and bias vector inside theta."""
    sizes = np.asarray(sizes, dtype=np.int64)
    n_layers = len(sizes) - 1
    woff = np.zeros(n_layers, dtype=np.int64)
    boff = np.zeros(n_layers, dtype=np.int64)
    pos = 0
    for l in range(n_layers):
        woff[l] = pos
        pos += sizes[l] * sizes[l + 1]
        boff[l] = pos
        pos += sizes[l + 1]
    return woff, boff


# ---------------------------------------------------------------------------
# pure-numpy kernels
# ---------------------------------------------------------------------------

def _sigmoid(z):
    out = np.empty_like(z)
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def cd_epoch_np(W, a, b, X, batch_size, lr, k, U):
    """One contrastive-divergence epoch over pre-shuffled rows X.

    Hidden states are sampled binary against the uniforms U (shape
    ``(n, k, n_hidden)``); visible reconstructions stay mean-field. Updates
    W, a, b in place and returns the mean per-row squared reconstruction
    error.
    """
    n = X.shape[0]
    err = 0.0
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        V0 = X[s:e]
        bs = e - s
        Ph0 = _sigmoid(V0 @ W + b)
        H = (U[s:e, 0, :] < Ph0).astype(np.float64)
        V = _sigmoid(H @ W.T + a)
        for step in range(1, k):
            Ph = _sigmoid(V @ W + b)
            H = (U[s:e, step, :] < Ph).astype(np.float64)
            V = _sigmoid(H @ W.T + a)
        Phk = _sigmoid(V @ W + b)
        scale = lr / bs
        W += scale * (V0.T @ Ph0 - V.T @ Phk)
        a += scale * (V0.sum(axis=0) - V.sum(axis=0))
        b += scale * (Ph0.sum(axis=0) - Phk.sum(axis=0))
        err += float(((V0 - V) ** 2).sum())
    return err / n


def classifier_epoch_np(theta, sizes, X, y, order, batch_size, lr):
    """One SGD epoch on mean negative log-likelihood with a softmax head.

    Each batch gathers its rows of X and y from the next slice of `order`.
    ReLU hidden layers; theta updated in place; returns the mean NLL over
    the epoch evaluated before each batch update.
    """
    woff, boff = layer_offsets(sizes)
    n = order.shape[0]
    n_layers = len(sizes) - 1
    total_nll = 0.0
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        rows = order[s:e]
        Xb, yb = X[rows], y[rows]
        bs = e - s
        acts = [Xb]
        for l in range(n_layers - 1):
            W = theta[woff[l]:woff[l] + sizes[l] * sizes[l + 1]].reshape(sizes[l], sizes[l + 1])
            bv = theta[boff[l]:boff[l] + sizes[l + 1]]
            acts.append(np.maximum(acts[l] @ W + bv, 0.0))
        lh = n_layers - 1
        Wh = theta[woff[lh]:woff[lh] + sizes[lh] * sizes[lh + 1]].reshape(sizes[lh], sizes[lh + 1])
        bh = theta[boff[lh]:boff[lh] + sizes[lh + 1]]
        logits = acts[lh] @ Wh + bh
        m = logits.max(axis=1, keepdims=True)
        ex = np.exp(logits - m)
        Z = ex.sum(axis=1, keepdims=True)
        P = ex / Z
        total_nll += float(-(logits[np.arange(bs), yb] - m[:, 0] - np.log(Z[:, 0])).sum())
        delta = P.copy()
        delta[np.arange(bs), yb] -= 1.0
        delta /= bs
        dact = delta @ Wh.T
        Wh -= lr * (acts[lh].T @ delta)
        bh -= lr * delta.sum(axis=0)
        for l in range(n_layers - 2, -1, -1):
            W = theta[woff[l]:woff[l] + sizes[l] * sizes[l + 1]].reshape(sizes[l], sizes[l + 1])
            bv = theta[boff[l]:boff[l] + sizes[l + 1]]
            delta = dact * (acts[l + 1] > 0.0)
            if l > 0:
                dact = delta @ W.T
            W -= lr * (acts[l].T @ delta)
            bv -= lr * delta.sum(axis=0)
    return total_nll / n


def regressor_epoch_np(theta, sizes, X, t, order, batch_size, lr):
    """One SGD epoch on mean squared error with a scalar linear head."""
    woff, boff = layer_offsets(sizes)
    n = order.shape[0]
    n_layers = len(sizes) - 1
    total_se = 0.0
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        rows = order[s:e]
        Xb, tb = X[rows], t[rows]
        bs = e - s
        acts = [Xb]
        for l in range(n_layers - 1):
            W = theta[woff[l]:woff[l] + sizes[l] * sizes[l + 1]].reshape(sizes[l], sizes[l + 1])
            bv = theta[boff[l]:boff[l] + sizes[l + 1]]
            acts.append(np.maximum(acts[l] @ W + bv, 0.0))
        lh = n_layers - 1
        Wh = theta[woff[lh]:woff[lh] + sizes[lh] * sizes[lh + 1]].reshape(sizes[lh], sizes[lh + 1])
        bh = theta[boff[lh]:boff[lh] + sizes[lh + 1]]
        pred = (acts[lh] @ Wh)[:, 0] + bh[0]
        resid = pred - tb
        total_se += float((resid ** 2).sum())
        delta = (2.0 * resid / bs)[:, None]
        dact = delta @ Wh.T
        Wh -= lr * (acts[lh].T @ delta)
        bh -= lr * delta.sum(axis=0)
        for l in range(n_layers - 2, -1, -1):
            W = theta[woff[l]:woff[l] + sizes[l] * sizes[l + 1]].reshape(sizes[l], sizes[l + 1])
            bv = theta[boff[l]:boff[l] + sizes[l + 1]]
            delta = dact * (acts[l + 1] > 0.0)
            if l > 0:
                dact = delta @ W.T
            W -= lr * (acts[l].T @ delta)
            bv -= lr * delta.sum(axis=0)
    return total_se / n


# ---------------------------------------------------------------------------
# numba kernels (same contracts, loop style)
# ---------------------------------------------------------------------------

def _cd_epoch_jit(W, a, b, X, batch_size, lr, k, U):
    n, I = X.shape
    J = W.shape[1]
    err = 0.0
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        bs = e - s
        V0 = X[s:e]
        Ph0 = np.dot(V0, W)
        for i in range(bs):
            for j in range(J):
                Ph0[i, j] = 1.0 / (1.0 + np.exp(-(Ph0[i, j] + b[j])))
        H = np.empty((bs, J))
        for i in range(bs):
            for j in range(J):
                H[i, j] = 1.0 if U[s + i, 0, j] < Ph0[i, j] else 0.0
        V = np.dot(H, W.T)
        for i in range(bs):
            for j in range(I):
                V[i, j] = 1.0 / (1.0 + np.exp(-(V[i, j] + a[j])))
        for step in range(1, k):
            Ph = np.dot(V, W)
            for i in range(bs):
                for j in range(J):
                    p = 1.0 / (1.0 + np.exp(-(Ph[i, j] + b[j])))
                    H[i, j] = 1.0 if U[s + i, step, j] < p else 0.0
            V = np.dot(H, W.T)
            for i in range(bs):
                for j in range(I):
                    V[i, j] = 1.0 / (1.0 + np.exp(-(V[i, j] + a[j])))
        Phk = np.dot(V, W)
        for i in range(bs):
            for j in range(J):
                Phk[i, j] = 1.0 / (1.0 + np.exp(-(Phk[i, j] + b[j])))
        scale = lr / bs
        Gpos = np.dot(V0.T, Ph0)
        Gneg = np.dot(V.T, Phk)
        for i in range(I):
            for j in range(J):
                W[i, j] += scale * (Gpos[i, j] - Gneg[i, j])
        for j in range(I):
            da = 0.0
            for i in range(bs):
                da += V0[i, j] - V[i, j]
            a[j] += scale * da
        for j in range(J):
            db = 0.0
            for i in range(bs):
                db += Ph0[i, j] - Phk[i, j]
            b[j] += scale * db
        for i in range(bs):
            for j in range(I):
                d = V0[i, j] - V[i, j]
                err += d * d
    return err / n


def _classifier_epoch_jit(theta, sizes, X, y, order, batch_size, lr):
    n = order.shape[0]
    n_layers = sizes.shape[0] - 1
    woff = np.zeros(n_layers, dtype=np.int64)
    boff = np.zeros(n_layers, dtype=np.int64)
    pos = 0
    for l in range(n_layers):
        woff[l] = pos
        pos += sizes[l] * sizes[l + 1]
        boff[l] = pos
        pos += sizes[l + 1]
    total_nll = 0.0
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        bs = e - s
        rows = order[s:e]
        acts = [X[rows]]
        for l in range(n_layers - 1):
            W = theta[woff[l]:woff[l] + sizes[l] * sizes[l + 1]].reshape(sizes[l], sizes[l + 1])
            bv = theta[boff[l]:boff[l] + sizes[l + 1]]
            A = np.dot(acts[l], W)
            for i in range(bs):
                for j in range(sizes[l + 1]):
                    v = A[i, j] + bv[j]
                    A[i, j] = v if v > 0.0 else 0.0
            acts.append(A)
        lh = n_layers - 1
        K = sizes[lh + 1]
        Wh = theta[woff[lh]:woff[lh] + sizes[lh] * K].reshape(sizes[lh], K)
        bh = theta[boff[lh]:boff[lh] + K]
        logits = np.dot(acts[lh], Wh)
        delta = np.empty((bs, K))
        for i in range(bs):
            m = logits[i, 0] + bh[0]
            for j in range(1, K):
                v = logits[i, j] + bh[j]
                if v > m:
                    m = v
            zsum = 0.0
            for j in range(K):
                ev = np.exp(logits[i, j] + bh[j] - m)
                delta[i, j] = ev
                zsum += ev
            total_nll -= logits[i, y[rows[i]]] + bh[y[rows[i]]] - m - np.log(zsum)
            for j in range(K):
                delta[i, j] /= zsum
            delta[i, y[rows[i]]] -= 1.0
            for j in range(K):
                delta[i, j] /= bs
        dact = np.dot(delta, Wh.T)
        Gw = np.dot(acts[lh].T, delta)
        for i in range(sizes[lh]):
            for j in range(K):
                Wh[i, j] -= lr * Gw[i, j]
        for j in range(K):
            gb = 0.0
            for i in range(bs):
                gb += delta[i, j]
            bh[j] -= lr * gb
        for l in range(n_layers - 2, -1, -1):
            W = theta[woff[l]:woff[l] + sizes[l] * sizes[l + 1]].reshape(sizes[l], sizes[l + 1])
            bv = theta[boff[l]:boff[l] + sizes[l + 1]]
            d = np.empty((bs, sizes[l + 1]))
            for i in range(bs):
                for j in range(sizes[l + 1]):
                    d[i, j] = dact[i, j] if acts[l + 1][i, j] > 0.0 else 0.0
            if l > 0:
                dact = np.dot(d, W.T)
            Gw = np.dot(acts[l].T, d)
            for i in range(sizes[l]):
                for j in range(sizes[l + 1]):
                    W[i, j] -= lr * Gw[i, j]
            for j in range(sizes[l + 1]):
                gb = 0.0
                for i in range(bs):
                    gb += d[i, j]
                bv[j] -= lr * gb
    return total_nll / n


def _regressor_epoch_jit(theta, sizes, X, t, order, batch_size, lr):
    n = order.shape[0]
    n_layers = sizes.shape[0] - 1
    woff = np.zeros(n_layers, dtype=np.int64)
    boff = np.zeros(n_layers, dtype=np.int64)
    pos = 0
    for l in range(n_layers):
        woff[l] = pos
        pos += sizes[l] * sizes[l + 1]
        boff[l] = pos
        pos += sizes[l + 1]
    total_se = 0.0
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        bs = e - s
        rows = order[s:e]
        acts = [X[rows]]
        for l in range(n_layers - 1):
            W = theta[woff[l]:woff[l] + sizes[l] * sizes[l + 1]].reshape(sizes[l], sizes[l + 1])
            bv = theta[boff[l]:boff[l] + sizes[l + 1]]
            A = np.dot(acts[l], W)
            for i in range(bs):
                for j in range(sizes[l + 1]):
                    v = A[i, j] + bv[j]
                    A[i, j] = v if v > 0.0 else 0.0
            acts.append(A)
        lh = n_layers - 1
        Wh = theta[woff[lh]:woff[lh] + sizes[lh]].reshape(sizes[lh], 1)
        bh = theta[boff[lh]:boff[lh] + 1]
        pred = np.dot(acts[lh], Wh)
        delta = np.empty((bs, 1))
        for i in range(bs):
            r = pred[i, 0] + bh[0] - t[rows[i]]
            total_se += r * r
            delta[i, 0] = 2.0 * r / bs
        dact = np.dot(delta, Wh.T)
        Gw = np.dot(acts[lh].T, delta)
        for i in range(sizes[lh]):
            Wh[i, 0] -= lr * Gw[i, 0]
        gb = 0.0
        for i in range(bs):
            gb += delta[i, 0]
        bh[0] -= lr * gb
        for l in range(n_layers - 2, -1, -1):
            W = theta[woff[l]:woff[l] + sizes[l] * sizes[l + 1]].reshape(sizes[l], sizes[l + 1])
            bv = theta[boff[l]:boff[l] + sizes[l + 1]]
            d = np.empty((bs, sizes[l + 1]))
            for i in range(bs):
                for j in range(sizes[l + 1]):
                    d[i, j] = dact[i, j] if acts[l + 1][i, j] > 0.0 else 0.0
            if l > 0:
                dact = np.dot(d, W.T)
            Gw = np.dot(acts[l].T, d)
            for i in range(sizes[l]):
                for j in range(sizes[l + 1]):
                    W[i, j] -= lr * Gw[i, j]
            for j in range(sizes[l + 1]):
                gb = 0.0
                for i in range(bs):
                    gb += d[i, j]
                bv[j] -= lr * gb
    return total_se / n


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_NUMBA_CACHE = None


def numpy_kernels():
    return {
        "cd_epoch": cd_epoch_np,
        "classifier_epoch": classifier_epoch_np,
        "regressor_epoch": regressor_epoch_np,
    }


def numba_kernels():
    """Compile (once) and return the numba kernels, or None if unavailable."""
    global _NUMBA_CACHE
    if _NUMBA_CACHE is not None:
        return _NUMBA_CACHE
    try:
        from numba import njit
    except ImportError:
        return None
    _NUMBA_CACHE = {
        "cd_epoch": njit(cache=True, nogil=True)(_cd_epoch_jit),
        "classifier_epoch": njit(cache=True, nogil=True)(_classifier_epoch_jit),
        "regressor_epoch": njit(cache=True, nogil=True)(_regressor_epoch_jit),
    }
    return _NUMBA_CACHE


def _select_backend():
    flag = os.environ.get("MDP_TCM_NUMBA", "").strip()
    if flag == "0":
        return "numpy", numpy_kernels()
    kernels = numba_kernels()
    if kernels is None:
        if flag == "1":
            raise ImportError("MDP_TCM_NUMBA=1 but numba is not importable")
        return "numpy", numpy_kernels()
    return "numba", kernels


ACTIVE_BACKEND, _ACTIVE = _select_backend()

cd_epoch = _ACTIVE["cd_epoch"]
classifier_epoch = _ACTIVE["classifier_epoch"]
regressor_epoch = _ACTIVE["regressor_epoch"]
