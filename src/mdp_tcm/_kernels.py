"""Hot training kernels in vectorized numpy.

The contrastive-divergence epoch and the SGD fine-tuning epoch dominate
runtime. Both are deterministic for a fixed input, and both run in the
dtype of the frames, float32 or float64, which the parameters must share.
``ACTIVE_BACKEND`` names the array library they run on, for provenance
records.

Network parameters are packed into a single flat ``theta`` vector
(``W0, b0, W1, b1, ...``) so the kernels take plain arrays and gradient
checking can perturb one contiguous buffer. `layer_views` is the one place
that slices that layout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "LINEAR",
    "SOFTMAX",
    "as_float_array",
    "cd_epoch",
    "layer_views",
    "sgd_epoch",
    "theta_size",
]

ACTIVE_BACKEND = "numpy"

SOFTMAX = "softmax"
LINEAR = "linear"


def as_float_array(x) -> np.ndarray:
    """`x` as an array: frames and parameters keep a float32 or float64
    dtype, and any other input becomes float64."""
    a = np.asarray(x)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


# ---------------------------------------------------------------------------
# parameter packing
# ---------------------------------------------------------------------------

def theta_size(sizes) -> int:
    """Total parameter count for affine layers sizes[l] -> sizes[l+1]."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return int(np.sum(sizes[:-1] * sizes[1:] + sizes[1:]))


def layer_views(theta, sizes) -> list:
    """(weights, bias) views into theta, one pair per affine layer."""
    views = []
    pos = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        n_in, n_out = int(n_in), int(n_out)
        W = theta[pos:pos + n_in * n_out].reshape(n_in, n_out)
        pos += n_in * n_out
        views.append((W, theta[pos:pos + n_out]))
        pos += n_out
    return views


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _check_dtype(X, *params) -> None:
    """A ValueError unless every array in `params` has the dtype of X:
    numpy would otherwise run each product in the wider of the two."""
    wrong = {str(p.dtype) for p in params if p.dtype != X.dtype}
    if wrong:
        raise ValueError(f"frames of dtype {X.dtype} do not match parameters of "
                         f"dtype {', '.join(sorted(wrong))}")


def _sigmoid(z):
    """1 / (1 + exp(-z)) in the dtype of z. Where exp(-z) overflows, the
    sum is inf and the result its exact limit 0, with no warning."""
    out = np.empty_like(z)
    np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def cd_epoch(W, a, b, X, order, batch_size, lr, U):
    """One CD-1 epoch over the rows of X in `order`.

    Each batch gathers its rows of X from the next slice of `order`. Hidden
    states are sampled binary against the uniforms U (shape
    ``(n, n_hidden)``, one row per position in `order`); the visible
    reconstruction stays mean-field. Updates W, a, b in place and returns
    the mean per-row squared reconstruction error. The arithmetic runs in
    the dtype of X, which W, a and b must share (a ValueError otherwise).
    """
    _check_dtype(X, W, a, b)
    n = order.shape[0]
    err = 0.0
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        V0 = X[order[s:e]]
        bs = e - s
        Ph0 = _sigmoid(V0 @ W + b)
        H = (U[s:e] < Ph0).astype(X.dtype)
        V = _sigmoid(H @ W.T + a)
        Ph1 = _sigmoid(V @ W + b)
        scale = lr / bs
        W += scale * (V0.T @ Ph0 - V.T @ Ph1)
        a += scale * (V0.sum(axis=0) - V.sum(axis=0))
        b += scale * (Ph0.sum(axis=0) - Ph1.sum(axis=0))
        err += float(((V0 - V) ** 2).sum())
    return err / n


def sgd_epoch(theta, sizes, X, targets, order, batch_size, lr, head, gram=None):
    """One mini-batch SGD epoch; theta updated in place.

    Each batch gathers its rows of X and targets from the next slice of
    `order`. Hidden layers are rectified-linear. The head is SOFTMAX
    (integer class targets, mean negative log-likelihood) or LINEAR (scalar
    float targets, mean squared error). Returns the mean loss over the
    epoch, each batch evaluated before its update. The arithmetic runs in
    the dtype of X, which theta, and a linear head's targets, must share
    (a ValueError otherwise).

    Given `gram` = (K, P0, C), the first layer runs in Gram form: its
    weights are W0 + X.T @ C, with W0 as theta holds it, K = X @ X.T and
    P0 = X @ W0. A batch b then takes P0[b] + K[b] @ C for X[b] @ W0 and
    steps C[b] in place of W0, which the caller updates once, by X.T @ C,
    after its last epoch. That is the same update in exact arithmetic, at
    bs * n instead of bs * D multiply-adds per first-layer unit for n rows
    of D values. K, P0 and C share the dtype of X.
    """
    if head not in (SOFTMAX, LINEAR):
        raise ValueError(f"unknown head {head!r}")
    _check_dtype(X, theta, *([targets] if head == LINEAR else []), *(gram or ()))
    layers = layer_views(theta, sizes)
    lh = len(layers) - 1
    K, P0, C = gram or (None, None, None)
    n = order.shape[0]
    total = 0.0
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        rows = order[s:e]
        tb = targets[rows]
        bs = e - s
        if gram is None:
            acts = [X[rows]]
            z = acts[0] @ layers[0][0]
        else:
            acts = [None]  # the first layer's input stays in K and P0
            z = P0[rows] + K[rows] @ C
        for l in range(1, lh + 1):
            acts.append(np.maximum(z + layers[l - 1][1], 0.0))
            z = acts[l] @ layers[l][0]
        out = z + layers[lh][1]
        if head == SOFTMAX:
            hit = (np.arange(bs), tb)
            m = out.max(axis=1, keepdims=True)
            ex = np.exp(out - m)
            Z = ex.sum(axis=1, keepdims=True)
            total += float(-(out[hit] - m[:, 0] - np.log(Z[:, 0])).sum())
            delta = ex / Z
            delta[hit] -= 1.0
            delta /= bs
        else:
            resid = out[:, 0] - tb
            total += float((resid ** 2).sum())
            delta = (2.0 * resid / bs)[:, None]
        for l in range(lh, -1, -1):
            W, bv = layers[l]
            if l < lh:
                delta = dact * (acts[l + 1] > 0.0)
            if l > 0:
                dact = delta @ W.T
            if l > 0 or gram is None:
                W -= lr * (acts[l].T @ delta)
            else:
                C[rows] -= lr * delta
            bv -= lr * delta.sum(axis=0)
    return total / n
