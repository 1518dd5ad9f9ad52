"""Restricted Boltzmann machine: energy model, conditionals,
contrastive-divergence training, and a brute-force oracle for tiny instances.

The energy of a joint state is
    E(v, h) = -sum_i a_i v_i - sum_j b_j h_j - sum_ij v_i h_j w_ij
and both conditionals factorize into per-unit sigmoids. Visible units take
real values in [0, 1] (normalized sensor frames are fed directly); hidden
units are binary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericError

EXACT_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class RbmParams:
    """Weights (visible x hidden) plus visible and hidden biases."""

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        a = np.asarray(self.visible_bias, dtype=np.float64)
        b = np.asarray(self.hidden_bias, dtype=np.float64)
        if w.ndim != 2 or a.shape != (w.shape[0],) or b.shape != (w.shape[1],):
            raise ValueError("inconsistent RBM parameter shapes")
        if not (np.isfinite(w).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("RBM parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "visible_bias", a)
        object.__setattr__(self, "hidden_bias", b)

    @property
    def n_visible(self) -> int:
        return self.weights.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class CdConfig:
    gibbs_steps: int = 1
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 10

    def __post_init__(self):
        if self.gibbs_steps < 1 or self.epochs < 0 or self.batch_size < 1:
            raise ValueError("gibbs_steps and batch_size must be positive, epochs nonnegative")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")


def init_params(n_visible: int, n_hidden: int, rng: np.random.Generator,
                visible_mean=None) -> RbmParams:
    """Gaussian weights (std 0.01), zero hidden biases.

    When the per-unit mean of the training data is given, visible biases
    start at its logit so reconstructions match the data statistics from
    the first update; otherwise they start at zero. Without this, CD on
    mean-shifted [0, 1] inputs drifts the weights negative and the
    unrolled rectified-linear layers start dead.
    """
    if visible_mean is None:
        a = np.zeros(n_visible)
    else:
        m = np.clip(np.asarray(visible_mean, dtype=np.float64), 0.01, 0.99)
        a = np.log(m / (1.0 - m))
    return RbmParams(rng.normal(0.0, 0.01, size=(n_visible, n_hidden)),
                     a, np.zeros(n_hidden))


def _check_units(params: RbmParams, v=None, h=None):
    if v is not None and np.asarray(v).shape[-1] != params.n_visible:
        raise ValueError("visible vector dimension mismatch")
    if h is not None and np.asarray(h).shape[-1] != params.n_hidden:
        raise ValueError("hidden vector dimension mismatch")


def energy(params: RbmParams, v, h) -> float:
    """Joint energy E(v, h)."""
    v = np.asarray(v, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    _check_units(params, v, h)
    return float(-(params.visible_bias @ v) - (params.hidden_bias @ h)
                 - (v @ params.weights @ h))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def prob_h_given_v(params: RbmParams, v) -> np.ndarray:
    """P(h_j = 1 | v) = sigmoid(b_j + sum_i v_i w_ij). Accepts batches."""
    v = np.asarray(v, dtype=np.float64)
    _check_units(params, v=v)
    return _sigmoid(v @ params.weights + params.hidden_bias)


def prob_v_given_h(params: RbmParams, h) -> np.ndarray:
    """P(v_i = 1 | h) = sigmoid(a_i + sum_j h_j w_ij). Accepts batches."""
    h = np.asarray(h, dtype=np.float64)
    _check_units(params, h=h)
    return _sigmoid(h @ params.weights.T + params.visible_bias)


def train_rbm(params: RbmParams, data, config: CdConfig, rng: np.random.Generator):
    """Mini-batch CD-k training for `epochs` full passes.

    Hidden states are sampled binary along the Gibbs chain; visible
    reconstructions and the final hidden statistics use probabilities.

    Returns (trained params, per-epoch mean squared reconstruction error).
    Runs the numpy CD kernel; raises NumericError if parameters
    leave the finite range.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("training data must be a nonempty 2-D matrix")
    _check_units(params, v=data)
    W = params.weights.copy()
    a = params.visible_bias.copy()
    b = params.hidden_bias.copy()
    history = np.zeros(config.epochs)
    for epoch in range(config.epochs):
        perm = rng.permutation(data.shape[0])
        shuffled = np.ascontiguousarray(data[perm])
        uniforms = rng.random((data.shape[0], config.gibbs_steps, params.n_hidden))
        err = _kernels.cd_epoch(W, a, b, shuffled, config.batch_size,
                                config.learning_rate, config.gibbs_steps, uniforms)
        if not (np.isfinite(W).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise NumericError(f"non-finite RBM parameters at epoch {epoch}")
        history[epoch] = err
    return RbmParams(W, a, b), history


def reconstruction_cross_entropy(params: RbmParams, data) -> float:
    """Mean per-row cross-entropy between data and its one-pass reconstruction."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    ph = prob_h_given_v(params, data)
    recon = prob_v_given_h(params, ph)
    eps = 1e-12
    ce = -(data * np.log(recon + eps) + (1.0 - data) * np.log(1.0 - recon + eps))
    return float(ce.sum(axis=1).mean())


# ---------------------------------------------------------------------------
# brute-force oracle (tiny instances only)
# ---------------------------------------------------------------------------

def _enumerate_states(n: int) -> np.ndarray:
    """All binary vectors of length n, one per row."""
    grid = np.indices((2,) * n).reshape(n, -1).T
    return grid.astype(np.float64)


def exact_joint(params: RbmParams):
    """Exact joint table p(v, h) = exp(-E) / Z over all binary states.

    Returns (visible_states, hidden_states, joint) where joint[iv, ih] is
    the probability of (visible_states[iv], hidden_states[ih]).
    """
    if params.n_visible + params.n_hidden > EXACT_ENUMERATION_LIMIT:
        raise ValueError("instance too large for exact enumeration")
    vs = _enumerate_states(params.n_visible)
    hs = _enumerate_states(params.n_hidden)
    neg_e = (vs @ params.visible_bias)[:, None] + (hs @ params.hidden_bias)[None, :] \
        + vs @ params.weights @ hs.T
    un = np.exp(neg_e)
    return vs, hs, un / un.sum()


def exact_conditional(params: RbmParams, v) -> np.ndarray:
    """P(h_j = 1 | v) by explicit marginalization over all hidden states."""
    if params.n_visible + params.n_hidden > EXACT_ENUMERATION_LIMIT:
        raise ValueError("instance too large for exact enumeration")
    v = np.asarray(v, dtype=np.float64)
    _check_units(params, v=v)
    hs = _enumerate_states(params.n_hidden)
    neg_e = hs @ params.hidden_bias + hs @ (params.weights.T @ v)
    un = np.exp(neg_e - neg_e.max())
    p_h = un / un.sum()
    return p_h @ hs
