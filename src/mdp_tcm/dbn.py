"""Deep belief network: greedy layer-wise RBM pretraining, then supervised
mini-batch SGD fine-tuning with a softmax or scalar linear head.

Pretraining trains each RBM on the sigmoid hidden probabilities of the one
below it; the learned weights and hidden biases seed the feed-forward
layers, which fine-tune under rectified-linear activations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from . import rbm as rbm_mod
from ._kernels import LINEAR, SOFTMAX
from .errors import NumericError
from .seeding import substream

N_HIDDEN_LAYERS = 3  # "five-layered": input + 3 hidden + output


@dataclass(frozen=True)
class TrainConfig:
    pretrain_epochs: int = 200
    finetune_epochs: int = 500
    learning_rate: float = 0.01
    batch_size: int = 500
    hidden_range: tuple = (5, 60)

    def __post_init__(self):
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.learning_rate < 0 or self.batch_size < 1:
            raise ValueError("learning_rate must be >= 0 and batch_size >= 1")
        lo, hi = self.hidden_range
        if lo < 1 or hi < lo:
            raise ValueError("hidden_range must be a nonempty positive interval")


PRESETS = {
    "prognosis-default": TrainConfig(pretrain_epochs=200, finetune_epochs=500,
                                     learning_rate=0.01, batch_size=500,
                                     hidden_range=(5, 60)),
    "diagnosis-default": TrainConfig(pretrain_epochs=300, finetune_epochs=1000,
                                     learning_rate=0.01, batch_size=500,
                                     hidden_range=(10, 50)),
}


def preset(name: str, **overrides) -> TrainConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return replace(PRESETS[name], **overrides)


def draw_hidden_sizes(config: TrainConfig, rng: np.random.Generator,
                      n_layers: int = N_HIDDEN_LAYERS) -> tuple:
    """Hidden layer widths drawn uniformly from the config's range."""
    lo, hi = config.hidden_range
    return tuple(int(v) for v in rng.integers(lo, hi + 1, size=n_layers))


@dataclass(frozen=True)
class DbnModel:
    """Feed-forward network with packed parameters.

    layer_sizes runs input, hidden..., output; `theta` stores each affine
    layer as W then b, concatenated. Hidden layers are rectified-linear;
    the head is softmax (classifier) or identity (scalar regressor).
    """

    layer_sizes: tuple
    head: str
    theta: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes needs at least input and output, all positive")
        if self.head not in (SOFTMAX, LINEAR):
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == LINEAR and sizes[-1] != 1:
            raise ValueError("linear head is scalar; last layer size must be 1")
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (_kernels.theta_size(sizes),):
            raise ValueError("theta length does not match layer sizes")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "theta", theta)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    @property
    def sizes_array(self) -> np.ndarray:
        return np.asarray(self.layer_sizes, dtype=np.int64)

    def layer(self, l: int):
        """(weights view, bias view) of affine layer l."""
        return _kernels.layer_views(self.theta, self.layer_sizes)[l]


def init_model(layer_sizes, head: str, rng: np.random.Generator,
               rbm_stack=None) -> DbnModel:
    """Fresh model; hidden layers seeded from a pretrained RBM stack if given.

    RBM weights and hidden biases become the feed-forward parameters;
    visible biases are dropped. The head is always freshly initialized.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    theta = np.zeros(_kernels.theta_size(sizes))
    model = DbnModel(sizes, head, theta)
    n_layers = len(sizes) - 1
    for l in range(n_layers):
        W, b = model.layer(l)
        if rbm_stack is not None and l < n_layers - 1:
            stack_params = rbm_stack[l]
            if stack_params.weights.shape != W.shape:
                raise ValueError("RBM stack does not match layer sizes")
            W[:] = stack_params.weights
            b[:] = stack_params.hidden_bias
        else:
            W[:] = rng.normal(0.0, 0.01, size=W.shape)
            b[:] = 0.0
    return model


def rescale_hidden_layers(model: DbnModel, frames, sample: int = 2000) -> None:
    """Scale each hidden layer to unit mean active preactivation, in place.

    Rectified-linear layers are positively homogeneous, so per-layer
    positive rescaling leaves the representable function family unchanged;
    it only keeps activations at O(1) so SGD sees usable gradients. The
    sigmoid-unit pretraining otherwise leaves deep unrolled activations
    orders of magnitude too small.
    """
    x = np.asarray(frames, dtype=np.float64)[:sample]
    a = x
    for l in range(len(model.layer_sizes) - 2):
        W, b = model.layer(l)
        pre = a @ W + b
        pos = pre[pre > 0]
        if pos.size:
            c = 1.0 / pos.mean()
            W *= c
            b *= c
        a = np.maximum(a @ W + b, 0.0)


def pretrain(layer_sizes, frames, config: TrainConfig, rng: np.random.Generator):
    """Greedy layer-wise pretraining of the hidden-layer RBM stack.

    Each RBM trains on the sigmoid hidden probabilities of its predecessor;
    raw frames (already in [0, 1]) feed the first. Returns the RBM list.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("pretraining needs a nonempty 2-D frame matrix")
    sizes = tuple(int(s) for s in layer_sizes)
    cd = rbm_mod.CdConfig(epochs=config.pretrain_epochs,
                          learning_rate=config.learning_rate,
                          batch_size=config.batch_size)
    stack = []
    rep = frames
    for l in range(len(sizes) - 2):
        params = rbm_mod.init_params(sizes[l], sizes[l + 1], rng,
                                     visible_mean=rep.mean(axis=0))
        params, _ = rbm_mod.train_rbm(params, rep, cd, rng)
        stack.append(params)
        rep = rbm_mod.prob_h_given_v(params, rep)
    return stack


def forward(model: DbnModel, frames):
    """Deterministic pass: (list of hidden activations, head input).

    Accepts a single frame or a batch; hidden layers are affine + ReLU.
    """
    x = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if x.shape[1] != model.n_inputs:
        raise ValueError(f"frame length {x.shape[1]} != input size {model.n_inputs}")
    acts = []
    a = x
    for l in range(len(model.layer_sizes) - 2):
        W, b = model.layer(l)
        a = np.maximum(a @ W + b, 0.0)
        acts.append(a)
    return acts, a


def _head_logits(model: DbnModel, frames):
    _, a = forward(model, frames)
    W, b = model.layer(len(model.layer_sizes) - 2)
    return a @ W + b


def predict_proba(model: DbnModel, frames) -> np.ndarray:
    """Softmax class posteriors, computed with a max shift for stability."""
    if model.head != SOFTMAX:
        raise ValueError("predict_proba requires a softmax head")
    logits = _head_logits(model, frames)
    m = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - m)
    p = ex / ex.sum(axis=1, keepdims=True)
    return p[0] if np.asarray(frames).ndim == 1 else p


def predict_regression(model: DbnModel, frames):
    """Scalar wear estimate (micrometers) from the linear head."""
    if model.head != LINEAR:
        raise ValueError("predict_regression requires a linear head")
    out = _head_logits(model, frames)[:, 0]
    return float(out[0]) if np.asarray(frames).ndim == 1 else out


def classifier_loss(model: DbnModel, frames, labels) -> float:
    """Mean negative log-likelihood."""
    logits = _head_logits(model, frames)
    y = np.asarray(labels, dtype=np.int64)
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(y)), y]))


def regressor_loss(model: DbnModel, frames, targets) -> float:
    """Mean squared error."""
    pred = _head_logits(model, frames)[:, 0]
    return float(np.mean((pred - np.asarray(targets, dtype=np.float64)) ** 2))


def batch_gradient(model: DbnModel, frames, targets) -> np.ndarray:
    """Exact loss gradient for one full batch, via a unit-rate SGD step."""
    theta = model.theta.copy()
    x = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    t = np.asarray(targets, dtype=np.int64 if model.head == SOFTMAX else np.float64)
    _kernels.sgd_epoch(theta, model.sizes_array, x, t, np.arange(x.shape[0]),
                       x.shape[0], 1.0, model.head)
    return model.theta - theta


def _finetune(model: DbnModel, frames, targets, config: TrainConfig,
              rng: np.random.Generator):
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("fine-tuning needs a nonempty 2-D frame matrix")
    if frames.shape[1] != model.n_inputs:
        raise ValueError("frame width does not match the model input size")
    theta = model.theta.copy()
    sizes = model.sizes_array
    history = np.zeros(config.finetune_epochs)
    if model.head == SOFTMAX:
        y = np.asarray(targets, dtype=np.int64)
        if len(y) != len(frames):
            raise ValueError("labels and frames must have equal length")
        if y.min() < 0 or y.max() >= model.n_outputs:
            raise ValueError("class label out of range")
    else:
        y = np.asarray(targets, dtype=np.float64)
        if len(y) != len(frames):
            raise ValueError("targets and frames must have equal length")
        if not np.isfinite(y).all():
            raise ValueError("regression targets must be finite")

    # SGD on wear-scale targets is ill-conditioned (optimal head weights grow
    # with the target range), so the linear head trains in target units
    # scaled by a power of two; the scaling round-trips bit-exactly.
    scale = 1.0
    if model.head == LINEAR:
        spread = float(np.std(y))
        if spread > 2.0:
            scale = 2.0 ** int(np.ceil(np.log2(spread)))
    head_w, head_b = _kernels.layer_views(theta, sizes)[-1]
    if scale != 1.0:
        head_w /= scale
        head_b /= scale
        y = y / scale

    for epoch in range(config.finetune_epochs):
        history[epoch] = _kernels.sgd_epoch(theta, sizes, frames, y,
                                            rng.permutation(frames.shape[0]),
                                            config.batch_size, config.learning_rate,
                                            model.head)
        if not np.isfinite(theta).all():
            raise NumericError(f"non-finite parameters at fine-tune epoch {epoch}")
    if scale != 1.0:
        head_w *= scale
        head_b *= scale
        history *= scale * scale
    return DbnModel(model.layer_sizes, model.head, theta), history


def finetune_classifier(model: DbnModel, frames, labels, config: TrainConfig,
                        rng: np.random.Generator):
    """Mini-batch SGD on mean NLL. Returns (model, per-epoch loss)."""
    if model.head != SOFTMAX:
        raise ValueError("finetune_classifier requires a softmax head")
    return _finetune(model, frames, labels, config, rng)


def finetune_regressor(model: DbnModel, frames, targets, config: TrainConfig,
                       rng: np.random.Generator):
    """Mini-batch SGD on mean squared error. Returns (model, per-epoch loss)."""
    if model.head != LINEAR:
        raise ValueError("finetune_regressor requires a linear head")
    return _finetune(model, frames, targets, config, rng)


def train_classifier(frames, labels, layer_sizes, config: TrainConfig, seed: int):
    """Pretrain + fine-tune a classifier end to end from a run seed."""
    stack = pretrain(layer_sizes, frames, config, substream(seed, "pretrain"))
    model = init_model(layer_sizes, SOFTMAX, substream(seed, "init"), rbm_stack=stack)
    rescale_hidden_layers(model, frames)
    return finetune_classifier(model, frames, labels, config, substream(seed, "finetune"))


def train_regressor(frames, targets, layer_sizes, config: TrainConfig, seed: int):
    """Pretrain + fine-tune a scalar regressor end to end from a run seed.

    The head bias starts at the target mean so early residuals are centered;
    SGD at wear-scale targets diverges otherwise.
    """
    stack = pretrain(layer_sizes, frames, config, substream(seed, "pretrain"))
    model = init_model(layer_sizes, LINEAR, substream(seed, "init"), rbm_stack=stack)
    rescale_hidden_layers(model, frames)
    _, head_bias = model.layer(len(model.layer_sizes) - 2)
    head_bias[0] = float(np.mean(targets))
    return finetune_regressor(model, frames, targets, config, substream(seed, "finetune"))
