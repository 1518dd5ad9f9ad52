"""Deep belief network: greedy layer-wise RBM pretraining, then supervised
mini-batch SGD fine-tuning with a softmax or scalar linear head.

Pretraining trains each RBM on the sigmoid hidden probabilities of the one
below it; the learned weights and hidden biases seed the feed-forward
layers, which fine-tune under rectified-linear activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import rbm as rbm_mod
from ._kernels import LINEAR, SOFTMAX
from .errors import NumericError
from .seeding import substream

N_HIDDEN_LAYERS = 3  # "five-layered": input + 3 hidden + output
RESCALE_ROWS = 2000  # frames that set each hidden layer's scale before fine-tuning


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


def preset(name: str) -> TrainConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def gather(a, rows):
    """The rows of `a` that the index array `rows` names, in its order, as
    a new array; `a` itself when `rows` is None."""
    return a if rows is None else a[rows]


def draw_hidden_sizes(config: TrainConfig, rng: np.random.Generator) -> tuple:
    """N_HIDDEN_LAYERS hidden layer widths drawn uniformly from the config's range."""
    lo, hi = config.hidden_range
    return tuple(int(v) for v in rng.integers(lo, hi + 1, size=N_HIDDEN_LAYERS))


@dataclass(frozen=True)
class DbnModel:
    """Feed-forward network with packed parameters.

    layer_sizes runs input, hidden..., output; `theta` stores each affine
    layer as W then b, concatenated, in float32 or float64 (see
    `_kernels.as_float_array`). Hidden layers are rectified-linear; the
    head is softmax (classifier) or identity (scalar regressor).
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
        theta = _kernels.as_float_array(self.theta)
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
    The model takes the stack's dtype; float64 without a stack.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    dtype = rbm_stack[0].weights.dtype if rbm_stack else np.float64
    theta = np.zeros(_kernels.theta_size(sizes), dtype=dtype)
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


def rescale_hidden_layers(model: DbnModel, frames, rows=None) -> None:
    """Scale each hidden layer to unit mean active preactivation over the
    first RESCALE_ROWS frames (of `frames[rows]`, given `rows`), in place.

    Rectified-linear layers are positively homogeneous, so per-layer
    positive rescaling leaves the representable function family unchanged;
    it only keeps activations at O(1) so SGD sees usable gradients. The
    sigmoid-unit pretraining otherwise leaves deep unrolled activations
    orders of magnitude too small.
    """
    a = _kernels.as_float_array(frames)
    a = a[:RESCALE_ROWS] if rows is None else a[rows[:RESCALE_ROWS]]
    for l in range(len(model.layer_sizes) - 2):
        W, b = model.layer(l)
        pre = a @ W + b
        pos = pre[pre > 0]
        if pos.size:
            c = 1.0 / pos.mean()
            W *= c
            b *= c
        a = np.maximum(a @ W + b, 0.0)


def pretrain(layer_sizes, frames, config: TrainConfig, rng: np.random.Generator,
             rows=None):
    """Greedy layer-wise pretraining of the hidden-layer RBM stack.

    Each RBM trains on the sigmoid hidden probabilities of its predecessor;
    raw frames (already in [0, 1]) feed the first. Given `rows`, the
    frames are `frames[rows]`: the first RBM trains through the index
    array, and its visible mean and hidden probabilities, which need every
    row at once, are taken over a gather that lasts only as long as each.
    Returns the RBM list, in the frames' dtype.
    """
    frames = _kernels.as_float_array(frames)
    if frames.ndim != 2 or (len(frames) if rows is None else len(rows)) == 0:
        raise ValueError("pretraining needs a nonempty 2-D frame matrix")
    sizes = tuple(int(s) for s in layer_sizes)
    stack = []
    rep = frames
    for l in range(len(sizes) - 2):
        params = rbm_mod.init_params(sizes[l], sizes[l + 1], rng,
                                     visible_mean=gather(rep, rows).mean(axis=0))
        params, _ = rbm_mod.train_rbm(params, rep, config, rng, rows=rows)
        stack.append(params)
        rep, rows = rbm_mod.prob_h_given_v(params, gather(rep, rows)), None
    return stack


def forward(model: DbnModel, frames):
    """Deterministic pass: (list of hidden activations, head input).

    Accepts a single frame or a batch; hidden layers are affine + ReLU.
    The arithmetic runs in the wider of the frames' and the model's dtype.
    """
    x = np.atleast_2d(_kernels.as_float_array(frames))
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
    x = np.atleast_2d(_kernels.as_float_array(frames))
    t = np.asarray(targets, dtype=np.int64 if model.head == SOFTMAX else x.dtype)
    _kernels.sgd_epoch(theta, model.sizes_array, x, t, np.arange(x.shape[0]),
                       x.shape[0], 1.0, model.head)
    return model.theta - theta


def _gram_pays(n_rows: int, n_inputs: int, first_width: int, epochs: int) -> bool:
    """Whether `epochs` of SGD on `n_rows` frames of `n_inputs` values take
    the Gram form of a first layer `first_width` units wide: true when its
    multiply-adds, n_rows**2 * n_inputs for the Gram matrix,
    epochs * n_rows**2 * first_width for the epochs and
    2 * n_rows * n_inputs * first_width for the first products and the
    closing update, come to under half of the direct form's
    2 * epochs * n_rows * n_inputs * first_width. That needs n_rows < n_inputs."""
    gram = (n_rows * n_rows * (n_inputs + epochs * first_width)
            + 2 * n_rows * n_inputs * first_width)
    direct = 2 * epochs * n_rows * n_inputs * first_width
    return 2 * gram < direct


def _finetune(model: DbnModel, frames, targets, config: TrainConfig,
              rng: np.random.Generator, rows=None):
    """SGD on the rows of `frames` and `targets`, or, given the index array
    `rows`, on those rows, with the bytes of training on `frames[rows]` and
    `targets[rows]`: each epoch's batches gather their rows through
    `rows[rng.permutation(len(rows))]`. Training runs in the frames' dtype,
    float32 or float64; the model's parameters and a linear head's targets
    are cast to it.

    When `_gram_pays` says so, which needs fewer rows than inputs, the first
    layer trains in Gram form (`_kernels.sgd_epoch`): the training rows are
    gathered once, their Gram matrix and first-layer products taken, and
    the first layer's weights written once, after the last epoch. That is
    the same SGD up to rounding, with the same permutations drawn.
    Non-finite parameters, or Gram coefficients, after an epoch raise a
    NumericError naming it."""
    frames = _kernels.as_float_array(frames)
    if frames.ndim != 2 or (n := len(frames) if rows is None else len(rows)) == 0:
        raise ValueError("fine-tuning needs a nonempty 2-D frame matrix")
    if frames.shape[1] != model.n_inputs:
        raise ValueError("frame width does not match the model input size")
    theta = model.theta.astype(frames.dtype)
    sizes = model.sizes_array
    history = np.zeros(config.finetune_epochs)
    y = np.asarray(targets, dtype=np.int64 if model.head == SOFTMAX else np.float64)
    if len(y) != len(frames):
        raise ValueError("targets and frames must have equal length")
    seen = gather(y, rows)
    if model.head == SOFTMAX and (seen.min() < 0 or seen.max() >= model.n_outputs):
        raise ValueError("class label out of range")
    if model.head == LINEAR and not np.isfinite(seen).all():
        raise ValueError("regression targets must be finite")

    # SGD on wear-scale targets is ill-conditioned (optimal head weights grow
    # with the target range), so the linear head trains in target units
    # scaled by a power of two; the scaling round-trips bit-exactly.
    scale = 1.0
    if model.head == LINEAR:
        spread = float(np.std(seen))
        if spread > 2.0:
            scale = 2.0 ** int(np.ceil(np.log2(spread)))
    head_w, head_b = _kernels.layer_views(theta, sizes)[-1]
    if scale != 1.0:
        head_w /= scale
        head_b /= scale
        y = y / scale
    if model.head == LINEAR:
        y = y.astype(frames.dtype, copy=False)

    gram = None
    if _gram_pays(n, *model.layer_sizes[:2], config.finetune_epochs):
        # the training rows alone from here on: the batches index them, and
        # the Gram form's K, P0 and C, by position
        frames, y, rows = gather(frames, rows), gather(y, rows), None
        first_w = _kernels.layer_views(theta, sizes)[0][0]
        gram = (frames @ frames.T, frames @ first_w,
                np.zeros((n, sizes[1]), dtype=frames.dtype))
    for epoch in range(config.finetune_epochs):
        order = rng.permutation(n)
        if rows is not None:
            order = rows[order]
        history[epoch] = _kernels.sgd_epoch(theta, sizes, frames, y, order,
                                            config.batch_size, config.learning_rate,
                                            model.head, gram)
        if not (np.isfinite(theta).all() and (gram is None or np.isfinite(gram[2]).all())):
            raise NumericError(f"non-finite parameters at fine-tune epoch {epoch}")
    if gram is not None:
        first_w += frames.T @ gram[2]
        if not np.isfinite(first_w).all():
            raise NumericError("non-finite parameters at fine-tune epoch "
                               f"{config.finetune_epochs - 1}")
    if scale != 1.0:
        head_w *= scale
        head_b *= scale
        history *= scale * scale
    return DbnModel(model.layer_sizes, model.head, theta), history


def finetune_classifier(model: DbnModel, frames, labels, config: TrainConfig,
                        rng: np.random.Generator, rows=None):
    """Mini-batch SGD on mean NLL (on `rows`, see `_finetune`).
    Returns (model, per-epoch loss)."""
    if model.head != SOFTMAX:
        raise ValueError("finetune_classifier requires a softmax head")
    return _finetune(model, frames, labels, config, rng, rows)


def finetune_regressor(model: DbnModel, frames, targets, config: TrainConfig,
                       rng: np.random.Generator, rows=None):
    """Mini-batch SGD on mean squared error (on `rows`, see `_finetune`).
    Returns (model, per-epoch loss)."""
    if model.head != LINEAR:
        raise ValueError("finetune_regressor requires a linear head")
    return _finetune(model, frames, targets, config, rng, rows)


def train_network(frames, targets, layer_sizes, head: str, config: TrainConfig, seed: int,
                  rows=None):
    """Pretrain + fine-tune a classifier (softmax head, class labels as
    targets) or a scalar regressor (linear head) end to end from a run
    seed; given the index array `rows`, on those rows of `frames` and
    `targets`, with the bytes of training on `frames[rows]` and
    `targets[rows]`. Returns (model, per-epoch loss).

    A linear head's bias starts at the target mean so early residuals are
    centered; SGD at wear-scale targets diverges otherwise.
    """
    stack = pretrain(layer_sizes, frames, config, substream(seed, "pretrain"), rows)
    model = init_model(layer_sizes, head, substream(seed, "init"), rbm_stack=stack)
    rescale_hidden_layers(model, frames, rows)
    if head == LINEAR:
        _, head_bias = model.layer(len(model.layer_sizes) - 2)
        head_bias[0] = float(np.mean(gather(np.asarray(targets), rows)))
    # looked up by name at each call, so a wrapper installed on the module runs
    finetune = finetune_classifier if head == SOFTMAX else finetune_regressor
    return finetune(model, frames, targets, config, substream(seed, "finetune"), rows)
