"""Multi-state pipeline: a cost-sensitive classifier diagnoses the tool
state of each frame, which routes it to a state-specific wear regressor;
a trailing moving average optionally smooths the estimate stream.

Per-state regressors train on true state labels; at inference, routing
follows the predicted state, so diagnosis errors propagate into the wear
estimate (posteriors are returned for auditing). States too sparse to
train a dedicated regressor route to a fallback trained on all frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dbn
from .adaptive_de import DeConfig, evolve
from .cost_sensitive import CostVector, predict_cs
from .errors import DataError, NumericError
from .fanout import map_forked
from .signal_pipeline import FrameDataset, N_STATES
from .seeding import substream

MIN_STATE_SAMPLES = 50
DEFAULT_SMOOTHING_WINDOW = 50


@dataclass(frozen=True)
class EcsDbnModel:
    """Classifier DBN whose decisions are reweighted by evolved costs."""

    base: dbn.DbnModel
    costs: CostVector

    def __post_init__(self):
        if self.base.head != dbn.SOFTMAX:
            raise ValueError("diagnoser base must have a softmax head")
        if len(self.costs) != self.base.n_outputs:
            raise ValueError("cost vector length must equal the class count")


@dataclass(frozen=True)
class MultiStateModel:
    """Diagnoser plus per-state regressors with a fallback route."""

    diagnoser: EcsDbnModel
    regressors: dict
    fallback: dbn.DbnModel
    smoothing_window: int | None = DEFAULT_SMOOTHING_WINDOW
    sticky_steps: int = 1

    def __post_init__(self):
        for state, reg in self.regressors.items():
            if not 0 <= state < self.diagnoser.base.n_outputs:
                raise ValueError(f"route for unknown state {state}")
            if reg.head != dbn.LINEAR:
                raise ValueError("regressors must have linear heads")
        if self.fallback.head != dbn.LINEAR:
            raise ValueError("fallback must have a linear head")
        if self.smoothing_window is not None and self.smoothing_window < 1:
            raise ValueError("smoothing window must be >= 1")
        if self.sticky_steps < 1:
            raise ValueError("sticky_steps must be >= 1")

    def regressor_for(self, state: int) -> dbn.DbnModel:
        return self.regressors.get(int(state), self.fallback)


def smooth(series, window: int) -> np.ndarray:
    """Trailing moving average: out[t] = mean(series[max(0, t-w+1) .. t])."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(series, dtype=np.float64)
    if window == 1 or x.size == 0:
        return x.copy()
    csum = np.concatenate([[0.0], np.cumsum(x)])
    t = np.arange(len(x))
    lo = np.maximum(t - window + 1, 0)
    return (csum[t + 1] - csum[lo]) / (t + 1 - lo)


def diagnose(model, frames):
    """Cost-sensitive state decision(s) plus the raw posteriors for audit.

    Accepts an EcsDbnModel or a MultiStateModel, and a single frame or a
    batch.
    """
    ecs = model.diagnoser if isinstance(model, MultiStateModel) else model
    posteriors = dbn.predict_proba(ecs.base, frames)
    return predict_cs(posteriors, ecs.costs), posteriors


def _apply_sticky(states: np.ndarray, m: int) -> np.ndarray:
    """Hold the current state until m consecutive diagnoses agree."""
    if m <= 1 or len(states) == 0:
        return states
    out = states.copy()
    current = states[0]
    streak = 0
    candidate = current
    for i in range(len(states)):
        if states[i] == current:
            streak = 0
        elif states[i] == candidate:
            streak += 1
            if streak >= m:
                current = candidate
                streak = 0
        else:
            candidate = states[i]
            streak = 1
        out[i] = current
    return out


def _check_finite(what: str, values: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(values))  # row-major: the first row is the first frame
    if len(bad):
        raise NumericError(f"non-finite {what} at frame {int(bad[0, 0])}")


def estimate_wear_detailed(model: MultiStateModel, frames):
    """Per-frame diagnosis and wear estimate over a time-ordered batch.

    Returns (states, posteriors, raw_wear, smoothed_wear); smoothing is the
    trailing mean (identity when the window is 1 or unset), so estimates at
    time t never look past t. Raises NumericError, naming the first bad
    frame, when a posterior or a raw wear estimate is not finite. The
    networks run in the frames' dtype (see `dbn.forward`); the raw and
    smoothed wear are float64.
    """
    frames = np.atleast_2d(np.asarray(frames))
    states, posteriors = diagnose(model, frames)
    _check_finite("state posteriors", posteriors)
    states = np.atleast_1d(states)
    if model.sticky_steps > 1:
        states = _apply_sticky(states, model.sticky_steps)
    raw = np.empty(len(frames))
    for state in np.unique(states):
        idx = np.nonzero(states == state)[0]
        raw[idx] = dbn.predict_regression(model.regressor_for(state), frames[idx])
    _check_finite("wear estimate", raw)
    window = model.smoothing_window or 1
    return states, posteriors, raw, smooth(raw, window)


def estimate_wear(model: MultiStateModel, frames) -> np.ndarray:
    """Wear series (micrometers) for time-ordered frames, smoothed when
    the model carries a smoothing window."""
    return estimate_wear_detailed(model, frames)[3]


@dataclass(frozen=True)
class MdpTrainConfig:
    """Bundle of the sub-model training configurations."""

    classifier: dbn.TrainConfig = field(default_factory=lambda: dbn.PRESETS["diagnosis-default"])
    regressor: dbn.TrainConfig = field(default_factory=lambda: dbn.PRESETS["prognosis-default"])
    de: DeConfig = field(default_factory=DeConfig)
    min_state_samples: int = MIN_STATE_SAMPLES
    smoothing_window: int | None = DEFAULT_SMOOTHING_WINDOW
    sticky_steps: int = 1  # >1 holds the routed state until m agreeing diagnoses

    def __post_init__(self):
        # checked before any training, in the words of MultiStateModel
        if self.smoothing_window is not None and self.smoothing_window < 1:
            raise ValueError("smoothing window must be >= 1")
        if self.sticky_steps < 1:
            raise ValueError("sticky_steps must be >= 1")
        if self.min_state_samples < 1:
            raise ValueError("min_state_samples must be >= 1")


def layer_sizes(config: MdpTrainConfig, n_in: int, seed: int):
    """(classifier sizes, regressor sizes) of the networks trained with this seed."""
    hidden = dbn.draw_hidden_sizes(config.classifier, substream(seed, "arch-clf"))
    reg_hidden = dbn.draw_hidden_sizes(config.regressor, substream(seed, "arch-reg"))
    return (n_in,) + hidden + (N_STATES,), (n_in,) + reg_hidden + (1,)


def state_rows(train_set: FrameDataset, state: int, rows=None) -> np.ndarray:
    """The indices of the rows of `train_set`, or of its `rows`, whose
    frames are labelled `state`, in order."""
    idx = np.nonzero(dbn.gather(train_set.state_labels, rows) == state)[0]
    return idx if rows is None else rows[idx]


# Every trainer below trains on the frames of `train_set`, or, given the
# index array `rows`, on those of its rows, with the bytes of training on
# `train_set.subset(rows)` and without that copy (see `dbn.train_network`).

def train_state_classifier(train_set: FrameDataset, config: MdpTrainConfig, seed: int,
                           rows=None):
    """The state classifier, before any cost search: (DbnModel, losses)."""
    sizes = layer_sizes(config, train_set.n_features, seed)[0]
    return dbn.train_network(train_set.frames, train_set.state_labels, sizes, dbn.SOFTMAX,
                             config.classifier, seed, rows)


def train_diagnoser(train_set: FrameDataset, config: MdpTrainConfig, seed: int,
                    rows=None):
    """The state classifier and its costs, evolved by DE seeded from `seed`:
    (EcsDbnModel, losses, DE history)."""
    clf, losses = train_state_classifier(train_set, config, seed, rows)
    costs, de_history = evolve(clf, dbn.gather(train_set.frames, rows),
                               dbn.gather(train_set.state_labels, rows), config.de,
                               substream(seed, "de"))
    return EcsDbnModel(clf, costs), losses, de_history


def train_wear_regressor(train_set: FrameDataset, config: MdpTrainConfig, seed: int,
                         state: int | None = None, rows=None):
    """The fallback wear regressor on every frame, or, given a state, that
    state's regressor on its frames, seeded `seed + 1000 + state`:
    (DbnModel, losses)."""
    sizes = layer_sizes(config, train_set.n_features, seed)[1]
    if state is not None:
        rows, seed = state_rows(train_set, state, rows), seed + 1000 + state
    return dbn.train_network(train_set.frames, train_set.wear_targets, sizes, dbn.LINEAR,
                             config.regressor, seed, rows)


def train_mdp(train_set: FrameDataset, config: MdpTrainConfig, seed: int,
              log=None, workers: int = 1, rows=None):
    """Train the full pipeline on one dataset (or on its `rows`, see above).

    Trains the classifier, evolves its misclassification costs on the
    training posteriors, then fits one wear regressor per state with at
    least `min_state_samples` frames (true labels) plus a fallback
    regressor on everything. Returns (MultiStateModel, history) where
    history carries the DE trace and per-submodel fine-tune losses.

    The diagnoser and the regressors depend on none of each other, so up
    to `workers` forked processes train them (`fanout.map_forked`). Each
    worker runs BLAS on one thread, and so does the CLI's own process, so
    the log lines, routes and weights are the same for any count. A
    library caller that trains in turn on more BLAS threads (at 20 kHz)
    may get other last bits; `fanout.pin_blas_to_one_thread` avoids that.
    """
    labels = dbn.gather(train_set.state_labels, rows)
    if len(labels) == 0:
        raise DataError("empty training set")
    say = log if log is not None else (lambda msg: None)

    clf_sizes, reg_sizes = layer_sizes(config, train_set.n_features, seed)
    counts = np.bincount(labels, minlength=N_STATES)
    jobs = [partial(train_diagnoser, train_set, config, seed, rows=rows),
            partial(train_wear_regressor, train_set, config, seed, rows=rows)]
    jobs += [partial(train_wear_regressor, train_set, config, seed, state, rows=rows)
             for state, count in enumerate(counts) if count >= config.min_state_samples]

    say(f"training diagnoser {clf_sizes}")
    results = map_forked(lambda job: job(), jobs, workers)
    losses = {}
    diagnoser, losses["classifier"], de_history = next(results)
    say(f"evolved costs {np.array2string(diagnoser.costs.costs, precision=3)}")
    say(f"training fallback regressor {reg_sizes}")
    fallback, losses["fallback"] = next(results)
    regressors = {}
    for state, count in enumerate(counts):
        if count < config.min_state_samples:
            say(f"state {state}: {count} frames < {config.min_state_samples}, "
                "routing to fallback")
            continue
        say(f"training state-{state} regressor on {count} frames")
        regressors[state], losses[f"state{state}"] = next(results)

    model = MultiStateModel(diagnoser, regressors, fallback,
                            smoothing_window=config.smoothing_window,
                            sticky_steps=config.sticky_steps)
    return model, {"de": de_history, "loss": losses}
