"""Command-line surface for offline experiments.

Commands: generate, train, evaluate, predict, ablate-sensors,
compare-frameworks. Every option can come from a flat `key = value`
config file (--config); flags override file values, which override
preset defaults. Unknown config keys are rejected.

Exit codes: 0 success, 1 usage, 2 data error (running out of memory
included), 3 numeric failure.
Every process that runs a command runs BLAS on one thread. Forked workers
run the trials of --trials, the sub-models of a multistate train and the
runs of a large enough `generate`; MDP_TCM_THREADS caps their count
(unset: the usable cores; 1: everything in turn). There is one level of
workers: the trials' own trains run in turn. So the bytes a command
writes do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import dbn
from .adaptive_de import DeConfig
from .errors import DataError, NumericError
from .experiments import FRAMEWORKS, framework_trial, sensor_subset_trial, window_spec_for
from .fanout import map_forked, pin_blas_to_one_thread, usable_cores
from .metrics import (REPORT_KEYS, MetricsReport, classification_report,
                      regression_report)
from .model_io import (KIND_CLASSIFIER, KIND_ECS, KIND_MULTISTATE,
                       KIND_REGRESSOR, load_model, model_kind, read_model_header,
                       save_model)
from .multistate import (EcsDbnModel, MdpTrainConfig, MultiStateModel, diagnose,
                         estimate_wear_detailed, train_diagnoser, train_mdp,
                         train_state_classifier, train_wear_regressor)
from .signal_pipeline import (FrameDataset, N_STATES, WindowSpec, frame_ends,
                              label_states, open_run_csv, window_runs, write_csv)
# unused: perfbench's instrumentation test expects `cli.load_run_csv` (ROADMAP item 1)
from .signal_pipeline import load_run_csv  # noqa: F401
from .synth import (SynthConfig, generate_fleet, read_run_meta,
                    write_run_csv, write_run_meta)
from .seeding import substream

_REQUIRED = object()

# the tables the CLI writes beside an output stem; `_load_runs` skips them,
# so they may share a directory with the run CSVs
_REPORT, _TRIALS, _FINETUNE_LOSS, _DE_HISTORY, _FRAMEWORKS, _SENSOR_ABLATION = \
    _TABLE_SUFFIXES = (".report.csv", ".trials.csv", ".finetune_loss.csv",
                       ".de_history.csv", ".frameworks.csv", ".sensor_ablation.csv")

# the header line of a `predict` table; `_load_runs` skips a CSV that starts
# with it, since `predict --out` may name any file
_PREDICTION_HEADER = (("frame_index", "diagnosed_state")
                      + tuple(f"posterior_{k}" for k in range(N_STATES))
                      + ("wear_estimate_um", "wear_smoothed_um"))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _opt_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _opt_float(text: str) -> float:
    """A finite number; for any other text, argparse's usage error names the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _opt_rate(text: str) -> float:
    """A finite number >= 0, such as a learning rate."""
    value = _opt_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a number >= 0: {text!r}")
    return value


def _opt_positive(text: str) -> float:
    """A finite number > 0, such as a spindle speed or a sampling rate."""
    value = _opt_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"not a number > 0: {text!r}")
    return value


def _opt_int(lo: int):
    """The option type of an integer >= `lo`: for any other text, argparse's
    usage error names the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(f"not an integer >= {lo}: {text!r}")
        return value
    return parse


def _opt_range(text: str) -> tuple:
    """A hidden width interval `lo,hi` with 1 <= lo <= hi."""
    try:
        lo, hi = (int(p) for p in text.split(","))
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"not an interval lo,hi with 1 <= lo <= hi: "
                                         f"{text!r}")
    return lo, hi


# (name, type, default, help); default _REQUIRED must be supplied,
# default None means "derived later"
_COMMON_TRAIN_OPTS = [
    ("preset", str, None, "training preset: diagnosis-default | prognosis-default"),
    ("pretrain-epochs", _opt_int(0), None, "CD pretraining epochs"),
    ("finetune-epochs", _opt_int(0), None, "SGD fine-tuning epochs"),
    ("learning-rate", _opt_rate, None, "learning rate for pretraining and fine-tuning"),
    ("regressor-learning-rate", _opt_rate, None, "override for the wear regressors"),
    ("batch-size", _opt_int(1), None, "mini-batch size"),
    ("hidden-range", _opt_range, None, "hidden width interval, e.g. 5,60"),
    ("stride", _opt_int(1), None, "window stride in samples (default: one window)"),
    ("train-ratio", _opt_float, 0.85, "train fraction of the split"),
    ("split-mode", str, "run", "run, the only mode: held-out data is whole runs"),
]

# options of the commands that train the multistate pipeline
_MDP_OPTS = [
    ("classifier-learning-rate", _opt_rate, None, "override for the state classifier"),
    ("smoothing-window", _opt_int(0), 50, "trailing smoothing window (multistate)"),
    ("sticky-steps", _opt_int(1), 1, "diagnoses needed to switch the routed state"),
    ("min-state-samples", _opt_int(1), 50, "frames needed for a dedicated regressor"),
    ("de-population", _opt_int(4), 30, "DE population size"),
    ("de-generations", _opt_int(0), 50, "DE generations"),
]

COMMANDS = {
    "generate": [
        ("out", str, _REQUIRED, "output directory"),
        ("runs", _opt_int(1), 1, "number of runs to generate"),
        ("seed", int, 0, "base seed"),
        ("desk-scale", _opt_bool, False, "sample at 200 Hz instead of 20 kHz"),
        ("rpm", _opt_float, 1650.0, "spindle speed"),
        ("run-seconds", _opt_float, 120.0, "run length"),
        ("skew", _opt_float, 10.0, "state dwell-time imbalance ratio"),
        ("wear-end", _opt_float, 400.0, "end-of-life wear in micrometers"),
        ("noise-std", _opt_float, None, "override all channel noise levels"),
        ("noise-scale", _opt_float, 1.0, "multiplier on the per-channel noise levels"),
        ("band-frac", _opt_float, 0.5, "fraction of wear coupling via channel sub-bands"),
    ],
    "train": [
        ("data", str, _REQUIRED, "directory of run CSVs"),
        ("out", str, _REQUIRED, "model file to write"),
        ("kind", str, "multistate",
         "multistate | ecs-dbn | dbn-classifier | dbn-regressor"),
        ("seed", int, 0, "run seed"),
    ] + _MDP_OPTS + _COMMON_TRAIN_OPTS,
    "evaluate": [
        ("data", str, _REQUIRED, "directory of run CSVs"),
        ("out", str, _REQUIRED, "output prefix for report files"),
        ("model", str, None, "model file (omit when using --trials)"),
        ("channels", str, "all", "comma-separated channel subset"),
        ("holdout", _opt_bool, False, "evaluate only the held-out split"),
        ("trials", _opt_int(1), 1, "repeated seeded train+evaluate trials"),
        ("kind", str, "multistate", "model kind for --trials"),
        ("seed", int, 0, "run seed"),
    ] + _MDP_OPTS + _COMMON_TRAIN_OPTS,
    "predict": [
        ("model", str, _REQUIRED, "multistate model file"),
        ("run", str, _REQUIRED, "run CSV to predict on"),
        ("out", str, _REQUIRED, "prediction CSV to write"),
        ("rpm", _opt_positive, None, "spindle rpm (default: run sidecar)"),
        ("rate", _opt_positive, None, "sampling rate Hz (default: run sidecar)"),
        ("stride", _opt_int(1), None, "window stride in samples"),
    ],
    "ablate-sensors": [
        ("data", str, _REQUIRED, "directory of run CSVs"),
        ("out", str, _REQUIRED, "output prefix"),
        ("subsets", str, "force;torque;vibration;force,torque;all",
         "semicolon-separated channel subsets"),
        ("trials", _opt_int(1), 1, "seeded trials"),
        ("seed", int, 0, "base seed"),
    ] + _COMMON_TRAIN_OPTS,
    "compare-frameworks": [
        ("data", str, _REQUIRED, "directory of run CSVs"),
        ("out", str, _REQUIRED, "output prefix"),
        ("trials", _opt_int(1), 1, "seeded trials"),
        ("seed", int, 0, "base seed"),
    ] + _MDP_OPTS + _COMMON_TRAIN_OPTS,
}


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; `#` starts a comment."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (p.strip() for p in line.split("=", 1))
        values[key] = value
    return values


class RunConfig:
    """Resolved options for one command: flag > file > default."""

    def __init__(self, command: str, args: argparse.Namespace, file_values: dict):
        spec = {name: (typ, default) for name, typ, default, _ in COMMANDS[command]}
        unknown = set(file_values) - set(spec)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        self.command = command
        self._values = {}
        for name, (typ, default) in spec.items():
            flag_val = getattr(args, name.replace("-", "_"))
            if flag_val is not None:
                self._values[name] = flag_val
            elif name in file_values:
                try:
                    self._values[name] = typ(file_values[name])
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise UsageError(f"config key {name}: {exc}") from None
            elif default is _REQUIRED:
                raise UsageError(f"missing required option --{name}")
            else:
                self._values[name] = default
        if self._values.get("split-mode", "run") != "run":
            raise UsageError(f"--split-mode {self['split-mode']!r}: held-out data is split "
                             "by whole runs, and 'run' is the only mode")

    def __getitem__(self, name: str):
        return self._values[name]


def _train_config(cfg: RunConfig, default_preset: str,
                  role: str | None = None) -> dbn.TrainConfig:
    base = dbn.preset(cfg["preset"] or default_preset)
    overrides = {}
    for key, attr in (("pretrain-epochs", "pretrain_epochs"),
                      ("finetune-epochs", "finetune_epochs"),
                      ("learning-rate", "learning_rate"),
                      ("batch-size", "batch_size"),
                      ("hidden-range", "hidden_range")):
        if cfg[key] is not None:
            overrides[attr] = cfg[key]
    if role is not None and cfg[f"{role}-learning-rate"] is not None:
        overrides["learning_rate"] = cfg[f"{role}-learning-rate"]
    return replace(base, **overrides)


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or of `command` alone when one is
    named: each parser and option costs a formatter, so a call builds
    only its own."""
    parser = _Parser(prog="mdp-tcm",
                     description="Tool-condition monitoring: multi-state "
                                 "diagnosis and wear prognosis experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file")
        for opt, typ, default, help_text in opts:
            if typ is _opt_bool:
                p.add_argument(f"--{opt}", type=_opt_bool, default=None,
                               nargs="?", const=True, help=help_text)
            else:
                p.add_argument(f"--{opt}", type=typ, default=None, help=help_text)
    return parser


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------

def _sidecar_number(meta: dict, key: str, path) -> float:
    """The positive finite number a run sidecar holds under `key`."""
    if key not in meta:
        raise DataError(f"sidecar {path} lacks key {key!r}")
    try:
        value = float(meta[key])
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise DataError(f"sidecar {path}: key {key!r} holds {meta[key]!r}, "
                        "not a positive number")
    return value


def _is_prediction_table(path: Path) -> bool:
    # compared as bytes: a run that is not UTF-8 fails in load_run_csv, which names it
    with open(path, "rb") as fh:
        return fh.readline().rstrip(b"\r\n") == ",".join(_PREDICTION_HEADER).encode()


def _run_files(data_dir: str) -> list:
    """The run CSVs of a directory, in name order."""
    files = [f for f in sorted(Path(data_dir).glob("*.csv"))
             if not f.name.endswith(_TABLE_SUFFIXES) and not _is_prediction_table(f)]
    if not files:
        raise DataError(f"no run CSVs found in {data_dir}")
    return files


def _load_runs(data_dir: str, stride: int | None, keep=None):
    """`window_runs` of the run CSVs + sidecars of a directory, in the order
    of `_run_files`: (pool, bounds). Given `keep`, run indices into that
    order, only those runs are read, in that order. Every run is opened
    first (`open_run_csv`: one hash of its CSV, or its parse on a first
    read), which checks it and gives its frame count."""
    with contextlib.ExitStack() as stack:
        def opened():
            for f in _run_files(data_dir):
                meta_path = f.with_suffix(".meta")
                if not meta_path.exists():
                    raise DataError(f"missing sidecar {meta_path}")
                meta = read_run_meta(meta_path)
                spec = WindowSpec(
                    spindle_rpm=_sidecar_number(meta, "spindle_rpm", meta_path),
                    sampling_rate_hz=_sidecar_number(meta, "sampling_rate_hz", meta_path),
                    stride=stride)
                yield stack.enter_context(open_run_csv(f)), spec

        return window_runs(opened(), keep)


def _check_frame_width(model, model_path, ds: FrameDataset, run_path) -> None:
    """A data error naming both files when the run's frames do not fit the model."""
    net = model.diagnoser if isinstance(model, MultiStateModel) else model
    net = net.base if isinstance(net, EcsDbnModel) else net
    if ds.n_features != net.n_inputs:
        raise DataError(f"model {model_path} takes frames of {net.n_inputs} values, "
                        f"but run {run_path} gives frames of {ds.n_features}")


def _check_trained_on(model_path, seed: int, n_pool_frames: int) -> None:
    """A data error unless the training echo in the model's header shows that it was
    trained with `seed` on a pool of `n_pool_frames` frames: the training
    pool of the split whose held-out runs `evaluate --holdout` scores."""
    with open(model_path, "rb") as fh:
        config = read_model_header(fh, model_path)[0]
    echo = (config.get("train.seed"), config.get("train.n_train_frames"))
    if None in echo:
        raise DataError(f"model {model_path} does not record the seed and frame count "
                        "it was trained with, so --holdout cannot tell its held-out "
                        "runs from its training runs")
    if echo[0] != str(seed):
        raise DataError(f"model {model_path} was trained with seed {echo[0]}, but "
                        f"--holdout splits the runs with --seed {seed}")
    if echo[1] != str(n_pool_frames):
        raise DataError(f"model {model_path} was trained on {echo[1]} frames, but the "
                        f"training runs of this split hold {n_pool_frames}")


def _split_indices(n_runs: int, ratio: float, seed: int):
    """(training run indices, held-out run indices): a seeded split of whole runs."""
    if not 0.0 < ratio < 1.0:
        raise UsageError(f"--train-ratio must lie in (0, 1), not {ratio}")
    if n_runs < 2:
        raise DataError(f"a split of whole runs needs at least 2 runs; got {n_runs}")
    order = substream(seed, "split").permutation(n_runs)
    n_train = min(int(math.ceil(ratio * n_runs)), n_runs - 1)
    return order[:n_train], order[n_train:]


def _split_runs(bounds, ratio: float, seed: int):
    """(training rows, held-out bounds): a seeded split of whole runs, given
    by their (start, stop) rows in one pool (`_load_runs`). The training
    rows index the pool's frames of the training runs, run after run in
    split order."""
    train, held = _split_indices(len(bounds), ratio, seed)
    return _rows([bounds[i] for i in train]), [bounds[i] for i in held]


def _rows(bounds) -> np.ndarray:
    """The pool rows of the runs whose (start, stop) rows `bounds` gives, in turn."""
    return np.concatenate([np.arange(start, stop) for start, stop in bounds])


def _runs(pool: FrameDataset, bounds) -> list:
    """The dataset of each run whose rows `bounds` gives: a row-slice view of `pool`."""
    return [pool.subset(slice(start, stop)) for start, stop in bounds]


def _worker_count(n_items: int) -> int:
    """MDP_TCM_THREADS (unset or empty: the usable cores), capped at the
    item count and the usable cores."""
    text = os.environ.get("MDP_TCM_THREADS", "").strip() or str(usable_cores())
    if not text.isdecimal() or int(text) < 1:
        raise UsageError(f"MDP_TCM_THREADS must be a positive integer, not {text!r}")
    return min(int(text), n_items, usable_cores())


def _run_trials(cfg: RunConfig, pool: FrameDataset, bounds, trial) -> list:
    """`trial(pool, train_rows, held_bounds, seed)` for the --trials seeds
    from --seed on, each on its own split of the runs (`_split_runs`); the
    results in seed order."""
    seeds = [cfg["seed"] + i for i in range(cfg["trials"])]

    def one(seed: int):
        rows, held = _split_runs(bounds, cfg["train-ratio"], seed)
        return trial(pool, rows, held, seed)

    return list(map_forked(one, seeds, _worker_count(len(seeds))))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_run(run, stem: Path, ends: np.ndarray, created: str) -> np.ndarray:
    """Write a run's CSV and sidecar; the frames per state that
    `build_dataset` would cut from it, counted from the wear at each
    frame's last sample (`ends`, from `frame_ends`) as the run's rows are
    written."""
    wear = write_run_csv(run, stem.with_suffix(".csv"), wear_at=ends)
    write_run_meta(run, stem.with_suffix(".meta"), created=created)
    return np.bincount(label_states(wear), minlength=N_STATES)


# `generate` writes its runs in forked workers when they hold at least this
# many samples in all (runs x samples per run); below it, starting the
# workers costs more than they save
_GENERATE_FANOUT_SAMPLES = 100_000

# the `generate` flag that sets each SynthConfig field
_SYNTH_FLAGS = {"spindle_rpm": "rpm", "run_seconds": "run-seconds", "wear_end_um": "wear-end",
                "imbalance_skew": "skew", "noise_std": "noise-std",
                "noise_scale": "noise-scale", "band_frac": "band-frac"}


def cmd_generate(cfg: RunConfig) -> int:
    try:
        synth = SynthConfig(sampling_rate_hz=200.0 if cfg["desk-scale"] else 20000.0,
                            **{name: cfg[flag] for name, flag in _SYNTH_FLAGS.items()})
    except ValueError as exc:
        # SynthConfig's message starts with the field's name: name the flag instead
        name, _, rule = str(exc).partition(" ")
        flag = _SYNTH_FLAGS[name]
        raise UsageError(f"--{flag} {cfg[flag]:g}: {rule}") from None
    # every run has this length: one shorter than a window fails before any is written
    ends = frame_ends(synth.n_samples, window_spec_for(synth))
    runs = range(cfg["runs"])
    workers = (_worker_count(len(runs))
               if len(runs) * synth.n_samples >= _GENERATE_FANOUT_SAMPLES else 1)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    created = datetime.now(timezone.utc).isoformat()

    def write(i: int) -> np.ndarray:
        # one run at a time in each process: a run is made from its own seed
        # (as in a fleet) and written a row block at a time, its frames
        # counted as its rows pass
        return _write_run(generate_fleet(synth, 1, cfg["seed"] + i)[0],
                          out / f"run{i:03d}", ends, created)

    counts = sum(map_forked(write, runs, workers), np.zeros(N_STATES, dtype=np.int64))
    print(f"wrote {cfg['runs']} runs to {out}")
    for state, count in enumerate(counts):
        print(f"state {state}: {count} frames")
    return 0


def _mdp_config(cfg: RunConfig) -> MdpTrainConfig:
    """The command's training config."""
    return MdpTrainConfig(
        classifier=_train_config(cfg, "diagnosis-default", "classifier"),
        regressor=_train_config(cfg, "prognosis-default", "regressor"),
        de=DeConfig(population_size=cfg["de-population"],
                    max_generations=cfg["de-generations"]),
        min_state_samples=cfg["min-state-samples"],
        smoothing_window=cfg["smoothing-window"] or None,
        sticky_steps=cfg["sticky-steps"],
    )


def _train_one(kind: str, config: MdpTrainConfig, train_set: FrameDataset, seed: int,
               log=print, rows=None):
    """Train the requested kind, the multistate pipeline or one of its
    sub-models, on `train_set` or on its `rows`; returns (model, history
    dict). A multistate train reports its progress through `log`."""
    if kind == KIND_MULTISTATE:
        # train_mdp's jobs: the diagnoser, the fallback and one regressor per state
        return train_mdp(train_set, config, seed, log=log,
                         workers=_worker_count(2 + N_STATES), rows=rows)
    if kind == KIND_ECS:
        model, loss, de_history = train_diagnoser(train_set, config, seed, rows)
        return model, {"de": de_history, "loss": {"classifier": loss}}
    if kind == KIND_CLASSIFIER:
        model, loss = train_state_classifier(train_set, config, seed, rows)
        return model, {"loss": {"classifier": loss}}
    if kind == KIND_REGRESSOR:
        model, loss = train_wear_regressor(train_set, config, seed, rows=rows)
        return model, {"loss": {"regressor": loss}}
    raise UsageError(f"unknown model kind {kind!r}")


def _write_histories(out_stem: Path, history: dict) -> None:
    losses = history.get("loss", {})
    if losses:
        write_csv(out_stem.parent / (out_stem.name + _FINETUNE_LOSS),
                  ["model", "epoch", "loss"],
                  [[name for name, arr in losses.items() for _ in arr],
                   np.concatenate([np.arange(len(arr)) for arr in losses.values()]),
                   np.concatenate(list(losses.values()))])
    de = history.get("de")
    if de is not None:
        write_csv(out_stem.parent / (out_stem.name + _DE_HISTORY),
                  ["generation", "best_fitness", "mu_f", "mu_cr"],
                  [np.arange(len(de["best_fitness"])), de["best_fitness"],
                   de["mu_f"], de["mu_cr"]])


def cmd_train(cfg: RunConfig) -> int:
    ratio = cfg["train-ratio"]
    if not 0.0 < ratio <= 1.0:
        raise UsageError(f"--train-ratio must lie in (0, 1], not {ratio}")
    keep = None
    if ratio < 1.0:
        keep = _split_indices(len(_run_files(cfg["data"])), ratio, cfg["seed"])[0]
    # every run is checked, and the training runs alone are read, in split order
    train_set = _load_runs(cfg["data"], cfg["stride"], keep)[0]
    per_state = np.bincount(train_set.state_labels, minlength=N_STATES)
    if cfg["kind"] in (KIND_ECS, KIND_CLASSIFIER, KIND_MULTISTATE) and np.any(per_state == 0):
        missing = [s for s in range(N_STATES) if per_state[s] == 0]
        print(f"warning: training split has no frames for states {missing}")
    model, history = _train_one(cfg["kind"], _mdp_config(cfg), train_set, cfg["seed"])
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, model, train_config={
        "seed": cfg["seed"], "kind": cfg["kind"],
        "preset": cfg["preset"] or "", "n_train_frames": len(train_set)})
    _write_histories(out, history)
    print(f"trained {cfg['kind']} on {len(train_set)} frames -> {out}")
    return 0


def _evaluate_model(model, pool: FrameDataset, bounds):
    """Eight-key report for any model kind over the runs of `pool` whose
    rows `bounds` gives, in turn. A multistate model smooths run by run;
    any other scores all their frames at once, in `pool`'s own matrix when
    they are every run in pool order."""
    rows = _rows(bounds)
    if np.array_equal(rows, np.arange(len(pool))):
        rows = None
    labels, wear = dbn.gather(pool.state_labels, rows), dbn.gather(pool.wear_targets, rows)
    if isinstance(model, MultiStateModel):
        states, estimates = [], []
        for start, stop in bounds:
            s, _, _, smoothed = estimate_wear_detailed(model, pool.frames[start:stop])
            states.append(s)
            estimates.append(smoothed)
        cls = classification_report(labels, np.concatenate(states), N_STATES)
        reg = regression_report(wear, np.concatenate(estimates))
        return MetricsReport(accuracy=cls.accuracy, gmean=cls.gmean,
                             precision=cls.precision, recall=cls.recall, f1=cls.f1,
                             rmse=reg.rmse, r2score=reg.r2score, mape=reg.mape)
    frames = dbn.gather(pool.frames, rows)
    if isinstance(model, EcsDbnModel):
        return classification_report(labels, diagnose(model, frames)[0], N_STATES)
    if model.head == dbn.SOFTMAX:
        preds = np.argmax(dbn.predict_proba(model, frames), axis=1)
        return classification_report(labels, preds, N_STATES)
    return regression_report(wear, dbn.predict_regression(model, frames))


def _channel_list(flag: str, channels: str, channel_ids) -> list | None:
    """Channel ids named by a comma-separated subset of `flag`; None for all.

    `vibration` stands for every vib* channel in `channel_ids`. A subset
    that names no channel, or one channel more than once, is a usage error;
    one that names a channel not in `channel_ids`, a data error.
    """
    if channels.strip() in ("", "all"):
        return None
    expanded = []
    for name in (c.strip() for c in channels.split(",")):
        if name == "vibration":
            expanded += [c for c in channel_ids if c.startswith("vib")]
        elif name:
            expanded.append(name)
    if not expanded:
        raise UsageError(f"argument {flag}: subset {channels!r} names no channel")
    repeated = next((c for c in expanded if expanded.count(c) > 1), None)
    if repeated is not None:
        raise UsageError(f"argument {flag}: subset {channels!r} names channel "
                         f"{repeated!r} more than once")
    missing = [c for c in expanded if c not in channel_ids]
    if missing:
        raise DataError(f"channels not in dataset: {missing}")
    return expanded


def _write_report(out_prefix: Path, report: MetricsReport) -> None:
    write_csv(out_prefix.parent / (out_prefix.name + _REPORT),
              REPORT_KEYS, [[v] for v in report.as_dict().values()])
    (out_prefix.parent / f"{out_prefix.name}.report.txt").write_text(
        report.to_kv_text(), encoding="utf-8")


def cmd_evaluate(cfg: RunConfig) -> int:
    # a flag that does not apply is refused before any run is read
    if cfg["model"]:
        if cfg["channels"].strip() not in ("", "all"):
            # `train` selects no channels: a model takes every one, in file order
            raise UsageError(f"--channels {cfg['channels']!r}: a model file is scored on "
                             "all channels; --channels applies to --trials")
        if cfg["trials"] != 1:
            raise UsageError(f"--trials {cfg['trials']}: a model file is scored once; "
                             "--trials applies without --model")
    elif cfg["holdout"]:
        raise UsageError("--holdout: it scores the held-out runs of a model file's "
                         "split, and applies to --model")
    pool, bounds = _load_runs(cfg["data"], cfg["stride"])
    channels = _channel_list("--channels", cfg["channels"], pool.channel_ids)
    if channels is not None:
        pool = pool.select_channels(channels)
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)

    if cfg["model"]:
        model = load_model(cfg["model"])
        # every run has the frame width of the first
        _check_frame_width(model, cfg["model"], pool, _run_files(cfg["data"])[0])
        if cfg["holdout"]:
            train, held = _split_indices(len(bounds), cfg["train-ratio"], cfg["seed"])
            _check_trained_on(cfg["model"], cfg["seed"],
                              sum(stop - start for start, stop in (bounds[i] for i in train)))
            bounds = [bounds[i] for i in held]
        report = _evaluate_model(model, pool, bounds)
        _write_report(out, report)
        print(report.to_kv_text(), end="")
        return 0

    # no model file: run seeded train+evaluate trials; each trial's log lines
    # come back with its report, so that they print in seed order
    config = _mdp_config(cfg)

    def trial(pool, train_rows, held, seed: int):
        lines = []
        model = _train_one(cfg["kind"], config, pool, seed, log=lines.append,
                           rows=train_rows)[0]
        return _evaluate_model(model, pool, held), lines

    rows = []
    for report, lines in _run_trials(cfg, pool, bounds, trial):
        for line in lines:
            print(line)
        rows.append(tuple(report.as_dict().values()))
    arr = np.array(rows, dtype=np.float64)
    # as strings: a seed of 10**10 or more is written in full too
    seeds = [str(seed) for seed in range(cfg["seed"], cfg["seed"] + len(rows))]
    write_csv(out.parent / (out.name + _TRIALS), ("trial",) + REPORT_KEYS, [seeds, *arr.T])
    mean, std = arr.mean(axis=0), arr.std(axis=0)
    write_csv(out.parent / (out.name + _REPORT), REPORT_KEYS, np.array([mean, std]).T)
    lines = [f"{k} = {m:.10g} +- {s:.10g}" for k, m, s in zip(REPORT_KEYS, mean, std)]
    (out.parent / f"{out.name}.report.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    model = load_model(cfg["model"])
    if not isinstance(model, MultiStateModel):
        raise DataError(f"{cfg['model']}: predict needs a {KIND_MULTISTATE} model file, "
                        f"not one of kind {model_kind(model)!r}")
    run_path = Path(cfg["run"])
    meta_path = run_path.with_suffix(".meta")
    rpm, rate = cfg["rpm"], cfg["rate"]
    if (rpm is None or rate is None) and meta_path.exists():
        meta = read_run_meta(meta_path)
        rpm = rpm if rpm is not None else _sidecar_number(meta, "spindle_rpm", meta_path)
        rate = rate if rate is not None else _sidecar_number(meta, "sampling_rate_hz",
                                                             meta_path)
    if rpm is None or rate is None:
        raise UsageError("no sidecar found; supply --rpm and --rate")
    spec = WindowSpec(spindle_rpm=rpm, sampling_rate_hz=rate, stride=cfg["stride"])
    # the run's samples go once its frames are made, before inference
    with open_run_csv(run_path) as run:
        ds = window_runs([(run, spec)])[0]
    _check_frame_width(model, cfg["model"], ds, run_path)
    states, posteriors, raw, smoothed = estimate_wear_detailed(model, ds.frames)
    Path(cfg["out"]).parent.mkdir(parents=True, exist_ok=True)
    write_csv(cfg["out"], _PREDICTION_HEADER,
              [np.arange(len(ds)), states, *posteriors.T, raw, smoothed])
    print(f"wrote {len(ds)} predictions to {cfg['out']}")
    return 0


def _write_table(cfg: RunConfig, suffix: str, first_column: str, names, results,
                 metrics) -> None:
    """One row per name: mean and std over the trials of each report metric."""
    rows = []
    for name in names:
        row = []
        for metric in metrics:
            vals = np.array([getattr(r[name], metric) for r in results])
            row += [vals.mean(), vals.std()]
        rows.append(row)
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out.parent / (out.name + suffix),
              [first_column] + [f"{m}_{stat}" for m in metrics for stat in ("mean", "std")],
              [list(names), *np.array(rows).T])
    for name, row in zip(names, rows):
        print(f"{name}: rmse {row[0]:.4g} +- {row[1]:.4g}")


def cmd_ablate_sensors(cfg: RunConfig) -> int:
    names = [s.strip() for s in cfg["subsets"].split(";") if s.strip()]
    if not names:
        raise UsageError(f"argument --subsets: {cfg['subsets']!r} names no subset")
    repeated = next((name for name in names if names.count(name) > 1), None)
    if repeated is not None:
        raise UsageError(f"argument --subsets: subset {repeated!r} named more than once")
    pool, bounds = _load_runs(cfg["data"], cfg["stride"])
    subsets = {name: _channel_list("--subsets", name, pool.channel_ids) for name in names}
    config = _train_config(cfg, "prognosis-default", "regressor")
    results = _run_trials(cfg, pool, bounds, lambda pool, rows, held, seed:
                          sensor_subset_trial(pool, _runs(pool, held), subsets, config,
                                              seed, rows))
    _write_table(cfg, _SENSOR_ABLATION, "subset", names, results,
                 ("rmse", "r2score", "mape"))
    return 0


def cmd_compare_frameworks(cfg: RunConfig) -> int:
    pool, bounds = _load_runs(cfg["data"], cfg["stride"])
    config = _mdp_config(cfg)
    results = _run_trials(cfg, pool, bounds, lambda pool, rows, held, seed:
                          framework_trial(pool, _runs(pool, held), config, seed,
                                          rows)["reports"])
    _write_table(cfg, _FRAMEWORKS, "framework", FRAMEWORKS, results,
                 ("rmse", "r2score"))
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "ablate-sensors": cmd_ablate_sensors,
    "compare-frameworks": cmd_compare_frameworks,
}


def main(argv=None) -> int:
    # one BLAS thread here as in the workers, which inherit it: the bits a
    # command computes do not depend on how many workers it starts
    pin_blas_to_one_thread()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = RunConfig(args.command, args, file_values)
        return _HANDLERS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"data error: memory ran out{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
