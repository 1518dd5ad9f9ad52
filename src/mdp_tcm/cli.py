"""Command-line surface for offline experiments.

Commands: generate, train, evaluate, predict, ablate-sensors,
compare-frameworks. Every option can come from a flat `key = value`
config file (--config); flags override file values, which override
preset defaults. Unknown config keys are rejected.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
MDP_TCM_THREADS caps the forked workers, each running BLAS on one thread,
that run the trials of --trials or the sub-models of a multistate train.
There is one level of workers: the trials' own trains run in turn. So a
fanned-out 20 kHz train gets the bytes of one BLAS thread, as trials do.
"""

from __future__ import annotations

import argparse
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
from .fanout import map_forked, usable_cores
from .metrics import (REPORT_KEYS, MetricsReport, classification_report,
                      regression_report)
from .model_io import (KIND_CLASSIFIER, KIND_ECS, KIND_MULTISTATE,
                       KIND_REGRESSOR, load_model, model_kind, save_model)
from .multistate import (EcsDbnModel, MdpTrainConfig, MultiStateModel, diagnose,
                         estimate_wear_detailed, train_diagnoser, train_mdp,
                         train_state_classifier, train_wear_regressor)
from .signal_pipeline import (FrameDataset, N_STATES, WindowSpec, build_dataset,
                              frame_ends, label_states, load_run_csv, write_csv)
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


def _opt_range(text: str) -> tuple:
    lo, hi = (int(p) for p in text.split(","))
    return lo, hi


# (name, type, default, help); default _REQUIRED must be supplied,
# default None means "derived later"
_COMMON_TRAIN_OPTS = [
    ("preset", str, None, "training preset: diagnosis-default | prognosis-default"),
    ("pretrain-epochs", int, None, "CD pretraining epochs"),
    ("finetune-epochs", int, None, "SGD fine-tuning epochs"),
    ("learning-rate", float, None, "learning rate for pretraining and fine-tuning"),
    ("classifier-learning-rate", float, None, "override for the state classifier"),
    ("regressor-learning-rate", float, None, "override for the wear regressors"),
    ("batch-size", int, None, "mini-batch size"),
    ("hidden-range", _opt_range, None, "hidden width interval, e.g. 5,60"),
    ("stride", int, None, "window stride in samples (default: one window)"),
    ("train-ratio", float, 0.85, "train fraction of the split"),
    ("split-mode", str, "run", "run, the only mode: held-out data is whole runs"),
]

# options of the commands that train the multistate pipeline
_MDP_OPTS = [
    ("smoothing-window", int, 50, "trailing smoothing window (multistate)"),
    ("sticky-steps", int, 1, "diagnoses needed to switch the routed state"),
    ("min-state-samples", int, 50, "frames needed for a dedicated regressor"),
    ("de-population", int, 30, "DE population size"),
    ("de-generations", int, 50, "DE generations"),
]

COMMANDS = {
    "generate": [
        ("out", str, _REQUIRED, "output directory"),
        ("runs", int, 1, "number of runs to generate"),
        ("seed", int, 0, "base seed"),
        ("desk-scale", _opt_bool, False, "sample at 200 Hz instead of 20 kHz"),
        ("rpm", float, 1650.0, "spindle speed"),
        ("run-seconds", float, 120.0, "run length"),
        ("skew", float, 10.0, "state dwell-time imbalance ratio"),
        ("wear-end", float, 400.0, "end-of-life wear in micrometers"),
        ("noise-std", float, None, "override all channel noise levels"),
        ("noise-scale", float, 1.0, "multiplier on the per-channel noise levels"),
        ("band-frac", float, 0.5, "fraction of wear coupling via channel sub-bands"),
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
        ("trials", int, 1, "repeated seeded train+evaluate trials"),
        ("kind", str, "multistate", "model kind for --trials"),
        ("seed", int, 0, "run seed"),
    ] + _MDP_OPTS + _COMMON_TRAIN_OPTS,
    "predict": [
        ("model", str, _REQUIRED, "multistate model file"),
        ("run", str, _REQUIRED, "run CSV to predict on"),
        ("out", str, _REQUIRED, "prediction CSV to write"),
        ("rpm", float, None, "spindle rpm (default: run sidecar)"),
        ("rate", float, None, "sampling rate Hz (default: run sidecar)"),
        ("stride", int, None, "window stride in samples"),
    ],
    "ablate-sensors": [
        ("data", str, _REQUIRED, "directory of run CSVs"),
        ("out", str, _REQUIRED, "output prefix"),
        ("subsets", str, "force;torque;vibration;force,torque;all",
         "semicolon-separated channel subsets"),
        ("trials", int, 1, "seeded trials"),
        ("seed", int, 0, "base seed"),
    ] + _COMMON_TRAIN_OPTS,
    "compare-frameworks": [
        ("data", str, _REQUIRED, "directory of run CSVs"),
        ("out", str, _REQUIRED, "output prefix"),
        ("trials", int, 1, "seeded trials"),
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
                except ValueError as exc:
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
    """The parser of every command, with the options of `command` alone
    when one is named: each option costs a formatter, so a call parses
    only its own."""
    parser = _Parser(prog="mdp-tcm",
                     description="Tool-condition monitoring: multi-state "
                                 "diagnosis and wear prognosis experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in COMMANDS.items():
        p = sub.add_parser(name)
        if command not in (None, name):
            continue
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


def _load_runs(data_dir: str, stride: int | None):
    """Per-run windowed datasets from a directory of run CSVs + sidecars,
    in the order of `_run_files`."""
    datasets = []
    for f in _run_files(data_dir):
        meta_path = f.with_suffix(".meta")
        if not meta_path.exists():
            raise DataError(f"missing sidecar {meta_path}")
        meta = read_run_meta(meta_path)
        rate = _sidecar_number(meta, "sampling_rate_hz", meta_path)
        rpm = _sidecar_number(meta, "spindle_rpm", meta_path)
        channels, wear = load_run_csv(f, rate)
        spec = WindowSpec(spindle_rpm=rpm, sampling_rate_hz=rate, stride=stride)
        datasets.append(build_dataset(channels, spec, wear))
    return datasets


def _check_frame_width(model, model_path, ds: FrameDataset, run_path) -> None:
    """A data error naming both files when the run's frames do not fit the model."""
    net = model.diagnoser if isinstance(model, MultiStateModel) else model
    net = net.base if isinstance(net, EcsDbnModel) else net
    if ds.n_features != net.n_inputs:
        raise DataError(f"model {model_path} takes frames of {net.n_inputs} values, "
                        f"but run {run_path} gives frames of {ds.n_features}")


def _split_runs(datasets, ratio: float, seed: int):
    """(train pool, held-out per-run datasets): a seeded split of whole runs."""
    if not 0.0 < ratio < 1.0:
        raise UsageError(f"--train-ratio must lie in (0, 1), not {ratio}")
    if len(datasets) < 2:
        raise DataError(f"a split of whole runs needs at least 2 runs; got {len(datasets)}")
    order = substream(seed, "split").permutation(len(datasets))
    n_train = min(int(math.ceil(ratio * len(datasets))), len(datasets) - 1)
    return (FrameDataset.concat([datasets[i] for i in order[:n_train]]),
            [datasets[i] for i in order[n_train:]])


def _fmt(v) -> str:
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _worker_count(n_items: int) -> int:
    """MDP_TCM_THREADS, capped at the item count and the usable cores."""
    text = os.environ.get("MDP_TCM_THREADS", "").strip() or "1"
    if not text.isdecimal() or int(text) < 1:
        raise UsageError(f"MDP_TCM_THREADS must be a positive integer, not {text!r}")
    return min(int(text), n_items, usable_cores())


def _run_trials(cfg: RunConfig, datasets, trial) -> list:
    """`trial(train_set, eval_sets, seed)` for the --trials seeds from --seed
    on, each on its own split of the runs; the results in seed order."""
    if cfg["trials"] < 1:
        raise UsageError(f"--trials must be at least 1, not {cfg['trials']}")
    seeds = [cfg["seed"] + i for i in range(cfg["trials"])]

    def one(seed: int):
        return trial(*_split_runs(datasets, cfg["train-ratio"], seed), seed)

    return list(map_forked(one, seeds, _worker_count(len(seeds))))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_run(run, stem: Path, spec: WindowSpec, created: str) -> np.ndarray:
    """Write a run's CSV and sidecar; the frames per state that `window`
    would cut from it, counted from the wear at each frame's last sample."""
    write_run_csv(run, stem.with_suffix(".csv"))
    write_run_meta(run, stem.with_suffix(".meta"), created=created)
    wear = run.wear_trajectory
    return np.bincount(label_states(wear[frame_ends(len(wear), spec)]),
                       minlength=N_STATES)


def cmd_generate(cfg: RunConfig) -> int:
    if cfg["runs"] < 1:
        raise UsageError("--runs must be at least 1")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    synth = SynthConfig(
        spindle_rpm=cfg["rpm"],
        sampling_rate_hz=200.0 if cfg["desk-scale"] else 20000.0,
        run_seconds=cfg["run-seconds"],
        wear_end_um=cfg["wear-end"],
        imbalance_skew=cfg["skew"],
        noise_std=cfg["noise-std"],
        noise_scale=cfg["noise-scale"],
        band_frac=cfg["band-frac"],
    )
    spec = window_spec_for(synth)
    created = datetime.now(timezone.utc).isoformat()
    counts = np.zeros(N_STATES, dtype=np.int64)
    # one run at a time: each is generated from its own seed (as in a
    # fleet), written, counted and dropped before the next is generated
    for i in range(cfg["runs"]):
        counts += _write_run(generate_fleet(synth, 1, cfg["seed"] + i)[0],
                             out / f"run{i:03d}", spec, created)
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
               log=print):
    """Train the requested kind, the multistate pipeline or one of its
    sub-models; returns (model, history dict). A multistate train reports
    its progress through `log`."""
    if kind == KIND_MULTISTATE:
        # train_mdp's jobs: the diagnoser, the fallback and one regressor per state
        return train_mdp(train_set, config, seed, log=log,
                         workers=_worker_count(2 + N_STATES))
    if kind == KIND_ECS:
        model, loss, de_history = train_diagnoser(train_set, config, seed)
        return model, {"de": de_history, "loss": {"classifier": loss}}
    if kind == KIND_CLASSIFIER:
        model, loss = train_state_classifier(train_set, config, seed)
        return model, {"loss": {"classifier": loss}}
    if kind == KIND_REGRESSOR:
        model, loss = train_wear_regressor(train_set, config, seed)
        return model, {"loss": {"regressor": loss}}
    raise UsageError(f"unknown model kind {kind!r}")


def _write_histories(out_stem: Path, history: dict) -> None:
    losses = history.get("loss", {})
    if losses:
        rows = [(name, epoch, float(val))
                for name, arr in losses.items()
                for epoch, val in enumerate(arr)]
        _write_csv(out_stem.parent / (out_stem.name + _FINETUNE_LOSS),
                   ["model", "epoch", "loss"], rows)
    de = history.get("de")
    if de is not None:
        rows = [(g, float(de["best_fitness"][g]), float(de["mu_f"][g]),
                 float(de["mu_cr"][g]))
                for g in range(len(de["best_fitness"]))]
        _write_csv(out_stem.parent / (out_stem.name + _DE_HISTORY),
                   ["generation", "best_fitness", "mu_f", "mu_cr"], rows)


def cmd_train(cfg: RunConfig) -> int:
    datasets = _load_runs(cfg["data"], cfg["stride"])
    if cfg["train-ratio"] >= 1.0:
        train_set = FrameDataset.concat(datasets)
    else:
        train_set, _ = _split_runs(datasets, cfg["train-ratio"], cfg["seed"])
    # the training pool holds its own copy of the frames it needs
    del datasets
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


def _evaluate_model(model, datasets):
    """Eight-key report for any model kind over per-run datasets."""
    labels = np.concatenate([ds.state_labels for ds in datasets])
    wear = np.concatenate([ds.wear_targets for ds in datasets])
    if isinstance(model, MultiStateModel):
        states, estimates = [], []
        for ds in datasets:
            s, _, _, smoothed = estimate_wear_detailed(model, ds.frames)
            states.append(s)
            estimates.append(smoothed)
        cls = classification_report(labels, np.concatenate(states), N_STATES)
        reg = regression_report(wear, np.concatenate(estimates))
        return MetricsReport(accuracy=cls.accuracy, gmean=cls.gmean,
                             precision=cls.precision, recall=cls.recall, f1=cls.f1,
                             rmse=reg.rmse, r2score=reg.r2score, mape=reg.mape)
    frames = np.vstack([ds.frames for ds in datasets])
    if isinstance(model, EcsDbnModel):
        return classification_report(labels, diagnose(model, frames)[0], N_STATES)
    if model.head == dbn.SOFTMAX:
        preds = np.argmax(dbn.predict_proba(model, frames), axis=1)
        return classification_report(labels, preds, N_STATES)
    return regression_report(wear, dbn.predict_regression(model, frames))


def _channel_list(channels: str, channel_ids) -> list | None:
    """Channel ids named by a comma-separated subset; None for all.

    `vibration` stands for every vib* channel in `channel_ids`.
    """
    if channels.strip() in ("", "all"):
        return None
    expanded = []
    for name in (c.strip() for c in channels.split(",")):
        if name == "vibration":
            expanded += [c for c in channel_ids if c.startswith("vib")]
        elif name:
            expanded.append(name)
    return expanded


def _write_report(out_prefix: Path, report: MetricsReport) -> None:
    _write_csv(out_prefix.parent / (out_prefix.name + _REPORT),
               REPORT_KEYS, [tuple(report.as_dict().values())])
    (out_prefix.parent / f"{out_prefix.name}.report.txt").write_text(
        report.to_kv_text(), encoding="utf-8")


def cmd_evaluate(cfg: RunConfig) -> int:
    datasets = _load_runs(cfg["data"], cfg["stride"])
    channels = _channel_list(cfg["channels"], datasets[0].channel_ids)
    if channels is not None:
        datasets = [ds.select_channels(channels) for ds in datasets]
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)

    if cfg["model"]:
        model = load_model(cfg["model"])
        for run_path, ds in zip(_run_files(cfg["data"]), datasets):
            _check_frame_width(model, cfg["model"], ds, run_path)
        if cfg["holdout"]:
            _, eval_sets = _split_runs(datasets, cfg["train-ratio"], cfg["seed"])
        else:
            eval_sets = datasets
        report = _evaluate_model(model, eval_sets)
        _write_report(out, report)
        print(report.to_kv_text(), end="")
        return 0

    # no model file: run seeded train+evaluate trials; each trial's log lines
    # come back with its report, so that they print in seed order
    config = _mdp_config(cfg)

    def trial(train_set, eval_sets, seed: int):
        lines = []
        model = _train_one(cfg["kind"], config, train_set, seed, log=lines.append)[0]
        return _evaluate_model(model, eval_sets), lines

    rows = []
    for report, lines in _run_trials(cfg, datasets, trial):
        for line in lines:
            print(line)
        rows.append(tuple(report.as_dict().values()))
    _write_csv(out.parent / (out.name + _TRIALS), ("trial",) + REPORT_KEYS,
               [(seed,) + row for seed, row in enumerate(rows, cfg["seed"])])
    arr = np.array(rows, dtype=np.float64)
    mean, std = arr.mean(axis=0), arr.std(axis=0)
    _write_csv(out.parent / (out.name + _REPORT), REPORT_KEYS, [tuple(mean), tuple(std)])
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
    channels, wear = load_run_csv(run_path, rate)
    spec = WindowSpec(spindle_rpm=rpm, sampling_rate_hz=rate, stride=cfg["stride"])
    ds = build_dataset(channels, spec, wear)
    _check_frame_width(model, cfg["model"], ds, run_path)
    states, posteriors, raw, smoothed = estimate_wear_detailed(model, ds.frames)
    Path(cfg["out"]).parent.mkdir(parents=True, exist_ok=True)
    write_csv(cfg["out"], _PREDICTION_HEADER,
              [np.arange(len(ds)), states, *posteriors.T, raw, smoothed],
              ("%d", "%d") + ("%.10g",) * (N_STATES + 2))
    print(f"wrote {len(ds)} predictions to {cfg['out']}")
    return 0


def _write_table(cfg: RunConfig, suffix: str, first_column: str, names, results,
                 metrics) -> None:
    """One row per name: mean and std over the trials of each report metric."""
    rows = []
    for name in names:
        row = [name]
        for metric in metrics:
            vals = np.array([getattr(r[name], metric) for r in results])
            row += [vals.mean(), vals.std()]
        rows.append(row)
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out.parent / (out.name + suffix),
               [first_column] + [f"{m}_{stat}" for m in metrics for stat in ("mean", "std")],
               rows)
    for row in rows:
        print(f"{row[0]}: rmse {row[1]:.4g} +- {row[2]:.4g}")


def cmd_ablate_sensors(cfg: RunConfig) -> int:
    datasets = _load_runs(cfg["data"], cfg["stride"])
    names = [s.strip() for s in cfg["subsets"].split(";") if s.strip()]
    subsets = {name: _channel_list(name, datasets[0].channel_ids) for name in names}
    config = _train_config(cfg, "prognosis-default", "regressor")
    results = _run_trials(cfg, datasets, lambda train_set, eval_sets, seed:
                          sensor_subset_trial(train_set, eval_sets, subsets, config, seed))
    _write_table(cfg, _SENSOR_ABLATION, "subset", names, results,
                 ("rmse", "r2score", "mape"))
    return 0


def cmd_compare_frameworks(cfg: RunConfig) -> int:
    datasets = _load_runs(cfg["data"], cfg["stride"])
    config = _mdp_config(cfg)
    results = _run_trials(cfg, datasets, lambda train_set, eval_sets, seed:
                          framework_trial(train_set, eval_sets, config, seed)["reports"])
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


if __name__ == "__main__":
    sys.exit(main())
