"""The workloads and the loop that runs, times and checks them.

Every workload drives the public CLI (`mdp_tcm.cli.main`) in this process
through the same cycle of commands, at its own scale and fan-out:

    train -> evaluate (held-out runs) -> predict (each held-out run)
          -> compare-frameworks --trials 2 --split-mode run

Set-up generates the training fleet and the held-out runs with
`mdp-tcm generate`. Inputs come only from the workload seed; the program
gets the generated files and its flags.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mdp_tcm import cli
from mdp_tcm.model_io import load_model  # unwrapped: checks stay out of the trace

import derive
import spans

SPINDLE_RPM = 1650.0  # the generate default
TRIALS = 2  # compare-frameworks trials: the fan-out has two to overlap


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sampling_rate_hz: float
    fleet_runs: int
    held_runs: int
    run_seconds: float       # length of each generated run
    threads: int             # MDP_TCM_THREADS for the trial fan-out
    train_flags: tuple       # shared by train and compare-frameworks
    predict_repeats: int     # predicts per held-out run and cycle
    setup_repeats: int       # set-ups per untraced run

    @property
    def window(self) -> int:
        return int(round(self.sampling_rate_hz * 60.0 / SPINDLE_RPM))

    @property
    def samples_per_run(self) -> int:
        return int(round(self.run_seconds * self.sampling_rate_hz))

    @property
    def frames_per_run(self) -> int:
        return (self.samples_per_run - self.window) // self.window + 1


# Hidden widths are fixed so that a seed changes the data, not the model's
# shape and with it the work done.
# desk scale: 200 Hz, 17-sample windows, 14 channels -> 98-feature frames;
# the README flags with every budget cut tenfold
DESK_FLAGS = ("--pretrain-epochs", "1", "--finetune-epochs", "30",
              "--classifier-learning-rate", "0.01", "--regressor-learning-rate", "0.003",
              "--batch-size", "128", "--hidden-range", "40,40",
              "--de-population", "10", "--de-generations", "15")

# hardware rate: 20 kHz, 727-sample windows -> 10178-feature frames; at the
# desk learning rates the classifier diagnoses every frame as fresh
HW_FLAGS = ("--pretrain-epochs", "1", "--finetune-epochs", "20",
            "--classifier-learning-rate", "0.001", "--regressor-learning-rate", "0.0003",
            "--batch-size", "32", "--hidden-range", "20,20",
            "--de-population", "10", "--de-generations", "10")

WORKLOADS = {w.name: w for w in (
    Workload("desk-fanout",
             "desk-scale 98-feature frames, where SGD is bound by numpy call overhead; "
             "MDP_TCM_THREADS=2 takes compare-frameworks through the trial fan-out",
             200.0, fleet_runs=3, held_runs=2, run_seconds=40.0, threads=2,
             train_flags=DESK_FLAGS, predict_repeats=4, setup_repeats=5),
    Workload("hw-rate",
             "20 kHz 10178-feature frames: training is bound by wide matrix products, "
             "predict and set-up by CSV parsing; trials run one after another",
             20000.0, fleet_runs=3, held_runs=2, run_seconds=4.0, threads=1,
             train_flags=HW_FLAGS, predict_repeats=3, setup_repeats=3),
)}

# every span the cycle must record on every workload (the coverage guard)
EXPECTED_SPANS = tuple(name for name, *_ in spans.TIMED) + (
    "cli.generate", "cli.train", "cli.evaluate", "cli.predict", "cli.compare-frameworks")


class CoverageError(RuntimeError):
    """An expected span recorded no call: the benchmark no longer sees a layer."""


class WorkloadFailed(RuntimeError):
    """A command failed in a way that leaves nothing to run or measure."""


@dataclass
class Command:
    name: str
    rc: int
    wall_s: float
    cpu_s: float
    stderr: str
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def host_probe_seconds() -> float:
    """Seconds for a fixed piece of interpreter and small-matrix work that
    involves no mdp_tcm code. It moves only when the host's speed does, so
    it tells a program change from host drift between runs."""
    a, w = np.full((128, 98), 0.5), np.full((98, 40), 0.01)
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    for _ in range(500):
        np.maximum(a @ w, 0.0)
    return time.perf_counter() - t0


def fresh_start_seconds(src: Path) -> float:
    """Wall time for a new interpreter to import the CLI: the part of
    set-up a user pays before generate runs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mdp_tcm.cli"], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(src)})
    return time.perf_counter() - t0


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_command(argv: list, tracer: spans.Tracer | None) -> Command:
    """One in-process CLI call. Its stdout is dropped so that the
    benchmark's own output stays parseable; stderr is kept for reports."""
    out, err = io.StringIO(), io.StringIO()
    ctx = (tracer.root_span(f"cli.{argv[0]}") if tracer is not None
           else contextlib.nullcontext({}))
    with ctx as fields, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc(file=err)
            rc = -1
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        fields["cpu_s"] = cpu
    return Command(argv[0], rc, wall, cpu, err.getvalue())


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class Runner:
    """Runs one workload for one seed: set-ups, then timed cycles."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.commands: list[Command] = []
        self.digests: dict[str, str] = {}

    @property
    def problems(self) -> list[str]:
        return [f"{c.name}: {p}" for c in self.commands for p in c.problems]

    # -- checks -------------------------------------------------------------

    def _expect_same(self, key: str, path, cmd: Command) -> None:
        digest = sha256(path)
        first = self.digests.setdefault(key, digest)
        if digest != first:
            cmd.problems.append(f"{key} differs between repetitions")

    def _record(self, cmd: Command, check=None, *args) -> dict:
        """Keep `cmd`; if it exited 0, run `check(cmd, *args)` on its
        outputs. Returns what the check read from them."""
        found = {}
        if cmd.rc != 0:
            cmd.problems.append(f"exit code {cmd.rc}: {cmd.stderr.strip()[-400:]}")
        elif check is not None:
            try:
                found = check(cmd, *args) or {}
            except (OSError, ValueError, IndexError, KeyError) as exc:
                cmd.problems.append(f"unreadable output: {exc!r}")
        self.commands.append(cmd)
        return found

    def _check_generate(self, cmd: Command, out: Path, runs: int) -> None:
        files = sorted(out.glob("*.csv"))
        if len(files) != runs:
            cmd.problems.append(f"{len(files)} run files for {runs} runs")
        for path in files:
            self._expect_same(f"{out.name}/{path.name}", path, cmd)

    def _check_train(self, cmd: Command, model: Path) -> None:
        load_model(model)  # verifies the payload checksum
        self._expect_same("model", model, cmd)

    def _check_evaluate(self, cmd: Command, prefix: Path) -> dict:
        report = {}
        for line in (prefix.parent / f"{prefix.name}.report.txt").read_text().splitlines():
            key, _, value = line.partition("=")
            report[key.strip()] = value.strip()
        bad = [k for k, v in report.items() if not _finite(v)]
        if bad or not {"rmse", "gmean"} <= set(report):
            cmd.problems.append(f"report values missing or not finite: {bad}")
            return {}
        self._expect_same("report", prefix.parent / f"{prefix.name}.report.csv", cmd)
        return {"rmse_um": float(report["rmse"]), "gmean": float(report["gmean"])}

    def _check_predict(self, cmd: Command, out: Path, run: str) -> None:
        rows = _read_csv(out)[1:]
        if len(rows) != self.wl.frames_per_run:
            cmd.problems.append(f"{len(rows)} prediction rows for {self.wl.frames_per_run} frames")
        bad = sum(1 for r in rows if not all(_finite(v) for v in r))
        if bad:
            cmd.problems.append(f"{bad} prediction rows not finite")
        self._expect_same(f"predict/{run}", out, cmd)

    def _check_frameworks(self, cmd: Command, prefix: Path) -> dict:
        rows = _read_csv(prefix.parent / f"{prefix.name}.frameworks.csv")[1:]
        table = {r[0]: r[1:] for r in rows}
        bad = [name for name, vals in table.items() if not all(_finite(v) for v in vals)]
        if len(table) != 3 or bad or "multistate-smoothed" not in table:
            cmd.problems.append(f"frameworks table incomplete or not finite: {bad}")
            return {}
        self._expect_same("frameworks", prefix.parent / f"{prefix.name}.frameworks.csv", cmd)
        return {"frameworks_rmse_um": float(table["multistate-smoothed"][0])}

    # -- set-up and cycle ---------------------------------------------------

    def setup(self, index: int, tracer) -> float:
        """Generate the fleet and the held-out runs; returns the seconds taken."""
        wl, base = self.wl, self.work / f"setup{index}"
        rate = ["--desk-scale"] if wl.sampling_rate_hz == 200.0 else []
        wall = 0.0
        for sub, runs, seed in (("fleet", wl.fleet_runs, self.seed * 100),
                                ("held", wl.held_runs, self.seed * 100 + 50)):
            cmd = run_command(["generate", "--out", str(base / sub), "--runs", str(runs),
                               "--seed", str(seed), "--run-seconds", str(wl.run_seconds)]
                              + rate, tracer)
            wall += cmd.wall_s
            self._record(cmd, self._check_generate, base / sub, runs)
        return wall

    def cycle(self, inputs: Path, index: int, tracer) -> dict:
        """One pass through the command cycle; returns its measurements."""
        wl, out = self.wl, self.work / f"cycle{index}"
        out.mkdir(parents=True)
        fleet, held = inputs / "fleet", inputs / "held"
        model = out / "pipeline.model"
        seed = ["--seed", str(self.seed)]
        sample = {"host_probe_s": host_probe_seconds()}

        cmd = run_command(["train", "--data", str(fleet), "--out", str(model),
                           "--kind", "multistate", "--train-ratio", "1.0", *seed,
                           *wl.train_flags], tracer)
        self._record(cmd, self._check_train, model)
        if not cmd.ok:
            raise WorkloadFailed(f"train failed: {cmd.problems}")
        sample["train_s"] = cmd.wall_s

        cmd = run_command(["evaluate", "--data", str(held), "--model", str(model),
                           "--out", str(out / "held")], tracer)
        sample.update(self._record(cmd, self._check_evaluate, out / "held"))
        sample["evaluate_s"] = cmd.wall_s

        sample["predict_s"], sample["predict_realtime_x"] = 0.0, []
        signal_s = wl.samples_per_run / wl.sampling_rate_hz
        for i, run in enumerate(sorted(held.glob("*.csv")) * wl.predict_repeats):
            pred = out / f"pred{i}.csv"
            cmd = run_command(["predict", "--model", str(model), "--run", str(run),
                               "--out", str(pred)], tracer)
            self._record(cmd, self._check_predict, pred, run.stem)
            sample["predict_s"] += cmd.wall_s
            sample["predict_realtime_x"].append(derive.realtime_factor(signal_s, cmd.wall_s))

        cmd = run_command(["compare-frameworks", "--data", str(fleet), "--out", str(out / "cmp"),
                           "--trials", str(TRIALS), "--split-mode", "run", *seed,
                           *wl.train_flags], tracer)
        sample.update(self._record(cmd, self._check_frameworks, out / "cmp"))
        sample["experiment_s"] = cmd.wall_s
        sample["experiment_cpu_util"] = cmd.cpu_s / cmd.wall_s
        shutil.rmtree(out)
        return sample


@contextlib.contextmanager
def _env(name: str, value: str):
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


@contextlib.contextmanager
def tracing(tracer: spans.Tracer):
    """The library wrapped for `tracer`, and its spool exported to spawned
    workers; both undone on exit. Yields the instrumented sites."""
    tracer.spool_dir.mkdir(parents=True, exist_ok=True)
    with _env(spans.SPOOL_ENV, str(tracer.spool_dir)), spans.Instrumentation(tracer) as inst:
        yield inst.sites


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, src: Path) -> dict:
    """Set up, then run cycles for about `seconds`.

    Untraced: `setup_repeats` set-ups and untraced cycles, for the
    end-to-end metrics. Traced: one untraced and one traced set-up, then
    cycles that alternate untraced and traced, for the per-layer metrics
    and the tracing overhead.
    """
    runner = Runner(wl, seed, work)
    tracer = spans.Tracer(spool_dir=work / "spool")
    setups, setup_spans, setup_layers, sites = [], [], {}, []
    for i, traced in enumerate((False, True) if trace else (False,) * wl.setup_repeats):
        start_s = fresh_start_seconds(src)
        if traced:
            with tracing(tracer) as sites:
                secs = runner.setup(i, tracer)
            setup_spans = tracer.take()
            # set-up's own layers; generate also windows its runs, which
            # the cycle's signal_pipeline figures leave out
            setup_layers = {k: v for k, v in derive.layer_metrics(setup_spans).items()
                            if k.startswith(("synth.", "cli.generate."))}
        else:
            secs = runner.setup(i, None)
        setups.append(start_s + secs)
    for extra in range(1, len(setups)):
        shutil.rmtree(work / f"setup{extra}")

    plain, traced, layer = [], [], []
    start = time.perf_counter()
    with _env("MDP_TCM_THREADS", str(wl.threads)):
        while True:
            elapsed = time.perf_counter() - start
            done = len(plain) + len(traced)
            if done >= (2 if trace else 1) and elapsed + elapsed / done > seconds:
                break
            if trace and done % 2 == 1:
                with tracing(tracer):
                    traced.append(runner.cycle(work / "setup0", done, tracer))
                cycle_spans = tracer.take()
                missing = derive.missing_spans(setup_spans + cycle_spans, EXPECTED_SPANS)
                if missing:
                    raise CoverageError(f"{wl.name}: no calls recorded for {missing}; "
                                        f"instrumented sites: {sites}")
                layer.append({**derive.layer_metrics(cycle_spans), **setup_layers})
            else:
                plain.append(runner.cycle(work / "setup0", done, None))
    return {"runner": runner, "setups": setups, "plain": plain, "traced": traced,
            "layer": layer, "sites": sites, "measured_s": time.perf_counter() - start,
            "peak_rss_mb": peak_rss_mb()}
