"""Metrics derived from timings and spans.

Pure functions, so they can be tested without running the pipeline.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """(q1, q3) as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def _rank(p: float, n: int) -> int:
    """Nearest rank of the p-th percentile among n samples, 1-based."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least `beyond` of `n` samples
    above it (nearest rank), or None when there are too few samples."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= beyond:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(p, len(ordered)) - 1])


def realtime_factor(signal_seconds: float, wall_seconds: float) -> float:
    """Seconds of sensor signal processed per wall-clock second."""
    if wall_seconds <= 0:
        raise ValueError("wall time must be positive")
    return signal_seconds / wall_seconds


def overlap(span_seconds, wall_seconds: float) -> float:
    """Summed span time over the wall time of the command holding them:
    about 1 when the spans ran one after another, up to the worker count
    when they ran concurrently."""
    if wall_seconds <= 0:
        raise ValueError("wall time must be positive")
    return sum(span_seconds) / wall_seconds


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: dict, children) -> float:
    """Span duration minus the part of it its children cover."""
    lo, hi = span["start"], span["end"]
    clipped = [(max(c["start"], lo), min(c["end"], hi)) for c in children]
    return (hi - lo) - union_length([(a, b) for a, b in clipped if b > a])


def children_of(spans) -> dict:
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    return kids


def descendants(span_id: str, kids: dict) -> list:
    out, todo = [], [span_id]
    while todo:
        for child in kids.get(todo.pop(), []):
            out.append(child)
            todo.append(child["id"])
    return out


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one cycle from its spans.

    Command spans are named `cli.<command>` and hold the command's CPU
    seconds in a `cpu_s` field. Time metrics sum span durations; nested
    calls of one name (none today) would count twice.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    kids = children_of(spans)

    def total(name, field=None):
        group = by_name.get(name, [])
        if field is None:
            return sum(_duration(s) for s in group)
        return sum(s["fields"].get(field, 0) for s in group)

    def within(command, names):
        """Seconds in spans of `names` under every `command` span."""
        secs = 0.0
        for cmd in by_name.get(command, []):
            secs += sum(_duration(d) for d in descendants(cmd["id"], kids)
                        if d["name"] in names)
        return secs

    finetune = by_name.get("dbn.finetune_classifier", []) + by_name.get("dbn.finetune_regressor", [])
    out = {
        "synth.generate_fleet.s": total("synth.generate_fleet"),
        "synth.write_run_csv.s": total("synth.write_run_csv"),
        "synth.write_run_csv.mb": total("synth.write_run_csv", "mb"),
        "signal_pipeline.load_run_csv.s": total("signal_pipeline.load_run_csv"),
        "signal_pipeline.load_run_csv.rows": total("signal_pipeline.load_run_csv", "rows"),
        "signal_pipeline.build_dataset.s": total("signal_pipeline.build_dataset"),
        "signal_pipeline.build_dataset.frames": total("signal_pipeline.build_dataset", "frames"),
        "rbm.train_rbm.s": total("rbm.train_rbm"),
        "rbm.train_rbm.calls": len(by_name.get("rbm.train_rbm", [])),
        "kernels.cd_epoch.s": total("kernels.cd_epoch"),
        "kernels.cd_epoch.calls": len(by_name.get("kernels.cd_epoch", [])),
        "dbn.finetune_classifier.s": total("dbn.finetune_classifier"),
        "dbn.finetune_regressor.s": total("dbn.finetune_regressor"),
        "dbn.finetune.calls": len(finetune),
        "dbn.finetune.overhead_s": sum(self_time(s, kids.get(s["id"], [])) for s in finetune),
        "kernels.sgd_epoch.s": total("kernels.sgd_epoch"),
        "kernels.sgd_epoch.calls": len(by_name.get("kernels.sgd_epoch", [])),
        "kernels.sgd.batches": total("kernels.sgd_epoch", "batches"),
        "kernels.sgd.gflop": total("kernels.sgd_epoch", "gflop"),
        "dbn.predict.s": total("dbn.predict"),
        "adaptive_de.evolve.s": total("adaptive_de.evolve"),
        "adaptive_de.objective_evals": total("adaptive_de.evolve", "objective_evals"),
        "multistate.train_mdp.s": total("multistate.train_mdp"),
        "multistate.estimate_wear_detailed.s": total("multistate.estimate_wear_detailed"),
        "multistate.route.dedicated_frames": total("multistate.estimate_wear_detailed", "dedicated_frames"),
        "multistate.route.fallback_frames": total("multistate.estimate_wear_detailed", "fallback_frames"),
        "model_io.save_model.s": total("model_io.save_model"),
        "model_io.load_model.s": total("model_io.load_model"),
        "model_io.model.bytes": max((s["fields"]["bytes"] for s in by_name.get("model_io.save_model", [])),
                                    default=0),
    }
    for name, group in by_name.items():
        if name.startswith("cli."):
            out[f"{name}.self_s"] = sum(self_time(s, kids.get(s["id"], [])) for s in group)

    experiments = by_name.get("cli.compare-frameworks", [])
    experiment_wall = sum(_duration(s) for s in experiments)
    if experiment_wall > 0:
        out["cli.trials.overlap"] = overlap(
            [within("cli.compare-frameworks", {"multistate.train_mdp"})], experiment_wall)
        out["cpu_util"] = sum(s["fields"]["cpu_s"] for s in experiments) / experiment_wall
    train_wall = total("cli.train")
    if train_wall > 0:
        out["train.finetune_share"] = within(
            "cli.train", {"dbn.finetune_classifier", "dbn.finetune_regressor"}) / train_wall
    predict_wall = total("cli.predict")
    if predict_wall > 0:
        out["predict.ingest_share"] = within(
            "cli.predict", {"signal_pipeline.load_run_csv", "signal_pipeline.build_dataset"}) / predict_wall
    out["trace.spans"] = len(spans)
    out["trace.worker_spans"] = sum(1 for s in spans if s.get("worker"))
    return out


def missing_spans(spans, expected) -> list:
    """Expected span names that recorded no call (the coverage guard)."""
    seen = {s["name"] for s in spans}
    return sorted(set(expected) - seen)
