#!/usr/bin/env python3
"""Pipeline benchmark for mdp-tcm.

    python3 perfbench/run.py --workload desk-fanout --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the repository root. It imports `mdp_tcm` from `src/`, generates
the workload's inputs from `--seed`, then repeats the workload's command
cycle (see workloads.py) for about `--seconds` seconds and checks every
output. Human-readable lines go to stdout first; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics (medians over set-ups or
cycles). `--trace 1` reports the per-layer metrics, from spans recorded by
wrapping the library's functions, plus the tracing overhead: traced minus
untraced cycles of the same run. Each run also writes its samples and
provenance to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import derive

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {  # name -> unit
    "setup_s": "s", "train_s": "s", "predict_realtime_x": "s/s",
    "experiment_s": "s", "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _summary(samples) -> dict:
    q1, q3 = derive.quartiles(samples)
    tail = derive.tail_percentile(len(samples))
    return {"median": derive.median(samples), "q1": q1, "q3": q3, "n": len(samples),
            "tail_percentile": tail,
            "tail_value": derive.percentile(samples, tail) if tail else None}


def _end_to_end(res) -> tuple[dict, dict]:
    plain = res["plain"]
    series = {"setup_s": res["setups"],
              "train_s": [c["train_s"] for c in plain],
              "predict_realtime_x": [x for c in plain for x in c["predict_realtime_x"]],
              "experiment_s": [c["experiment_s"] for c in plain]}
    stats = {k: _summary(v) for k, v in series.items()}
    metrics = {k: s["median"] for k, s in stats.items()}
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    # not an end-to-end metric: printed and kept with the results
    stats["host.probe_s"] = _summary([c["host_probe_s"] for c in plain])
    return metrics, stats


def _per_layer(res) -> tuple[dict, dict]:
    layer = res["layer"]
    names = sorted(set().union(*layer))
    stats = {k: _summary([m[k] for m in layer if k in m]) for k in names}
    metrics = {k: s["median"] for k, s in stats.items()}
    # quality is identical in every cycle (the digests are checked)
    first = res["plain"][0]
    for key in ("rmse_um", "gmean", "frameworks_rmse_um"):
        if key in first:  # absent only when its output check failed
            metrics[f"quality.{key}"] = first[key]
    metrics["host.probe_s"] = derive.median(
        c["host_probe_s"] for c in res["plain"] + res["traced"])
    for key in ("train_s", "predict_s", "experiment_s"):
        metrics[f"trace.overhead.{key}"] = (
            derive.median(c[key] for c in res["traced"])
            - derive.median(c[key] for c in res["plain"]))
    return metrics, stats


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so that its set-up
    and peak memory are its own; the last line merges their results."""
    import subprocess
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "mdp_tcm" / "cli.py").is_file():
        print(f"error: no mdp_tcm sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    import provenance
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        res = workloads.run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                     work, src)
    except workloads.CoverageError as exc:
        print(f"error: span coverage guard failed: {exc}", file=sys.stderr)
        return 3
    except workloads.WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runner = res["runner"]
    if args.trace:
        metrics, stats = _per_layer(res)
    else:
        metrics, stats = _end_to_end(res)
    units = END_TO_END if not args.trace else {}
    prov = provenance.collect(ROOT)
    failed = sum(1 for c in runner.commands if not c.ok)
    result = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "measured_s": res["measured_s"], "provenance": prov,
        "instrumented_sites": res["sites"], "digests": runner.digests,
        "problems": runner.problems, "stats": stats,
        "cycles": {"plain": res["plain"], "traced": res["traced"]},
    }
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(res['plain'])} untraced + {len(res['traced'])} traced cycles "
          f"in {res['measured_s']:.1f} s")
    for name in sorted(set(metrics) | set(stats)):
        value = metrics.get(name, stats[name]["median"] if name in stats else None)
        unit = units.get(name) or _layer_unit(name)
        s = stats.get(name)
        spread = (f"  (median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}"
                  + (f", p{s['tail_percentile']:g} {s['tail_value']:.6g}"
                     if s["tail_percentile"] else "") + ")" if s else "")
        print(f"  {name} = {value:.6g} {unit}{spread}")
    for p in runner.problems:
        print(f"  FAILED {p}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runner.commands), "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or _layer_unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("_um"):
        return "um"
    if name.endswith(("share", "overlap", "cpu_util", "gmean")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    # a spawned worker process re-imports this file under this name: trace
    # it too when the parent is tracing
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    _WORKER_INSTRUMENTATION = spans.install_in_worker()
