"""Spans recorded around calls into mdp_tcm from the benchmark's own code.

`Tracer` keeps finished spans in memory. `Instrumentation` replaces each listed
library function by a wrapper that records one span per call, under every
name an mdp_tcm module holds it by (`cli.estimate_wear_detailed`,
`multistate.evolve`, ...), so a call is recorded whichever module makes it.

Spans made on a thread attach to the span open on that thread, or else to
the tracer's root span. Spans made in a worker process go to a spool
directory, one JSON-lines file per process, and `merge_spool` folds them
back into the parent's list:

* a forked worker inherits the tracer and the wrappers, and writes its
  spans when the outermost span it opened itself closes;
* a spawned worker starts from a fresh import; it finds the spool
  directory in `SPOOL_ENV` and calls `install_in_worker`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
import weakref
from pathlib import Path

SPOOL_ENV = "PERFBENCH_SPOOL"

# span ids are unique within a process across tracers; the pid prefix
# keeps them unique across worker processes
_IDS = itertools.count(1)


class Tracer:
    """In-memory span store for one benchmark process."""

    def __init__(self, spool_dir=None, owner_pid: int | None = None):
        self.owner_pid = os.getpid() if owner_pid is None else owner_pid
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.spans: list[dict] = []
        self.root: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pending: list[dict] = []
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _reset_in_child(ref))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> dict | None:
        """The innermost span open on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, **fields):
        """Record the enclosed block as one span; yields its field dict."""
        stack = self._stack()
        pid = os.getpid()
        rec = {"id": f"{pid}-{next(_IDS)}", "name": name, "pid": pid,
               "parent": stack[-1]["id"] if stack else self.root,
               "thread": threading.get_ident(), "fields": dict(fields)}
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec["fields"]
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self._finish(rec, outermost=not any(r["pid"] == pid for r in stack))

    def _finish(self, rec: dict, outermost: bool) -> None:
        if os.getpid() == self.owner_pid:
            with self._lock:
                self.spans.append(rec)
            return
        # worker process: hand the spans to the parent through the spool
        with self._lock:
            self._pending.append(rec)
            if not outermost:
                return
            batch, self._pending = self._pending, []
        if self.spool_dir is None:
            raise RuntimeError("span recorded in a worker process without a spool")
        path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for r in batch:
                fh.write(json.dumps(r) + "\n")

    @contextlib.contextmanager
    def root_span(self, name: str, **fields):
        """A span that adopts every span without an open parent: those made
        on other threads and in worker processes while it is open."""
        with self.span(name, **fields) as extra:
            rec, previous = self.current(), self.root
            self.root = rec["id"]
            try:
                yield extra
            finally:
                self.root = previous
                self.merge_spool(rec["id"])

    def merge_spool(self, default_parent: str | None) -> None:
        """Move worker-process spans from the spool into this tracer.

        A forked worker's spans keep the parent-process span they were
        opened under; a spawned worker's top spans have no parent and
        attach to `default_parent`.
        """
        if self.spool_dir is None:
            return
        merged = []
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                merged += [json.loads(line) for line in fh if line.strip()]
            path.unlink()
        for rec in merged:
            if rec["parent"] is None:
                rec["parent"] = default_parent
            rec["worker"] = True
        with self._lock:
            self.spans += merged

    def take(self) -> list[dict]:
        """Return and clear the recorded spans."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _reset_in_child(ref) -> None:
    tracer = ref()
    if tracer is not None:
        # the parent's lock may have been held by another thread at fork
        tracer._lock = threading.Lock()
        tracer._pending = []


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _size_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _sgd_fields(args, result) -> dict:
    sizes = [int(s) for s in args["sizes"]]
    n = int(args["X"].shape[0])
    weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    # forward 2, backward 4 flops per weight and frame
    return {"batches": math.ceil(n / int(args["batch_size"])),
            "gflop": 6.0 * n * weights / 1e9}


def _route_fields(args, result) -> dict:
    states = result[0]
    dedicated = int(sum(int((states == s).sum()) for s in args["model"].regressors))
    return {"dedicated_frames": dedicated,
            "fallback_frames": int(len(states)) - dedicated}


# (span name, defining module, attribute names, fields(args, result) or None).
# Every attribute must exist, except that the SGD kernel is found under any
# of its names; an absent function is an error, never a silent zero.
TIMED = [
    ("synth.generate_fleet", "mdp_tcm.synth", ("generate_fleet",), None),
    ("synth.write_run_csv", "mdp_tcm.synth", ("write_run_csv",),
     lambda a, r: {"mb": _size_mb(a["path"])}),
    ("signal_pipeline.load_run_csv", "mdp_tcm.signal_pipeline", ("load_run_csv",),
     lambda a, r: {"rows": int(len(r[1]))}),
    ("signal_pipeline.build_dataset", "mdp_tcm.signal_pipeline", ("build_dataset",),
     lambda a, r: {"frames": int(len(r))}),
    ("rbm.train_rbm", "mdp_tcm.rbm", ("train_rbm",), None),
    ("kernels.cd_epoch", "mdp_tcm._kernels", ("cd_epoch",), None),
    ("dbn.finetune_classifier", "mdp_tcm.dbn", ("finetune_classifier",), None),
    ("dbn.finetune_regressor", "mdp_tcm.dbn", ("finetune_regressor",), None),
    ("kernels.sgd_epoch", "mdp_tcm._kernels",
     ("classifier_epoch", "regressor_epoch", "sgd_epoch"), _sgd_fields),
    ("dbn.predict", "mdp_tcm.dbn", ("predict_proba", "predict_regression"), None),
    ("adaptive_de.evolve", "mdp_tcm.adaptive_de", ("evolve",), None),
    ("multistate.train_mdp", "mdp_tcm.multistate", ("train_mdp",), None),
    ("multistate.estimate_wear_detailed", "mdp_tcm.multistate",
     ("estimate_wear_detailed",), _route_fields),
    ("model_io.save_model", "mdp_tcm.model_io", ("save_model",),
     lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("model_io.load_model", "mdp_tcm.model_io", ("load_model",), None),
]
OPTIONAL_ATTRS = {"classifier_epoch", "regressor_epoch", "sgd_epoch"}

# DE objective evaluations are counted on the enclosing span, not timed
OBJECTIVE_FACTORY = ("mdp_tcm.adaptive_de", "make_gmean_objective")


def _timed_wrapper(tracer: Tracer, name: str, fn, fields):
    sig = inspect.signature(fn) if fields is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as extra:
            result = fn(*args, **kwargs)
            if fields is not None:
                extra.update(fields(sig.bind(*args, **kwargs).arguments, result))
            return result
    return wrapper


def _objective_wrapper(tracer: Tracer, factory):
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        objective = factory(*args, **kwargs)
        owner = tracer.current()
        if owner is None:
            return objective

        def counted(costs):
            owner["fields"]["objective_evals"] = owner["fields"].get("objective_evals", 0) + 1
            return objective(costs)
        return counted
    return wrapper


class Instrumentation:
    """Wrappers installed into every mdp_tcm module that references a
    listed function. `sites` names each replaced reference."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.sites: list[str] = []
        self._undo: list[tuple] = []

    def install(self) -> "Instrumentation":
        import mdp_tcm.cli  # noqa: F401  (loads every module the CLI uses)
        plan = []  # checked in full before anything is replaced
        for name, module, attrs, fields in TIMED:
            mod = importlib.import_module(module)
            present = [a for a in attrs if hasattr(mod, a)]
            missing = [a for a in attrs if a not in present and a not in OPTIONAL_ATTRS]
            if missing or not present:
                raise RuntimeError(f"cannot instrument {name}: {module} lacks "
                                   f"{missing or list(attrs)}")
            for attr in present:
                fn = getattr(mod, attr)
                plan.append((fn, _timed_wrapper(self.tracer, name, fn, fields)))
        factory = getattr(importlib.import_module(OBJECTIVE_FACTORY[0]), OBJECTIVE_FACTORY[1])
        plan.append((factory, _objective_wrapper(self.tracer, factory)))
        for original, wrapper in plan:
            self._replace(original, wrapper)
        return self

    def _replace(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mdp_tcm" or mod_name.startswith("mdp_tcm.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    self.sites.append(f"{mod_name.removeprefix('mdp_tcm.')}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def install_in_worker() -> Instrumentation | None:
    """Trace a spawned worker process whose parent exported a spool.

    Returns the installed instrumentation, or None when the parent is not
    tracing.
    """
    spool = os.environ.get(SPOOL_ENV)
    if not spool:
        return None
    return Instrumentation(Tracer(spool_dir=spool, owner_pid=-1)).install()
