"""Span recording across threads and worker processes, and the wrappers."""

import concurrent.futures
import multiprocessing
import os
import threading

import numpy as np
import pytest

import spans
from mdp_tcm import cli, dbn, multistate


def tiny_predict(_):
    """Worker task: one call through a wrapped library function."""
    model = dbn.init_model((3, 2, 4), dbn.SOFTMAX, np.random.default_rng(0))
    return dbn.predict_proba(model, np.zeros((5, 3))).shape


class TestTracer:
    def test_nested_spans_link_to_their_parent(self):
        tracer = spans.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", rows=3) as fields:
                fields["frames"] = 1
        inner, outer = tracer.take()
        assert inner["parent"] == outer["id"] and outer["parent"] is None
        assert inner["fields"] == {"rows": 3, "frames": 1}
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
        assert tracer.take() == []

    def test_thread_spans_attach_to_the_root_span(self):
        tracer = spans.Tracer()
        barrier = threading.Barrier(4, timeout=10)

        def work():
            barrier.wait()
            for _ in range(50):
                with tracer.span("trial"):
                    pass

        with tracer.root_span("cli.compare-frameworks"):
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        recorded = tracer.take()
        root = next(s for s in recorded if s["name"] == "cli.compare-frameworks")
        trials = [s for s in recorded if s["name"] == "trial"]
        assert len(trials) == 200
        assert len({s["id"] for s in recorded}) == len(recorded)
        assert all(s["parent"] == root["id"] for s in trials)


class TestInstrumentation:
    def test_wraps_every_reference_and_restores_them(self):
        original = multistate.estimate_wear_detailed
        tracer = spans.Tracer()
        with spans.Instrumentation(tracer) as inst:
            assert cli.estimate_wear_detailed is not original
            assert multistate.estimate_wear_detailed is cli.estimate_wear_detailed
            assert "cli.estimate_wear_detailed" in inst.sites
            assert "multistate.evolve" in inst.sites
            assert "cli.load_run_csv" in inst.sites
        assert cli.estimate_wear_detailed is original
        assert multistate.estimate_wear_detailed is original

    def test_records_one_span_per_call(self):
        tracer = spans.Tracer()
        with spans.Instrumentation(tracer):
            tiny_predict(None)
        (rec,) = tracer.take()
        assert rec["name"] == "dbn.predict"

    def test_a_missing_function_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(spans, "TIMED", spans.TIMED + [
            ("dbn.gone", "mdp_tcm.dbn", ("no_such_function",), None)])
        with pytest.raises(RuntimeError, match="dbn.gone"):
            spans.Instrumentation(spans.Tracer()).install()


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_worker_process_spans_are_merged(tmp_path, monkeypatch, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} start method unavailable")
    monkeypatch.setenv(spans.SPOOL_ENV, str(tmp_path))
    tracer = spans.Tracer(spool_dir=tmp_path)
    ctx = multiprocessing.get_context(method)
    with spans.Instrumentation(tracer):
        with tracer.root_span("cli.compare-frameworks"):
            # a spawned worker starts from a fresh import: the initializer
            # stands in for the benchmark's __mp_main__ hook
            init = spans.install_in_worker if method == "spawn" else None
            with concurrent.futures.ProcessPoolExecutor(2, mp_context=ctx,
                                                        initializer=init) as pool:
                assert list(pool.map(tiny_predict, range(3), timeout=120)) == [(5, 4)] * 3
    recorded = tracer.take()
    root = next(s for s in recorded if s["name"] == "cli.compare-frameworks")
    workers = [s for s in recorded if s.get("worker")]
    assert len(workers) == 3
    assert all(s["name"] == "dbn.predict" and s["parent"] == root["id"] for s in workers)
    assert all(s["pid"] != os.getpid() for s in workers)
    assert list(tmp_path.glob("spans-*.jsonl")) == []


def test_spawned_worker_hook_in_run_py(tmp_path, monkeypatch):
    # multiprocessing's spawn start method re-imports the parent's main
    # script under the name __mp_main__
    import runpy

    from conftest import BENCH

    monkeypatch.setenv(spans.SPOOL_ENV, str(tmp_path))
    namespace = runpy.run_path(str(BENCH / "run.py"), run_name="__mp_main__")
    try:
        assert namespace["_WORKER_INSTRUMENTATION"].tracer.spool_dir == tmp_path
        assert "dbn.predict_proba" in namespace["_WORKER_INSTRUMENTATION"].sites
        tiny_predict(None)
        assert len(list(tmp_path.glob("spans-*.jsonl"))) == 1
    finally:
        namespace["_WORKER_INSTRUMENTATION"].uninstall()
