"""Acceptance gate: every shipped claim checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The directional criteria regenerate their synthetic fleets
and retrain from scratch across 10 seeds, so this module dominates the
suite's runtime (several minutes at desk scale).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from mdp_tcm import _kernels, dbn, metrics, rbm
from mdp_tcm.adaptive_de import DeConfig, optimize
from mdp_tcm.cost_sensitive import CostVector, predict_cs
from mdp_tcm.experiments import (SINGLE_CHANNEL_SUBSETS, TrialConfig,
                                 fleet_framework_trial, fleet_sensor_subset_trial,
                                 imbalance_trial)
from mdp_tcm.multistate import EcsDbnModel, MultiStateModel, estimate_wear
from mdp_tcm.seeding import substream
from mdp_tcm.signal_pipeline import WindowSpec, compute_window_size
from mdp_tcm.synth import SynthConfig

from cli_support import run_cli

N_SEEDS = 10
IMBALANCE_TRIAL = TrialConfig(synth=SynthConfig.desk(run_seconds=90.0, noise_scale=2.0))
FRAMEWORK_TRIAL = TrialConfig(synth=SynthConfig.desk(run_seconds=90.0, noise_scale=1.5))


@contextmanager
def report(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def framework_results():
    t0 = time.perf_counter()
    results = [fleet_framework_trial(seed, FRAMEWORK_TRIAL) for seed in range(N_SEEDS)]
    return results, time.perf_counter() - t0


def test_criterion_01_rbm_exactness():
    with report(1, "rbm-exactness"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            nv = int(rng.integers(1, 5))
            nh = int(rng.integers(1, 4))
            params = rbm.RbmParams(rng.normal(0, 1.5, (nv, nh)),
                                   rng.normal(0, 1.5, nv), rng.normal(0, 1.5, nh))
            v = rng.integers(0, 2, nv).astype(float)
            h = rng.integers(0, 2, nh).astype(float)
            worst = max(worst, np.max(np.abs(
                rbm.prob_h_given_v(params, v) - rbm.exact_conditional(params, v))))
            # visible conditional against the joint table
            vs, hs, joint = rbm.exact_joint(params)
            ih = int(np.nonzero((hs == h).all(axis=1))[0][0])
            cond_v = joint[:, ih] / joint[:, ih].sum()
            worst = max(worst, np.max(np.abs(
                cond_v @ vs - rbm.prob_v_given_h(params, h))))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-10, f"closed form vs enumeration: {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_gradient_fidelity():
    from test_dbn import fd_gradient, make_model, rel_err
    with report(2, "gradient-fidelity"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(102)
        worst = 0.0
        for trial in range(10):
            clf = make_model((6, 4, 3), dbn.SOFTMAX, seed=300 + trial)
            x = rng.random((8, 6))
            y = rng.integers(0, 3, 8)
            worst = max(worst, rel_err(dbn.batch_gradient(clf, x, y),
                                       fd_gradient(lambda m: dbn.classifier_loss(m, x, y), clf)))
            reg = make_model((6, 4, 3, 1), dbn.LINEAR, seed=400 + trial)
            t = rng.random(8) * 3.0
            worst = max(worst, rel_err(dbn.batch_gradient(reg, x, t),
                                       fd_gradient(lambda m: dbn.regressor_loss(m, x, t), reg)))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_cd_learning():
    with report(3, "cd-learning"):
        t0 = time.perf_counter()
        data = np.tile(np.array([[1.0, 1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, 1.0]]), (25, 1))
        rng = np.random.default_rng(103)
        p0 = rbm.init_params(4, 8, rng)
        before = rbm.reconstruction_cross_entropy(p0, data)
        trained, _ = rbm.train_rbm(
            p0, data, rbm.CdConfig(epochs=200, learning_rate=0.01,
                                   batch_size=2, gibbs_steps=1), substream(103, "cd"))
        after = rbm.reconstruction_cross_entropy(trained, data)
        elapsed = time.perf_counter() - t0
        assert after <= 0.5 * before, f"cross-entropy {before:.3f} -> {after:.3f}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_04_metric_oracles():
    with report(4, "metric-oracles"):
        tol = 1e-12
        y = [0, 1, 2, 3]
        assert abs(metrics.accuracy(y, [0, 1, 2, 0]) - 0.75) < tol
        c = metrics.confusion([1] * 100 + [0] * 100,
                              [1] * 50 + [0] * 150, 2)
        assert abs(metrics.per_class_gmean(c)[1] - np.sqrt(0.5)) < tol
        assert abs(metrics.per_class_precision(c)[1] - 1.0) < tol
        assert abs(metrics.per_class_recall(c)[1] - 0.5) < tol
        assert abs(metrics.per_class_f1(c)[1] - (2 * 0.5 / 1.5)) < tol
        assert abs(metrics.rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(12.5)) < tol
        assert abs(metrics.mape([100.0], [90.0]) - 0.1) < tol
        # the three coefficient-of-determination anchor cases
        base = np.array([1.0, 2.0, 3.0, 7.0])
        assert abs(metrics.r2score(base, base) - 1.0) < tol
        assert abs(metrics.r2score(base, np.full(4, base.mean())) - 0.0) < tol
        assert metrics.r2score(base, base[::-1] * 3.0) < 0.0


def test_criterion_05_cost_layer_reduction():
    with report(5, "cost-layer-reduction"):
        rng = np.random.default_rng(105)
        p = rng.random((10_000, 4))
        p /= p.sum(axis=1, keepdims=True)
        preds = predict_cs(p, CostVector.uniform(4))
        assert np.array_equal(preds, np.argmax(p, axis=1))


def test_criterion_06_de_competence():
    with report(6, "de-competence"):
        t0 = time.perf_counter()
        target = np.array([0.9, 0.1, 0.5, 0.5])

        def objective(c):
            return 1.0 - np.abs(c - target).sum() / 4.0

        hits = 0
        for seed in range(10):
            best, history = optimize(objective, 4, DeConfig(), substream(seed, "de"))
            assert np.all(np.diff(history["best_fitness"]) >= 0.0)
            if 1.0 - objective(best) <= 0.05:
                hits += 1
        elapsed = time.perf_counter() - t0
        assert hits >= 9, f"only {hits}/10 seeds reached the optimum band"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_07_imbalance_finding():
    with report(7, "imbalance-finding"):
        t0 = time.perf_counter()
        results = [imbalance_trial(seed, IMBALANCE_TRIAL) for seed in range(N_SEEDS)]
        elapsed = time.perf_counter() - t0
        wins = sum(r["gmean_ecs"] >= r["gmean_dbn"] for r in results)
        mean_gain = float(np.mean([r["gmean_ecs"] - r["gmean_dbn"] for r in results]))
        print(f"  ecs-vs-dbn g-mean: {wins}/10 wins, mean gain {mean_gain:+.4f}, "
              f"{elapsed:.0f}s")
        assert wins >= 8
        assert mean_gain > 0.0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_08_multistate_finding(framework_results):
    results, elapsed = framework_results
    with report(8, "multistate-finding"):
        wins = sum(r["rmse_mdp"] < r["rmse_single"] for r in results)
        mdp = np.mean([r["rmse_mdp"] for r in results])
        single = np.mean([r["rmse_single"] for r in results])
        # directional: specialists fit their own state at least as well as
        # the shared global model on the training distribution
        better = sum(r["specialist_wins"][0] for r in results)
        total = sum(r["specialist_wins"][1] for r in results)
        print(f"  mdp {mdp:.2f} vs single {single:.2f} um, {wins}/10 wins; "
              f"specialists better on own state {better}/{total}; {elapsed:.0f}s")
        assert wins >= 8
        assert better >= 0.75 * total
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_09_smoothing_finding(framework_results):
    results, _ = framework_results
    with report(9, "smoothing-finding"):
        runs = [p for r in results for p in r["per_run"]]
        bad = [p for p in runs if p["rmse_smoothed"] >= p["rmse_raw"]]
        print(f"  smoothed < raw on {len(runs) - len(bad)}/{len(runs)} test runs")
        assert not bad


def test_criterion_10_sensor_fusion_finding():
    with report(10, "sensor-fusion-finding"):
        t0 = time.perf_counter()
        subsets = dict(SINGLE_CHANNEL_SUBSETS)
        subsets["all"] = None
        wins = 0
        for seed in range(N_SEEDS):
            r = fleet_sensor_subset_trial(seed, subsets, FRAMEWORK_TRIAL)
            wins += all(r["all"] < r[name] for name in SINGLE_CHANNEL_SUBSETS)
        elapsed = time.perf_counter() - t0
        print(f"  fused beats every single channel in {wins}/10 seeds, {elapsed:.0f}s")
        assert wins >= 8
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_11_pipeline_reductions():
    with report(11, "pipeline-reductions"):
        spec = WindowSpec(spindle_rpm=1200.0, sampling_rate_hz=20000.0, multiple=1)
        assert compute_window_size(spec) == 1000

        rng = np.random.default_rng(111)
        base = dbn.DbnModel((6, 5, 4), dbn.SOFTMAX,
                            rng.normal(0, 0.4, _kernels.theta_size((6, 5, 4))))
        reg = dbn.DbnModel((6, 5, 1), dbn.LINEAR,
                           rng.normal(0, 0.4, _kernels.theta_size((6, 5, 1))))
        model = MultiStateModel(EcsDbnModel(base, CostVector.uniform(4)), {},
                                reg, smoothing_window=None)
        frames = rng.random((300, 6))
        assert np.array_equal(estimate_wear(model, frames),
                              dbn.predict_regression(reg, frames))


def test_criterion_12_cli_reproducibility(tmp_path):
    from test_cli import tree_bytes
    with report(12, "cli-reproducibility"):
        flags = ["--pretrain-epochs", "3", "--finetune-epochs", "40",
                 "--classifier-learning-rate", "0.01",
                 "--regressor-learning-rate", "0.003",
                 "--batch-size", "64", "--hidden-range", "4,8",
                 "--de-population", "8", "--de-generations", "4",
                 "--smoothing-window", "10"]
        snapshots = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            data = root / "data"
            assert run_cli(["generate", "--out", str(data), "--runs", "2",
                            "--seed", "3", "--desk-scale",
                            "--run-seconds", "25"]) == 0
            model = root / "pipeline.model"
            assert run_cli(["train", "--data", str(data), "--out", str(model),
                            "--kind", "multistate", "--seed", "3",
                            "--train-ratio", "1.0"] + flags) == 0
            assert run_cli(["predict", "--model", str(model),
                            "--run", str(sorted(data.glob('*.csv'))[0]),
                            "--out", str(root / "pred.csv")]) == 0
            assert run_cli(["evaluate", "--data", str(data), "--model",
                            str(model), "--out", str(root / "rep")]) == 0
            snapshots.append(tree_bytes(root, suffixes=(".csv", ".model", ".txt")))
        assert snapshots[0] == snapshots[1]
        assert len(snapshots[0]) >= 6
