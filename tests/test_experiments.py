"""Single-seed smoke checks of the trial harness; the 10-seed sweeps live in
the acceptance module."""

from mdp_tcm.experiments import (FRAMEWORKS, N_TEST_RUNS, TrialConfig,
                                 fleet_framework_trial, fleet_sensor_subset_trial,
                                 imbalance_trial, window_spec_for)
from mdp_tcm.signal_pipeline import window_runs
from mdp_tcm.synth import SynthConfig, generate_run

FAST = TrialConfig(synth=SynthConfig.desk(run_seconds=60.0, noise_scale=1.5))


def test_windowing_helper_roundtrip():
    cfg = SynthConfig.desk(run_seconds=20.0)
    ds, _ = window_runs([(generate_run(cfg, 1), window_spec_for(cfg))])
    assert len(ds) > 100
    assert ds.frames.min() >= 0.0 and ds.frames.max() <= 1.0


def test_imbalance_trial_fields():
    r = imbalance_trial(0, FAST)
    assert 0.0 <= r["gmean_dbn"] <= 1.0
    assert 0.0 <= r["gmean_ecs"] <= 1.0
    assert len(r["costs"]) == 4


def test_framework_trial_fields():
    r = fleet_framework_trial(0, FAST)
    assert r["rmse_mdp"] > 0.0 and r["rmse_single"] > 0.0
    assert len(r["per_run"]) == N_TEST_RUNS
    assert tuple(r["reports"]) == FRAMEWORKS
    assert r["reports"]["multistate"].rmse == r["rmse_mdp"]
    better, total = r["specialist_wins"]
    assert 0 <= better <= total <= 4


def test_sensor_subset_trial_keys():
    r = fleet_sensor_subset_trial(0, {"force": ["force"], "all": None}, FAST)
    assert set(r) == {"force", "all"}
    assert all(v > 0 for v in r.values())
