"""Single-seed smoke checks of the trial harness; the 10-seed sweeps live in
the acceptance module."""

from dataclasses import replace

from mdp_tcm import fanout
from mdp_tcm.adaptive_de import DeConfig
from mdp_tcm.experiments import (DESK_MDP, FRAMEWORKS, N_TEST_RUNS, TrialConfig,
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


def test_forked_trial_equals_trial_in_turn():
    # the premise of the acceptance fan-out: a trial in a forked worker
    # gives every figure of the same trial run in this process
    budget = dict(pretrain_epochs=2, finetune_epochs=40)
    trial = replace(FAST, mdp=replace(DESK_MDP,
                                      classifier=replace(DESK_MDP.classifier, **budget),
                                      regressor=replace(DESK_MDP.regressor, **budget),
                                      de=DeConfig(population_size=8, max_generations=4)))
    in_turn = [fleet_framework_trial(seed, trial) for seed in (0, 1)]
    forked = list(fanout.map_forked(lambda seed: fleet_framework_trial(seed, trial),
                                    [0, 1], 2))
    # compared by repr: a report's NaN fields are never == each other
    assert repr(forked) == repr(in_turn)
