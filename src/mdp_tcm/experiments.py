"""Seeded end-to-end experiment trials on the synthetic fleet.

A trial trains fresh models on a training pool and scores them on held-out
runs. The CLI runs the trial functions on the runs it loads; the `fleet_*`
wrappers first regenerate the data from the trial seed, so repeated trials
give honest mean/std spreads. The comparisons mirror the pipeline's claims:
cost-evolved classification vs plain argmax on imbalanced states,
multi-state routing vs one global regressor, smoothed vs raw estimates, and
multi-sensor fusion vs single channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dbn
from .adaptive_de import DeConfig
from .metrics import confusion, gmean, regression_report, rmse
from .multistate import (MdpTrainConfig, diagnose, estimate_wear_detailed, train_diagnoser,
                         train_mdp)
from .signal_pipeline import FrameDataset, N_STATES, WindowSpec, build_dataset, split
from .synth import SynthConfig, generate_fleet
from .seeding import substream

# deliberately small training budgets: the directional comparisons hold at
# desk scale without paper-sized epoch counts
DESK_CLASSIFIER = dbn.TrainConfig(pretrain_epochs=10, finetune_epochs=300,
                                  learning_rate=0.03, batch_size=128,
                                  hidden_range=(5, 60))
DESK_REGRESSOR = replace(DESK_CLASSIFIER, learning_rate=0.003)
DESK_DE = DeConfig(population_size=30, max_generations=50)
DESK_MDP = MdpTrainConfig(classifier=DESK_CLASSIFIER, regressor=DESK_REGRESSOR, de=DESK_DE)

SINGLE_CHANNEL_SUBSETS = {"force": ["force"], "torque": ["torque"], "vib1_x": ["vib1_x"]}

# framework names, in the order the CLI reports them
FRAMEWORKS = ("multistate-smoothed", "multistate", "single-state-dbn")


def window_spec_for(config: SynthConfig) -> WindowSpec:
    return WindowSpec(spindle_rpm=config.spindle_rpm,
                      sampling_rate_hz=config.sampling_rate_hz)


def windowed_run(run, spec: WindowSpec) -> FrameDataset:
    return build_dataset(run.channels, spec, run.wear_trajectory)


@dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for one seeded trial at desk scale."""

    synth: SynthConfig = field(default_factory=lambda: SynthConfig.desk(run_seconds=90.0))
    mdp: MdpTrainConfig = DESK_MDP
    n_train_runs: int = 2
    n_test_runs: int = 1


def _fleet_datasets(trial: TrialConfig, seed: int):
    """Train pool plus per-run test datasets (run-level split, leakage free)."""
    spec = window_spec_for(trial.synth)
    runs = generate_fleet(trial.synth, trial.n_train_runs + trial.n_test_runs,
                          seed * 1000 + 17)
    datasets = [windowed_run(r, spec) for r in runs]
    train = FrameDataset.concat(datasets[:trial.n_train_runs])
    return train, datasets[trial.n_train_runs:]


def imbalance_trial(seed: int, trial: TrialConfig | None = None) -> dict:
    """Plain-argmax vs cost-evolved G-mean on an imbalanced state dataset."""
    trial = trial or TrialConfig()
    spec = window_spec_for(trial.synth)
    pooled = FrameDataset.concat([windowed_run(r, spec) for r in
                                  generate_fleet(trial.synth, trial.n_train_runs,
                                                 seed * 1000 + 29)])
    train, test = split(pooled, 0.85, seed)
    diagnoser, _, _ = train_diagnoser(train, trial.mdp, seed)
    tuned, posteriors = diagnose(diagnoser, test.frames)
    plain = np.argmax(posteriors, axis=1)
    return {
        "gmean_dbn": gmean(confusion(test.state_labels, plain, N_STATES)),
        "gmean_ecs": gmean(confusion(test.state_labels, tuned, N_STATES)),
        "costs": diagnoser.costs,
    }


def framework_trial(train: FrameDataset, test_runs, config: MdpTrainConfig,
                    seed: int) -> dict:
    """Multi-state vs single-state wear estimation on held-out runs.

    The single-state baseline is the pipeline's own fallback regressor
    (trained on all frames with the same budget), so the comparison
    isolates the multi-state routing. `reports` holds one regression report
    per framework in FRAMEWORKS, over all test runs pooled.
    """
    model, _ = train_mdp(train, config, seed)

    def train_rmse(reg, state):
        idx = train.state_labels == state
        return rmse(train.wear_targets[idx], dbn.predict_regression(reg, train.frames[idx]))

    # does each state's own regressor fit its state at least as well as the fallback?
    wins = [train_rmse(reg, state) <= train_rmse(model.fallback, state)
            for state, reg in model.regressors.items()]
    estimates = {name: [] for name in FRAMEWORKS}
    per_run = []
    for ds in test_runs:
        _, _, raw, smoothed = estimate_wear_detailed(model, ds.frames)
        single = dbn.predict_regression(model.fallback, ds.frames)
        per_run.append({
            "rmse_raw": rmse(ds.wear_targets, raw),
            "rmse_smoothed": rmse(ds.wear_targets, smoothed),
        })
        for name, est in zip(FRAMEWORKS, (smoothed, raw, single)):
            estimates[name].append(est)
    wear = np.concatenate([ds.wear_targets for ds in test_runs])
    reports = {name: regression_report(wear, np.concatenate(est))
               for name, est in estimates.items()}
    return {
        "rmse_mdp": reports["multistate"].rmse,
        "rmse_mdp_smoothed": reports["multistate-smoothed"].rmse,
        "rmse_single": reports["single-state-dbn"].rmse,
        "reports": reports,
        "specialist_wins": (sum(wins), len(wins)),
        "per_run": per_run,
    }


def sensor_subset_trial(train: FrameDataset, test_runs, subsets: dict,
                        config: dbn.TrainConfig, seed: int) -> dict:
    """One regressor per channel subset, same budget each.

    `subsets` maps a name to a channel list, or to None for all channels.
    Returns the test regression report of each subset, by name.
    """
    results = {}
    for name, channels in subsets.items():
        tr = train if channels is None else train.select_channels(channels)
        tests = test_runs if channels is None else [t.select_channels(channels) for t in test_runs]
        hidden = dbn.draw_hidden_sizes(config, substream(seed, f"arch-{name}"))
        sizes = (tr.n_features,) + hidden + (1,)
        model, _ = dbn.train_regressor(tr.frames, tr.wear_targets, sizes, config, seed)
        preds = [dbn.predict_regression(model, t.frames) for t in tests]
        wear = np.concatenate([t.wear_targets for t in tests])
        results[name] = regression_report(wear, np.concatenate(preds))
    return results


def fleet_framework_trial(seed: int, trial: TrialConfig | None = None) -> dict:
    """framework_trial on a fleet generated from the seed."""
    trial = trial or TrialConfig()
    train, test_runs = _fleet_datasets(trial, seed)
    return framework_trial(train, test_runs, trial.mdp, seed)


def fleet_sensor_subset_trial(seed: int, subsets: dict,
                              trial: TrialConfig | None = None) -> dict:
    """Test RMSE per channel subset on a fleet generated from the seed."""
    trial = trial or TrialConfig()
    train, test_runs = _fleet_datasets(trial, seed)
    reports = sensor_subset_trial(train, test_runs, subsets, trial.mdp.regressor, seed)
    return {name: report.rmse for name, report in reports.items()}
