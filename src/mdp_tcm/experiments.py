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
from .multistate import (MdpTrainConfig, diagnose, estimate_wear_detailed, state_rows,
                         train_diagnoser, train_mdp)
from .signal_pipeline import FrameDataset, N_STATES, WindowSpec, split, window_runs
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

# runs per generated fleet: the training pool, then the held-out runs
N_TRAIN_RUNS = 2
N_TEST_RUNS = 1

# framework names, in the order the CLI reports them
FRAMEWORKS = ("multistate-smoothed", "multistate", "single-state-dbn")


def window_spec_for(config: SynthConfig) -> WindowSpec:
    return WindowSpec(spindle_rpm=config.spindle_rpm,
                      sampling_rate_hz=config.sampling_rate_hz)


@dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for one seeded trial at desk scale."""

    synth: SynthConfig = field(default_factory=lambda: SynthConfig.desk(run_seconds=90.0))
    mdp: MdpTrainConfig = DESK_MDP


def _fleet_datasets(trial: TrialConfig, seed: int):
    """(pool, train rows, per-run test datasets): a generated fleet in one
    frame matrix, split by run, leakage free; the test datasets are
    row-slice views of the pool."""
    pool, bounds = window_runs((run, window_spec_for(trial.synth)) for run in generate_fleet(
        trial.synth, N_TRAIN_RUNS + N_TEST_RUNS, seed * 1000 + 17))
    tests = [pool.subset(slice(start, stop)) for start, stop in bounds[N_TRAIN_RUNS:]]
    return pool, np.arange(bounds[N_TRAIN_RUNS - 1][1]), tests


def imbalance_trial(seed: int, trial: TrialConfig | None = None) -> dict:
    """Plain-argmax vs cost-evolved G-mean on an imbalanced state dataset:
    a seeded frame split of the rows of two runs."""
    trial = trial or TrialConfig()
    pool, _ = window_runs((run, window_spec_for(trial.synth))
                          for run in generate_fleet(trial.synth, N_TRAIN_RUNS, seed * 1000 + 29))
    train, test = split(len(pool), 0.85, seed)
    diagnoser, _, _ = train_diagnoser(pool, trial.mdp, seed, rows=train)
    tuned, posteriors = diagnose(diagnoser, pool.frames[test])
    plain = np.argmax(posteriors, axis=1)
    labels = pool.state_labels[test]
    return {
        "gmean_dbn": gmean(confusion(labels, plain, N_STATES)),
        "gmean_ecs": gmean(confusion(labels, tuned, N_STATES)),
        "costs": diagnoser.costs,
    }


def framework_trial(train: FrameDataset, test_runs, config: MdpTrainConfig,
                    seed: int, rows=None) -> dict:
    """Multi-state vs single-state wear estimation on held-out runs.

    The single-state baseline is the pipeline's own fallback regressor
    (trained on all frames with the same budget), so the comparison
    isolates the multi-state routing. `reports` holds one regression report
    per framework in FRAMEWORKS, over all test runs pooled. Given the
    index array `rows`, the models train on those rows of `train` (see
    `multistate.train_mdp`).
    """
    model, _ = train_mdp(train, config, seed, rows=rows)

    def train_rmse(reg, state):
        idx = state_rows(train, state, rows)
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
        "rmse_single": reports["single-state-dbn"].rmse,
        "reports": reports,
        "specialist_wins": (sum(wins), len(wins)),
        "per_run": per_run,
    }


def sensor_subset_trial(train: FrameDataset, test_runs, subsets: dict,
                        config: dbn.TrainConfig, seed: int, rows=None) -> dict:
    """One regressor per channel subset, same budget each.

    `subsets` maps a name to a channel list, or to None for all channels.
    Returns the test regression report of each subset, by name. Given the
    index array `rows`, the regressors train on those rows of `train`.
    """
    results = {}
    for name, channels in subsets.items():
        tr = train if channels is None else train.select_channels(channels)
        tests = test_runs if channels is None else [t.select_channels(channels) for t in test_runs]
        hidden = dbn.draw_hidden_sizes(config, substream(seed, f"arch-{name}"))
        sizes = (tr.n_features,) + hidden + (1,)
        model, _ = dbn.train_network(tr.frames, tr.wear_targets, sizes, dbn.LINEAR, config,
                                     seed, rows)
        preds = [dbn.predict_regression(model, t.frames) for t in tests]
        wear = np.concatenate([t.wear_targets for t in tests])
        results[name] = regression_report(wear, np.concatenate(preds))
    return results


def fleet_framework_trial(seed: int, trial: TrialConfig | None = None) -> dict:
    """framework_trial on a fleet generated from the seed."""
    trial = trial or TrialConfig()
    pool, rows, test_runs = _fleet_datasets(trial, seed)
    return framework_trial(pool, test_runs, trial.mdp, seed, rows)


def fleet_sensor_subset_trial(seed: int, subsets: dict,
                              trial: TrialConfig | None = None) -> dict:
    """Test RMSE per channel subset on a fleet generated from the seed."""
    trial = trial or TrialConfig()
    pool, rows, test_runs = _fleet_datasets(trial, seed)
    reports = sensor_subset_trial(pool, test_runs, subsets, trial.mdp.regressor, seed, rows)
    return {name: report.rmse for name, report in reports.items()}
