import argparse
import collections
import csv
import hashlib
import inspect
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mdp_tcm import _kernels, cli, dbn, experiments, model_io, signal_pipeline, synth
from mdp_tcm.cost_sensitive import CostVector
from mdp_tcm.errors import NumericError
from mdp_tcm.metrics import REPORT_KEYS
from mdp_tcm.model_io import load_model, read_model_file, save_model, write_model_file
from mdp_tcm.multistate import (EcsDbnModel, MultiStateModel, estimate_wear_detailed,
                                train_mdp)
from mdp_tcm.signal_pipeline import (WindowSpec, build_dataset,
                                     compute_window_size, load_run_csv)
from mdp_tcm.synth import read_run_meta

from cli_support import DE_FLAGS, TRAIN_FLAGS, run_cli
from test_fanout import pool_sizes


# the smallest budgets that still train every model a command trains
TINY_FLAGS = ["--pretrain-epochs", "1", "--finetune-epochs", "5", "--batch-size", "64",
              "--hidden-range", "4,6"]
TINY_DE_FLAGS = ["--de-population", "4", "--de-generations", "1"]


def _windowed(run_file):
    """The frames `predict` windows from a run file and its sidecar."""
    meta = read_run_meta(run_file.with_suffix(".meta"))
    channels, wear = load_run_csv(run_file)
    return build_dataset(channels, WindowSpec(
        spindle_rpm=float(meta["spindle_rpm"]),
        sampling_rate_hz=float(meta["sampling_rate_hz"])), wear)


@pytest.fixture(scope="module")
def force_torque_dir(tmp_path_factory, data_dir):
    """The fleet of `data_dir` with its force and torque channels alone."""
    out = tmp_path_factory.mktemp("force-torque")
    for f in cli._run_files(str(data_dir)):
        channels, wear = load_run_csv(f)
        signal_pipeline.write_csv(out / f.name, ["force", "torque", "wear_um"],
                                  [channels["force"], channels["torque"], wear])
        shutil.copy(f.with_suffix(".meta"), out / f.with_suffix(".meta").name)
    return out


def _spy(monkeypatch, module, name) -> list:
    """(arguments by parameter name, result) of each call of `module.name`
    from now on."""
    calls, original = [], getattr(module, name)
    signature = inspect.signature(original)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((signature.bind(*args, **kwargs).arguments, result))
        return result

    monkeypatch.setattr(module, name, spy)
    return calls


def tree_bytes(root, suffixes=(".csv", ".model", ".txt")):
    """Byte content of every non-sidecar file under root, keyed by name."""
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*"))
            if p.suffix in suffixes}


class TestGenerate:
    def test_writes_runs_and_sidecars(self, data_dir):
        assert len(list(data_dir.glob("*.csv"))) == 3
        assert len(list(data_dir.glob("*.meta"))) == 3

    def test_prints_state_counts(self, tmp_path, capsys):
        code = run_cli(["generate", "--out", str(tmp_path), "--runs", "1",
                        "--seed", "3", "--desk-scale", "--run-seconds", "30"])
        assert code == 0
        out = capsys.readouterr().out
        for state in range(4):
            assert f"state {state}:" in out

    def test_streams_one_run_at_a_time(self, tmp_path, capsys, monkeypatch):
        # 1300 rpm at 200 Hz: 9-sample windows, which 4060 samples do not fill
        config = synth.SynthConfig.desk(spindle_rpm=1300.0, run_seconds=20.3)
        spec = experiments.window_spec_for(config)
        assert 4060 % compute_window_size(spec) != 0
        alive, alive_at_call = [], []
        generate_run = synth.generate_run

        def tracked(*args, **kwargs):
            alive_at_call.append(sum(ref() is not None for ref in alive))
            run = generate_run(*args, **kwargs)
            alive.append(weakref.ref(run))
            return run

        monkeypatch.setattr(synth, "generate_run", tracked)
        assert run_cli(["generate", "--out", str(tmp_path), "--runs", "3", "--seed", "4",
                        "--desk-scale", "--rpm", "1300", "--run-seconds", "20.3"]) == 0
        assert len(alive_at_call) == 3 and max(alive_at_call) <= 1
        monkeypatch.undo()
        want = sum(np.bincount(build_dataset(run.channels, spec,
                                             run.wear_trajectory).state_labels, minlength=4)
                   for run in synth.generate_fleet(config, 3, 4))
        got = [int(n) for n in re.findall(r"state \d: (\d+) frames",
                                          capsys.readouterr().out)]
        assert got == want.tolist()

    def test_run_shorter_than_a_window_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        # 0.01 s at 20 kHz is 200 samples; one rotation at 1650 rpm is 727
        assert run_cli(["generate", "--out", str(out), "--runs", "2",
                        "--run-seconds", "0.01"]) == 2
        assert ("data error: series of 200 samples is shorter than one window (727)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("band-frac", "2", "--band-frac 2: must lie in [0, 1]"),
        ("rpm", "-5", "--rpm -5: must be positive"),
        ("skew", "0.5", "--skew 0.5: must be >= 1"),
        ("noise-std", "-1", "--noise-std -1: must be nonnegative"),
        ("wear-end", "100", "--wear-end 100: must be >= 300 so all four states occur"),
        ("noise-scale", "-0.5", "--noise-scale -0.5: must be nonnegative"),
        ("run-seconds", "0", "--run-seconds 0: must be positive"),
    ])
    def test_range_error_is_usage_error_naming_the_flag(self, tmp_path, capsys, flag,
                                                        value, message):
        out = tmp_path / "out"
        assert run_cli(["generate", "--out", str(out), "--runs", "1", "--desk-scale",
                        "--run-seconds", "5", f"--{flag}={value}"]) == 1
        assert f"usage error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_zero_runs_is_usage_error(self, tmp_path):
        assert run_cli(["generate", "--out", str(tmp_path), "--runs", "0"]) == 1

    def test_repeat_invocation_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--runs", "2", "--seed", "9", "--desk-scale", "--run-seconds", "20"]
        assert run_cli(["generate", "--out", str(a)] + args) == 0
        assert run_cli(["generate", "--out", str(b)] + args) == 0
        assert tree_bytes(a) == tree_bytes(b)
        assert tree_bytes(a)  # non-empty


class TestTrain:
    def test_ecs_dbn_has_four_costs(self, tmp_path, data_dir):
        out = tmp_path / "ecs.model"
        code = run_cli(["train", "--data", str(data_dir), "--out", str(out),
                        "--kind", "ecs-dbn", "--seed", "2"] + TRAIN_FLAGS + DE_FLAGS)
        assert code == 0
        model = load_model(out)
        assert isinstance(model, EcsDbnModel)
        assert len(model.costs) == 4
        assert (tmp_path / "ecs.model.de_history.csv").exists()
        assert (tmp_path / "ecs.model.finetune_loss.csv").exists()

    def test_sparse_states_fall_back(self, tmp_path, data_dir, capsys):
        out = tmp_path / "ms.model"
        code = run_cli(["train", "--data", str(data_dir), "--out", str(out),
                        "--kind", "multistate", "--seed", "2",
                        "--min-state-samples", "100000"] + TRAIN_FLAGS + DE_FLAGS)
        assert code == 0
        assert "routing to fallback" in capsys.readouterr().out
        model = load_model(out)
        assert model.regressors == {}

    def test_train_repeat_byte_identical(self, tmp_path, data_dir):
        args = ["train", "--data", str(data_dir), "--kind", "dbn-regressor",
                "--seed", "4"] + TRAIN_FLAGS
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_kinds_train_the_multistate_sub_models(self, tmp_path, data_dir):
        models = {}
        for kind in ("multistate", "ecs-dbn", "dbn-classifier", "dbn-regressor"):
            out = tmp_path / f"{kind}.model"
            assert run_cli(["train", "--data", str(data_dir), "--out", str(out),
                            "--kind", kind, "--seed", "5"] + TINY_FLAGS + TINY_DE_FLAGS) == 0
            models[kind] = load_model(out)
        diagnoser = models["multistate"].diagnoser
        assert models["ecs-dbn"].base.theta.tobytes() == diagnoser.base.theta.tobytes()
        assert models["ecs-dbn"].costs.costs.tobytes() == diagnoser.costs.costs.tobytes()
        assert models["dbn-classifier"].theta.tobytes() == diagnoser.base.theta.tobytes()
        assert (models["dbn-regressor"].theta.tobytes()
                == models["multistate"].fallback.theta.tobytes())

    def test_missing_data_dir_is_data_error(self, tmp_path):
        assert run_cli(["train", "--data", str(tmp_path / "void"),
                        "--out", str(tmp_path / "m.model")]) == 2

    def test_finetune_loss_rows_match_epochs(self, tmp_path, data_dir):
        out = tmp_path / "reg.model"
        flags = [f for i, f in enumerate(TRAIN_FLAGS)
                 if TRAIN_FLAGS[i - i % 2] != "--finetune-epochs"]
        code = run_cli(["train", "--data", str(data_dir), "--out", str(out),
                        "--kind", "dbn-regressor", "--seed", "4",
                        "--finetune-epochs", "9"] + flags)
        assert code == 0
        rows = (tmp_path / "reg.model.finetune_loss.csv").read_text().splitlines()
        assert len(rows) == 1 + 9


class TestEvaluate:
    def test_saved_model_evaluation_deterministic(self, tmp_path, data_dir,
                                                  multistate_model):
        args = ["evaluate", "--data", str(data_dir), "--model",
                str(multistate_model)]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert (a.parent / "a.report.csv").read_bytes() == \
            (b.parent / "b.report.csv").read_bytes()

    def test_report_schema_keys_exact(self, tmp_path, data_dir, multistate_model):
        out = tmp_path / "rep"
        assert run_cli(["evaluate", "--data", str(data_dir), "--model",
                        str(multistate_model), "--out", str(out)]) == 0
        header = (tmp_path / "rep.report.csv").read_text().splitlines()[0]
        assert header.split(",") == list(REPORT_KEYS)
        kv = (tmp_path / "rep.report.txt").read_text()
        assert [line.split(" = ")[0] for line in kv.strip().splitlines()] \
            == list(REPORT_KEYS)

    def test_channel_subset_not_in_dataset(self, tmp_path, data_dir,
                                           multistate_model):
        code = run_cli(["evaluate", "--data", str(data_dir), "--model",
                        str(multistate_model), "--channels", "bogus",
                        "--out", str(tmp_path / "r")])
        assert code == 2

    @pytest.mark.parametrize("channels", ["swapped", "force"])
    def test_model_takes_every_channel_in_file_order(self, tmp_path, data_dir,
                                                     multistate_model, capsys, channels):
        if channels == "swapped":
            ids = list(cli._load_runs(str(data_dir), None)[0].channel_ids)
            ids[0], ids[1] = ids[1], ids[0]
            channels = ",".join(ids)
        assert run_cli(["evaluate", "--data", str(data_dir), "--model",
                        str(multistate_model), "--channels", channels,
                        "--out", str(tmp_path / "r")]) == 1
        assert f"usage error: --channels {channels!r}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_holdout_split_evaluation(self, tmp_path, data_dir):
        # a model trained on the training runs of the split that --holdout scores
        model = tmp_path / "split.model"
        assert run_cli(["train", "--data", str(data_dir), "--out", str(model),
                        "--seed", "1"] + TINY_FLAGS + TINY_DE_FLAGS) == 0
        out = tmp_path / "ho"
        code = run_cli(["evaluate", "--data", str(data_dir), "--model",
                        str(model), "--out", str(out),
                        "--holdout", "--split-mode", "run", "--seed", "1"])
        assert code == 0
        full = tmp_path / "full"
        assert run_cli(["evaluate", "--data", str(data_dir), "--model",
                        str(model), "--out", str(full)]) == 0
        assert (tmp_path / "ho.report.csv").read_text() \
            != (tmp_path / "full.report.csv").read_text()

    def test_a_model_that_is_not_multistate_scores_the_loaders_matrix(self, tmp_path,
                                                                      data_dir, monkeypatch):
        model = tmp_path / "reg.model"
        assert run_cli(["train", "--data", str(data_dir), "--out", str(model), "--kind",
                        "dbn-regressor", "--train-ratio", "1.0"] + TINY_FLAGS) == 0
        loads = _spy(monkeypatch, cli, "_load_runs")
        scored = _spy(monkeypatch, dbn, "predict_regression")
        assert run_cli(["evaluate", "--data", str(data_dir), "--model", str(model),
                        "--out", str(tmp_path / "ev")]) == 0
        (_, (pool, _)), = loads
        (arguments, _), = scored
        assert arguments["frames"] is pool.frames

    def test_holdout_counts_the_training_runs_without_pooling_them(self, tmp_path, data_dir,
                                                                  monkeypatch):
        model = tmp_path / "split.model"
        assert run_cli(["train", "--data", str(data_dir), "--out", str(model),
                        "--seed", "1"] + TINY_FLAGS + TINY_DE_FLAGS) == 0
        argv = ["evaluate", "--data", str(data_dir), "--model", str(model),
                "--holdout", "--seed", "1", "--out"]
        assert run_cli(argv + [str(tmp_path / "first")]) == 0

        # the held-out run is scored in the loader's own matrix, not in a copy,
        # and the model's payload is read once, by `load_model`
        loads = _spy(monkeypatch, cli, "_load_runs")
        scored = _spy(monkeypatch, cli, "estimate_wear_detailed")
        payload_reads = [_spy(monkeypatch, module, "read_model_file")
                         for module in (model_io, cli) if hasattr(module, "read_model_file")]
        assert run_cli(argv + [str(tmp_path / "second")]) == 0
        (_, (pool, _)), = loads
        (arguments, _), = scored
        assert np.shares_memory(arguments["frames"], pool.frames)
        assert sum(map(len, payload_reads)) == 1
        for suffix in (".report.csv", ".report.txt"):
            assert ((tmp_path / f"second{suffix}").read_bytes()
                    == (tmp_path / f"first{suffix}").read_bytes())

    @pytest.mark.parametrize("mismatch", ["frames", "seed", "no-echo"])
    def test_holdout_refuses_a_model_trained_on_other_runs(self, tmp_path, data_dir,
                                                           multistate_model, capsys,
                                                           mismatch):
        # the session model trained with --seed 5 on every run, held-out ones included
        model = multistate_model
        seed = 1 if mismatch == "seed" else 5
        pool = len(cli._split_runs(cli._load_runs(str(data_dir), None)[1], 0.85, seed)[0])
        trained_on = read_model_file(model)[2]["train.n_train_frames"]
        if mismatch == "no-echo":
            model = tmp_path / "bare.model"
            head, end, payload = multistate_model.read_bytes().partition(b"end-header\n")
            model.write_bytes(b"".join(line for line in head.splitlines(keepends=True)
                                       if not line.startswith(b"train.")) + end + payload)
        out = tmp_path / "ho"
        assert run_cli(["evaluate", "--data", str(data_dir), "--model", str(model),
                        "--out", str(out), "--holdout", "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert {"frames": f"data error: model {model} was trained on {trained_on} frames, "
                          f"but the training runs of this split hold {pool}",
                "seed": f"data error: model {model} was trained with seed 5, but "
                        "--holdout splits the runs with --seed 1",
                "no-echo": f"data error: model {model} does not record the seed and "
                           "frame count it was trained with"}[mismatch] in err
        assert not list(tmp_path.glob("ho*"))

    def test_trials_emit_mean_and_std(self, tmp_path, data_dir):
        out = tmp_path / "tr"
        code = run_cli(["evaluate", "--data", str(data_dir), "--out", str(out),
                        "--kind", "dbn-regressor", "--trials", "2", "--seed", "1",
                        "--split-mode", "run"] + TRAIN_FLAGS)
        assert code == 0
        trials = (tmp_path / "tr.trials.csv").read_text().splitlines()
        assert len(trials) == 1 + 2
        report = (tmp_path / "tr.report.csv").read_text().splitlines()
        assert len(report) == 1 + 2  # mean row + std row


class TestTrialCount:
    @pytest.mark.parametrize("trials", ["0", "-1"])
    @pytest.mark.parametrize("command", [["evaluate", "--kind", "dbn-regressor"],
                                         ["compare-frameworks"], ["ablate-sensors"]],
                             ids=["evaluate", "compare-frameworks", "ablate-sensors"])
    def test_below_one_is_usage_error(self, tmp_path, data_dir, capsys, command, trials):
        assert run_cli(command + ["--data", str(data_dir), "--out", str(tmp_path / "t"),
                                  "--trials", trials] + TINY_FLAGS) == 1
        assert f"usage error: --trials must be at least 1, not {trials}" \
            in capsys.readouterr().err
        assert not list(tmp_path.glob("t.*"))


class TestPredict:
    def test_prediction_stream(self, tmp_path, data_dir, multistate_model):
        run_file = sorted(data_dir.glob("*.csv"))[0]
        out = tmp_path / "pred.csv"
        assert run_cli(["predict", "--model", str(multistate_model),
                        "--run", str(run_file), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["frame_index", "diagnosed_state", "posterior_0",
                          "posterior_1", "posterior_2", "posterior_3",
                          "wear_estimate_um", "wear_smoothed_um"]
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        # row count equals frame count of the windowed run
        ds = _windowed(run_file)
        assert data.shape[0] == len(ds)
        # smoothed column recomputable as the trailing mean of the raw column
        from mdp_tcm.multistate import smooth
        model = load_model(multistate_model)
        recomputed = smooth(data[:, 6], model.smoothing_window)
        assert np.allclose(recomputed, data[:, 7], atol=1e-9)
        # posteriors on the simplex
        assert np.allclose(data[:, 2:6].sum(axis=1), 1.0, atol=1e-9)
        # worn frames mostly flagged worn
        worn = ds.state_labels == 3
        assert worn.sum() > 30
        assert np.mean(data[worn, 1] == 3) >= 0.9

    def test_prediction_bytes_equal_per_value_rows(self, tmp_path, data_dir,
                                                   multistate_model):
        # the reference: '%.10g' per float and %d per int, rows joined by commas
        run_file = sorted(data_dir.glob("*.csv"))[0]
        out = tmp_path / "pred.csv"
        assert run_cli(["predict", "--model", str(multistate_model),
                        "--run", str(run_file), "--out", str(out)]) == 0
        states, posteriors, raw, smoothed = estimate_wear_detailed(
            load_model(multistate_model), _windowed(run_file).frames)
        rows = [(i, int(states[i])) + tuple(float(p) for p in posteriors[i])
                + (float(raw[i]), float(smoothed[i])) for i in range(len(states))]
        assert out.read_text().splitlines()[1:] == [
            ",".join("%.10g" % v if isinstance(v, float) else "%d" % v for v in row)
            for row in rows]

    def test_predict_deterministic(self, tmp_path, data_dir, multistate_model):
        run_file = sorted(data_dir.glob("*.csv"))[0]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli(["predict", "--model", str(multistate_model),
                            "--run", str(run_file), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parsed_run_file_gives_the_bytes_of_a_parse(self, tmp_path, data_dir,
                                                        multistate_model, monkeypatch):
        # the reference reads the run as a copy made before any read,
        # parsed by np.loadtxt into strided columns and never cached
        source = sorted(data_dir.glob("*.csv"))[0]
        reference = tmp_path / "ref"
        reference.mkdir()
        for suffix in (".csv", ".meta"):
            shutil.copy(source.with_suffix(suffix), reference / f"run{suffix}")
        run = tmp_path / "run.csv"
        shutil.copy(source, run)
        shutil.copy(source.with_suffix(".meta"), run.with_suffix(".meta"))
        outs = [tmp_path / f"p{i}.csv" for i in range(3)]
        for out in outs[:2]:  # a parse, then a read of the parsed-run file
            assert run_cli(["predict", "--model", str(multistate_model),
                            "--run", str(run), "--out", str(out)]) == 0
            assert (tmp_path / "run.csv.parsed.npy").exists()

        def parse_only(run):
            with open(run.path, encoding="utf-8") as fh:
                names = fh.readline().strip().split(",")
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            wi = names.index("wear_um")
            return ({n: rows[:, i] for i, n in enumerate(names) if i != wi}, rows[:, wi])

        # `window_runs` reads the opened run through `load_run_csv`; the
        # open writes no parsed-run file
        monkeypatch.setattr(signal_pipeline, "load_run_csv", parse_only)
        monkeypatch.setattr(signal_pipeline, "_write_parsed", lambda *args: None)
        assert run_cli(["predict", "--model", str(multistate_model),
                        "--run", str(reference / "run.csv"), "--out", str(outs[2])]) == 0
        assert sorted(p.name for p in reference.iterdir()) == ["run.csv", "run.meta"]
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_float64_model_loads_and_predicts_finite_rows(self, tmp_path, data_dir):
        # a model trained on float64 frames holds weights that float32 does not
        # represent, as every model file written before float32 training does
        pool, _ = cli._load_runs(str(data_dir), None)
        frames64 = pool.frames.astype(np.float64)
        config = experiments.DESK_MDP
        config = replace(config, classifier=replace(config.classifier, pretrain_epochs=1,
                                                    finetune_epochs=5),
                         regressor=replace(config.regressor, pretrain_epochs=1,
                                           finetune_epochs=5),
                         de=replace(config.de, population_size=4, max_generations=1))
        model, _ = train_mdp(replace(pool, frames=frames64), config, seed=3)
        theta = model.diagnoser.base.theta
        assert theta.dtype == np.float64
        assert not np.array_equal(theta.astype(np.float32), theta)
        path, out = tmp_path / "m64.model", tmp_path / "p.csv"
        save_model(path, model)
        assert load_model(path).diagnoser.base.theta.dtype == np.float32
        run_file = sorted(data_dir.glob("*.csv"))[0]
        assert run_cli(["predict", "--model", str(path), "--run", str(run_file),
                        "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert len(table) == len(_windowed(run_file)) and np.isfinite(table).all()

    def test_wrong_model_kind_rejected(self, tmp_path, data_dir, capsys):
        reg = tmp_path / "reg.model"
        _tiny_model_file(reg, kind="regressor")
        run_file = sorted(data_dir.glob("*.csv"))[0]
        code = run_cli(["predict", "--model", str(reg), "--run", str(run_file),
                        "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert (f"data error: {reg}: predict needs a multistate model file, "
                "not one of kind 'dbn-regressor'") in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()


class TestFloatOptions:
    # the options each command needs; none of the files exist, since the
    # value is refused before any is read
    REQUIRED = {"generate": ["--out", "o"],
                "train": ["--data", "d", "--out", "o"],
                "evaluate": ["--data", "d", "--out", "o"],
                "predict": ["--model", "m", "--run", "r", "--out", "o"],
                "ablate-sensors": ["--data", "d", "--out", "o"],
                "compare-frameworks": ["--data", "d", "--out", "o"]}

    @pytest.mark.parametrize("command, flag, value", [
        ("generate", "--run-seconds", "inf"),
        ("generate", "--rpm", "nan"),
        ("generate", "--noise-std", "-inf"),
        ("generate", "--band-frac", "NaN"),
        ("predict", "--rate", "nan"),
        ("predict", "--rate", "inf"),
        ("predict", "--rpm", "1e999"),
        ("predict", "--rate", "fast"),
        ("train", "--learning-rate", "inf"),
        ("evaluate", "--train-ratio", "nan"),
        ("ablate-sensors", "--regressor-learning-rate", "-inf"),
        ("compare-frameworks", "--classifier-learning-rate", "nan"),
    ])
    def test_non_finite_value_is_usage_error_naming_the_flag(self, tmp_path, monkeypatch,
                                                             capsys, command, flag, value):
        monkeypatch.chdir(tmp_path)
        # `--flag=value`, so that argparse takes "-inf" as a value
        assert run_cli([command, f"{flag}={value}"] + self.REQUIRED[command]) == 1
        assert (f"usage error: argument {flag}: not a finite number: {value!r}"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_non_finite_config_value_is_usage_error_naming_the_key(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("run-seconds = inf\n")
        out = tmp_path / "o"
        assert run_cli(["generate", "--config", str(config), "--out", str(out)]) == 1
        assert ("usage error: config key run-seconds: not a finite number: 'inf'"
                in capsys.readouterr().err)
        assert not out.exists()


class TestConfigHandling:
    def test_three_layer_precedence(self, tmp_path, data_dir):
        # preset default finetune 500 < file 9 < flag 6
        config = tmp_path / "run.conf"
        config.write_text("finetune-epochs = 9  # file layer\n")
        base = ["train", "--data", str(data_dir), "--kind", "dbn-regressor",
                "--seed", "3", "--preset", "prognosis-default",
                "--pretrain-epochs", "2", "--batch-size", "64",
                "--hidden-range", "4,8", "--regressor-learning-rate", "0.003"]

        out_file = tmp_path / "file.model"
        assert run_cli(base + ["--config", str(config), "--out", str(out_file)]) == 0
        rows = (tmp_path / "file.model.finetune_loss.csv").read_text().splitlines()
        assert len(rows) == 1 + 9  # file value wins over preset

        out_flag = tmp_path / "flag.model"
        assert run_cli(base + ["--config", str(config), "--out", str(out_flag),
                               "--finetune-epochs", "6"]) == 0
        rows = (tmp_path / "flag.model.finetune_loss.csv").read_text().splitlines()
        assert len(rows) == 1 + 6  # flag value wins over file

    def test_unknown_config_key_rejected(self, tmp_path, data_dir):
        config = tmp_path / "bad.conf"
        config.write_text("not-a-real-key = 1\n")
        code = run_cli(["train", "--data", str(data_dir),
                        "--out", str(tmp_path / "m.model"),
                        "--config", str(config)])
        assert code == 1

    def test_missing_required_option(self):
        assert run_cli(["train"]) == 1

    def test_unknown_command_usage_error(self):
        assert run_cli(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_a_named_command_builds_its_own_parser_alone(self, command):
        def commands(parser):
            sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return sub.choices

        alone, full = commands(cli.build_parser(command)), commands(cli.build_parser())
        assert list(alone) == [command] and list(full) == list(cli.COMMANDS)
        # the named command prints the usage and help of the full parser's
        assert alone[command].format_help() == full[command].format_help()

    def test_help_lists_every_command_and_the_named_one_s_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(command in out for command in cli.COMMANDS)
        with pytest.raises(SystemExit) as exc:
            run_cli(["predict", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"--{name}" in out for name, *_ in cli.COMMANDS["predict"])
        assert "--data" not in out
        assert run_cli([]) == 1


class TestPipelineFlags:
    @pytest.mark.parametrize("flag, value, message", [
        ("--smoothing-window", "-1", "not an integer >= 0: '-1'"),
        ("--sticky-steps", "0", "not an integer >= 1: '0'"),
        ("--min-state-samples", "0", "not an integer >= 1: '0'"),
        ("--batch-size", "0", "not an integer >= 1: '0'"),
        ("--stride", "0", "not an integer >= 1: '0'"),
        ("--de-population", "2", "not an integer >= 4: '2'"),
        ("--de-generations", "-1", "not an integer >= 0: '-1'"),
        ("--hidden-range", "0,5", "not an interval lo,hi with 1 <= lo <= hi: '0,5'"),
        ("--hidden-range", "6,5", "not an interval lo,hi with 1 <= lo <= hi: '6,5'"),
        ("--pretrain-epochs", "-1", "not an integer >= 0: '-1'"),
        ("--finetune-epochs", "-1", "not an integer >= 0: '-1'"),
        ("--finetune-epochs", "2.5", "not an integer >= 0: '2.5'"),
        ("--learning-rate", "-1", "not a number >= 0: '-1'"),
        ("--classifier-learning-rate", "-0.5", "not a number >= 0: '-0.5'"),
        ("--regressor-learning-rate", "-0.5", "not a number >= 0: '-0.5'"),
        ("--channels", ",", "subset ',' names no channel"),
        ("--channels", "vibration", "subset 'vibration' names no channel"),
        ("--subsets", ";", "';' names no subset"),
        ("--subsets", "force,force", "subset 'force,force' names channel 'force' more "
                                     "than once"),
        ("--subsets", "force;force", "subset 'force' named more than once"),
    ])
    def test_rejected_before_any_training(self, tmp_path, data_dir, capsys, monkeypatch,
                                          request, flag, value, message):
        def never(*args, **kwargs):
            raise AssertionError("a model was trained")

        for trainer in ("train_mdp", "sensor_subset_trial"):
            monkeypatch.setattr(cli, trainer, never)
        command = {"--channels": ["evaluate", "--trials", "1"],
                   "--subsets": ["ablate-sensors"]}.get(flag, ["train"])
        # the vibration row's fleet has no vib* channel
        data = request.getfixturevalue("force_torque_dir") if value == "vibration" else data_dir
        out = tmp_path / "m.model"
        # `--flag=value`, so that argparse takes "-1" as a value, after
        # TINY_FLAGS, so that it is the value in force
        assert run_cli(command + ["--data", str(data), "--out", str(out)]
                       + TINY_FLAGS + [f"{flag}={value}"]) == 1
        assert f"usage error: argument {flag}: {message}\n" == capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_out_of_range_config_value_is_usage_error_naming_the_key(self, tmp_path,
                                                                     data_dir, capsys):
        config = tmp_path / "run.conf"
        config.write_text("batch-size = 0\n")
        assert run_cli(["train", "--data", str(data_dir), "--out", str(tmp_path / "m"),
                        "--config", str(config)]) == 1
        assert ("usage error: config key batch-size: not an integer >= 1: '0'\n"
                == capsys.readouterr().err)
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("flag, value, want", [("--smoothing-window", "0", 0),
                                                   ("--de-population", "4", 4),
                                                   ("--hidden-range", "1,1", (1, 1)),
                                                   ("--learning-rate", "0", 0.0)])
    def test_the_bound_itself_is_accepted(self, flag, value, want):
        args = cli.build_parser("train").parse_args(
            ["train", "--data", "d", "--out", "o", f"{flag}={value}"])
        assert getattr(args, flag[2:].replace("-", "_")) == want


class TestAblateAndCompare:
    def test_ablate_sensors_table(self, tmp_path, data_dir):
        out = tmp_path / "abl"
        # ablate-sensors trains regressors alone: it has no classifier learning rate
        at = TRAIN_FLAGS.index("--classifier-learning-rate")
        code = run_cli(["ablate-sensors", "--data", str(data_dir),
                        "--out", str(out), "--subsets", "force;all",
                        "--trials", "1", "--seed", "2", "--split-mode", "run"]
                       + TRAIN_FLAGS[:at] + TRAIN_FLAGS[at + 2:])
        assert code == 0
        rows = (tmp_path / "abl.sensor_ablation.csv").read_text().splitlines()
        assert rows[0].startswith("subset,rmse_mean")
        assert len(rows) == 1 + 2

    def test_default_subsets_table_parses_as_csv(self, tmp_path, data_dir):
        # the default subsets include `force,torque`, whose name holds the separator
        out = tmp_path / "abl"
        assert run_cli(["ablate-sensors", "--data", str(data_dir), "--out", str(out)]
                       + TINY_FLAGS) == 0
        with open(tmp_path / "abl.sensor_ablation.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 7 for row in rows)
        assert [row[0] for row in rows[1:]] == ["force", "torque", "vibration",
                                                "force,torque", "all"]

    def test_ablate_sensors_has_no_classifier_learning_rate(self, tmp_path, data_dir,
                                                            capsys):
        assert run_cli(["ablate-sensors", "--data", str(data_dir), "--out",
                        str(tmp_path / "abl"), "--classifier-learning-rate", "0.1"]
                       + TINY_FLAGS) == 1
        assert "--classifier-learning-rate" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_compare_frameworks_table(self, tmp_path, data_dir):
        out = tmp_path / "cmp"
        code = run_cli(["compare-frameworks", "--data", str(data_dir),
                        "--out", str(out), "--trials", "1", "--seed", "2",
                        "--split-mode", "run"] + TRAIN_FLAGS + DE_FLAGS)
        assert code == 0
        rows = (tmp_path / "cmp.frameworks.csv").read_text().splitlines()
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["multistate-smoothed", "multistate", "single-state-dbn"]


class TestTrialConfig:
    @pytest.mark.parametrize("command", [["compare-frameworks"],
                                         ["evaluate", "--kind", "multistate"]])
    def test_flags_and_trial_seed_reach_train_mdp(self, tmp_path, data_dir,
                                                   monkeypatch, command):
        # one config serves every trial; the trial seed reaches train_mdp alone
        seen = []

        def recording(train_set, config, seed=0, log=None, workers=1, rows=None):
            seen.append((seed, config, workers))
            return train_mdp(train_set, config, seed, rows=rows)

        # the recorder sees only calls made in this process: no trial workers
        monkeypatch.setenv("MDP_TCM_THREADS", "1")
        monkeypatch.setattr(cli, "train_mdp", recording)
        monkeypatch.setattr(experiments, "train_mdp", recording)
        assert run_cli(command + [
            "--data", str(data_dir), "--out", str(tmp_path / "t"), "--trials", "2",
            "--seed", "5", "--sticky-steps", "3", "--split-mode", "run"]
            + TINY_FLAGS + TINY_DE_FLAGS) == 0
        assert sorted(seed for seed, _, _ in seen) == [5, 6]
        config = seen[0][1]
        assert config.sticky_steps == 3
        assert all(c is config and workers == 1 for _, c, workers in seen)


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, so that MDP_TCM_THREADS=2 starts two workers on any host."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


class TestTrialFanOut:
    @pytest.mark.parametrize("command", [
        ["compare-frameworks"] + TINY_DE_FLAGS,
        ["evaluate", "--kind", "multistate"] + TINY_DE_FLAGS,
        ["ablate-sensors", "--subsets", "force;all"],
    ])
    def test_workers_write_the_bytes_of_trials_in_turn(self, tmp_path, data_dir,
                                                        monkeypatch, capsys, two_cores,
                                                        command):
        stdout = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MDP_TCM_THREADS", threads)
            assert run_cli(command + [
                "--data", str(data_dir), "--out", str(tmp_path / f"t{threads}" / "t"),
                "--trials", "2", "--seed", "5", "--split-mode", "run"] + TINY_FLAGS) == 0
            stdout[threads] = capsys.readouterr().out
        in_turn, fanned_out = tree_bytes(tmp_path / "t1"), tree_bytes(tmp_path / "t2")
        assert in_turn and in_turn == fanned_out
        # each trial's log lines (evaluate's train lines) print in seed order
        assert stdout["2"] == stdout["1"]

    def test_numeric_error_in_a_worker_exits_3(self, tmp_path, data_dir, monkeypatch,
                                               capsys, two_cores):
        parent = os.getpid()

        def diverging(train, test_runs, config, seed, rows=None):
            where = "a worker" if os.getpid() != parent else "the parent"
            raise NumericError(f"trial {seed} diverged in {where}")

        monkeypatch.setattr(cli, "framework_trial", diverging)
        monkeypatch.setenv("MDP_TCM_THREADS", "2")
        assert run_cli(["compare-frameworks", "--data", str(data_dir),
                        "--out", str(tmp_path / "t"), "--trials", "2", "--seed", "5",
                        "--split-mode", "run"] + TINY_FLAGS + TINY_DE_FLAGS) == 3
        assert "numeric failure: trial 5 diverged in a worker" in capsys.readouterr().err


class TestSubModelFanOut:
    def test_workers_write_the_bytes_of_train_in_turn(self, tmp_path, data_dir,
                                                      monkeypatch, capsys, two_cores):
        out = tmp_path / "m.model"
        written = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MDP_TCM_THREADS", threads)
            assert run_cli(["train", "--data", str(data_dir), "--out", str(out),
                            "--kind", "multistate", "--seed", "5", "--train-ratio", "1.0"]
                           + TINY_FLAGS + TINY_DE_FLAGS) == 0
            written[threads] = capsys.readouterr().out, tree_bytes(tmp_path)
        stdout, files = written["1"]
        assert "training state-" in stdout  # state regressors were among the jobs
        assert set(files) == {"m.model", "m.model.finetune_loss.csv",
                              "m.model.de_history.csv"}
        assert written["2"] == written["1"]

    def test_numeric_error_in_a_sub_model_worker_exits_3(self, tmp_path, data_dir,
                                                         monkeypatch, capsys, two_cores):
        parent = os.getpid()

        train_network = dbn.train_network

        def diverging(frames, targets, layer_sizes, head, config, seed, rows=None):
            if head == dbn.SOFTMAX:
                return train_network(frames, targets, layer_sizes, head, config, seed, rows)
            where = "a worker" if os.getpid() != parent else "the parent"
            raise NumericError(f"regressor {seed} diverged in {where}")

        monkeypatch.setattr(dbn, "train_network", diverging)
        monkeypatch.setenv("MDP_TCM_THREADS", "2")
        assert run_cli(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.model"),
                        "--seed", "5", "--train-ratio", "1.0"]
                       + TINY_FLAGS + TINY_DE_FLAGS) == 3
        assert "numeric failure: regressor 5 diverged in a worker" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def _sidecars(out) -> dict:
    """Each sidecar's lines but its timestamp, keyed by name."""
    return {p.name: [line for line in p.read_text().splitlines()
                     if not line.startswith("created")] for p in sorted(out.glob("*.meta"))}


class TestGenerateFanOut:
    GENERATE = ["generate", "--out", "runs", "--runs", "3", "--seed", "4", "--desk-scale",
                "--run-seconds", "20"]

    def test_workers_write_the_bytes_of_runs_in_turn(self, tmp_path, monkeypatch, capsys,
                                                     two_cores):
        monkeypatch.setattr(cli, "_GENERATE_FANOUT_SAMPLES", 1)
        pools = pool_sizes(monkeypatch)
        written = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MDP_TCM_THREADS", threads)
            # the same relative --out, so that stdout may be compared whole
            here = tmp_path / threads
            here.mkdir()
            monkeypatch.chdir(here)
            assert run_cli(self.GENERATE) == 0
            out = here / "runs"
            written[threads] = capsys.readouterr().out, tree_bytes(out), _sidecars(out)
        assert pools == [2]
        stdout, files, sidecars = written["1"]
        assert "state 3:" in stdout and len(files) == len(sidecars) == 3
        assert written["2"] == written["1"]

    def test_fleet_below_the_gate_starts_no_pool(self, tmp_path, monkeypatch, two_cores):
        # 3 runs of 40 s at 200 Hz: the fleet `data_dir` and perfbench's desk set-up use
        assert 3 * 40 * 200 < cli._GENERATE_FANOUT_SAMPLES
        pools = pool_sizes(monkeypatch)
        monkeypatch.setenv("MDP_TCM_THREADS", "2")
        assert run_cli(["generate", "--out", str(tmp_path), "--runs", "3", "--seed", "7",
                        "--desk-scale", "--run-seconds", "40"]) == 0
        assert pools == [] and len(list(tmp_path.glob("*.csv"))) == 3

    def test_write_error_in_a_worker_exits_2_naming_the_file(self, tmp_path, monkeypatch,
                                                             capsys, two_cores):
        monkeypatch.setattr(cli, "_GENERATE_FANOUT_SAMPLES", 1)
        pools = pool_sizes(monkeypatch)
        monkeypatch.setenv("MDP_TCM_THREADS", "2")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs" / "run001.csv").mkdir(parents=True)
        assert run_cli(self.GENERATE) == 2
        assert pools == [2]
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and os.path.join("runs", "run001.csv") in err


class TestBlasThreads:
    @staticmethod
    def assert_one_digest(tmp_path, epochs: int, gram: bool) -> None:
        """A tiny 20 kHz multistate train writes one model sha256 under
        MDP_TCM_THREADS 1 and 2 x OPENBLAS_NUM_THREADS 1 and 2; its
        fine-tuning takes the Gram form or not."""
        # 20 kHz frames of 10178 values: products wide enough for OpenBLAS to
        # split over threads, which would change the bits of a serial train
        data = tmp_path / "data"
        assert run_cli(["generate", "--out", str(data), "--runs", "2", "--seed", "3",
                        "--run-seconds", "1"]) == 0
        n_frames = len(cli._load_runs(str(data), None)[0])
        # the diagnoser and the fallback train on every frame
        assert [dbn._gram_pays(n_frames, 10178, width, epochs)
                for width in (4, 5, 6)] == [gram] * 3
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        digests = {}
        for workers in ("1", "2"):
            for blas in ("1", "2"):
                out = tmp_path / f"m{workers}{blas}.model"
                # a fresh process each: the CLI sets BLAS's threads once per process
                subprocess.run(
                    [sys.executable, "-m", "mdp_tcm.cli", "train", "--data", str(data),
                     "--out", str(out), "--kind", "multistate", "--seed", "5",
                     "--train-ratio", "1.0", "--batch-size", "32", "--hidden-range", "4,6",
                     "--pretrain-epochs", "1", "--finetune-epochs", str(epochs)]
                    + TINY_DE_FLAGS,
                    env={**os.environ, "PYTHONPATH": path, "MDP_TCM_THREADS": workers,
                         "OPENBLAS_NUM_THREADS": blas},
                    check=True, capture_output=True, timeout=300)
                digests[workers, blas] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert len(set(digests.values())) == 1, digests

    def test_model_bytes_do_not_depend_on_workers_or_blas_threads(self, tmp_path):
        self.assert_one_digest(tmp_path, 3, gram=False)

    def test_gram_form_bytes_do_not_depend_on_workers_or_blas_threads(self, tmp_path):
        # the Gram form adds products of its own as wide: the Gram matrix, the
        # first layer's products and its closing update
        self.assert_one_digest(tmp_path, 20, gram=True)


class TestWorkerCount:
    @pytest.mark.parametrize("value, trials, cores, want", [
        (None, 4, 8, 4), ("", 4, 2, 2), (" 3 ", 4, 8, 3), ("8", 2, 8, 2), ("8", 4, 2, 2),
        ("1", 4, 8, 1)])
    def test_capped_at_trials_and_cores(self, monkeypatch, value, trials, cores, want):
        if value is None:
            monkeypatch.delenv("MDP_TCM_THREADS", raising=False)
        else:
            monkeypatch.setenv("MDP_TCM_THREADS", value)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        assert cli._worker_count(trials) == want

    @pytest.mark.parametrize("value", ["two", "1.5", "0", "-2"])
    def test_malformed_is_usage_error(self, monkeypatch, value):
        monkeypatch.setenv("MDP_TCM_THREADS", value)
        with pytest.raises(cli.UsageError, match="MDP_TCM_THREADS"):
            cli._worker_count(4)

    @pytest.mark.parametrize("command", [["evaluate", "--trials", "2"], ["train"]],
                             ids=["evaluate-trials", "train"])
    def test_malformed_exits_1_naming_the_variable(self, tmp_path, data_dir, monkeypatch,
                                                   capsys, command):
        monkeypatch.setenv("MDP_TCM_THREADS", "many")
        assert run_cli(command + ["--data", str(data_dir), "--out", str(tmp_path / "e")]) == 1
        assert "usage error: MDP_TCM_THREADS" in capsys.readouterr().err


class TestDataDirectory:
    def test_cli_tables_are_not_runs(self, tmp_path, data_dir):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        runs = {p.name for p in data.glob("*.csv")}
        common = ["--data", str(data), "--seed", "5", "--split-mode", "run"] + TINY_FLAGS
        model = str(data / "m.model")
        # each command reads the directory the one before wrote its tables into
        for argv in (["train", "--out", model] + TINY_DE_FLAGS,
                     ["compare-frameworks", "--out", str(data / "cmp")] + TINY_DE_FLAGS,
                     ["ablate-sensors", "--out", str(data / "abl"), "--subsets", "all"],
                     ["evaluate", "--out", str(data / "tr"), "--trials", "1"]
                     + TINY_DE_FLAGS):
            assert run_cli(argv + common) == 0
        assert run_cli(["evaluate", "--data", str(data), "--model", model,
                        "--out", str(data / "ev")]) == 0
        tables = {p.name for p in data.glob("*.csv")} - runs
        assert {name.partition(".")[2] for name in tables} == {
            "model.finetune_loss.csv", "model.de_history.csv", "frameworks.csv",
            "sensor_ablation.csv", "trials.csv", "report.csv"}
        assert len(cli._load_runs(str(data), None)[1]) == len(runs)

    def test_prediction_table_is_not_a_run(self, tmp_path, data_dir, multistate_model):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        runs = sorted(data.glob("*.csv"))
        assert run_cli(["predict", "--model", str(multistate_model), "--run", str(runs[0]),
                        "--out", str(data / "pred.csv")]) == 0
        assert run_cli(["evaluate", "--data", str(data), "--model", str(multistate_model),
                        "--out", str(tmp_path / "ev")]) == 0
        assert len(cli._load_runs(str(data), None)[1]) == len(runs)

    def test_run_csv_without_sidecar_is_data_error(self, tmp_path, data_dir, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        shutil.copy(data / "run000.csv", data / "extra.csv")
        assert run_cli(["evaluate", "--data", str(data), "--out", str(tmp_path / "e"),
                        "--trials", "1"]) == 2
        assert f"missing sidecar {data / 'extra.meta'}" in capsys.readouterr().err

    def test_runs_of_other_window_lengths_are_data_error(self, tmp_path, capsys):
        # at 200 Hz, one rotation is 7 samples at 1650 rpm and 10 at 1200 rpm
        data, other = tmp_path / "data", tmp_path / "other"
        for out, rpm in ((data, "1650"), (other, "1200")):
            assert run_cli(["generate", "--out", str(out), "--runs", "1", "--seed", "3",
                            "--desk-scale", "--run-seconds", "20", "--rpm", rpm]) == 0
        for suffix in (".csv", ".meta"):
            shutil.copy(other / f"run000{suffix}", data / f"run001{suffix}")
        model = tmp_path / "m.model"
        assert run_cli(["train", "--data", str(data), "--out", str(model),
                        "--train-ratio", "1.0"] + TINY_FLAGS + TINY_DE_FLAGS) == 2
        assert (f"data error: run {data / 'run001.csv'} differs from run "
                f"{data / 'run000.csv'} in its channels or its window length"
                in capsys.readouterr().err)
        assert not model.exists()


class TestLoadRuns:
    def test_runs_are_row_views_of_one_matrix(self, data_dir):
        pool, bounds = cli._load_runs(str(data_dir), None)
        files = cli._run_files(str(data_dir))
        assert len(bounds) == len(files) == 3
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == len(pool)
        for f, (start, stop), ds in zip(files, bounds, cli._runs(pool, bounds)):
            assert np.shares_memory(ds.frames, pool.frames)
            want = _windowed(f)
            rows = slice(start, stop)
            for got, expected in ((ds.frames, want.frames), (pool.frames[rows], want.frames),
                                  (ds.wear_targets, want.wear_targets),
                                  (pool.wear_targets[rows], want.wear_targets),
                                  (pool.state_labels[rows], want.state_labels)):
                assert got.tobytes() == expected.tobytes()

    def test_kept_runs_alone_are_read_in_order(self, data_dir):
        full, bounds = cli._load_runs(str(data_dir), None)
        runs = [full.frames[start:stop] for start, stop in bounds]
        pool, kept = cli._load_runs(str(data_dir), None, keep=[2, 0])
        assert [pool.frames[start:stop].tobytes() for start, stop in kept] == [
            runs[i].tobytes() for i in (2, 0)]
        assert pool.frames.tobytes() == np.vstack([runs[2], runs[0]]).tobytes()

    @pytest.mark.parametrize("first_read", [True, False], ids=["parse", "parsed-run-file"])
    def test_each_run_is_hashed_once(self, tmp_path, data_dir, multistate_model, monkeypatch,
                                     first_read):
        # by the loader of every other command, and by `predict`, each in a
        # copy of the fleet of its own
        copies = [tmp_path / "load-runs", tmp_path / "predict"]
        for data in copies:
            shutil.copytree(data_dir, data, ignore=shutil.ignore_patterns("*.parsed.npy"))
            if not first_read:
                cli._load_runs(str(data), None)
        passes = collections.Counter()

        class Counting(signal_pipeline._HashingReader):
            def __init__(self, fh, key):
                passes[os.path.relpath(fh.name, tmp_path)] += 1
                super().__init__(fh, key)

        monkeypatch.setattr(signal_pipeline, "_HashingReader", Counting)
        cli._load_runs(str(copies[0]), None)
        for f in sorted(copies[1].glob("*.csv")):
            assert run_cli(["predict", "--model", str(multistate_model), "--run", str(f),
                            "--out", str(tmp_path / "out" / f.name)]) == 0
        assert passes == {os.path.relpath(f, tmp_path): 1
                          for data in copies for f in data.glob("*.csv")}

    @pytest.mark.parametrize("command", [
        ["train", "--train-ratio", "0.6"] + TINY_DE_FLAGS,
        ["compare-frameworks"] + TINY_DE_FLAGS,
        ["evaluate", "--trials", "1"] + TINY_DE_FLAGS,
        ["ablate-sensors", "--subsets", "force;all"]],
        ids=["train", "compare-frameworks", "evaluate-trials", "ablate-sensors"])
    def test_no_command_pools_its_training_runs(self, tmp_path, data_dir, monkeypatch,
                                                command):
        # each trainer gets the loader's own matrix: `train` the training
        # runs alone, every other command all the runs plus training rows
        monkeypatch.setenv("MDP_TCM_THREADS", "1")
        loads = _spy(monkeypatch, cli, "_load_runs")
        trainers = [_spy(monkeypatch, cli, name)
                    for name in ("_train_one", "framework_trial", "sensor_subset_trial")]
        assert run_cli(command + ["--data", str(data_dir), "--out", str(tmp_path / "o"),
                                  "--seed", "2"] + TINY_FLAGS) == 0
        (_, (pool, bounds)), = loads
        (arguments, _), = [call for calls in trainers for call in calls]
        train = arguments.get("train_set", arguments.get("train"))
        assert np.shares_memory(train.frames, pool.frames)
        rows = arguments.get("rows")
        if command[0] == "train":
            assert rows is None and len(bounds) == 2
        else:
            assert len(bounds) == 3 and 0 < len(rows) < len(pool)


class TestSplitRuns:
    @pytest.mark.parametrize("mode", ["run", None])
    @pytest.mark.parametrize("ratio", ["-0.5", "0", "1.5"])
    def test_ratio_outside_zero_one_is_usage_error(self, tmp_path, data_dir,
                                                   multistate_model, capsys, mode, ratio):
        assert run_cli(["evaluate", "--data", str(data_dir), "--out", str(tmp_path / "e"),
                        "--model", str(multistate_model), "--holdout",
                        "--train-ratio", ratio]
                       + (["--split-mode", mode] if mode else [])) == 1
        assert (f"--train-ratio must lie in (0, 1), not {float(ratio)}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("ratio", ["-0.5", "0", "1.5"])
    def test_train_ratio_outside_zero_one_is_usage_error(self, tmp_path, data_dir, capsys,
                                                         ratio):
        # 1.0 trains on every run; above it, there is no such split
        out = tmp_path / "m.model"
        assert run_cli(["train", "--data", str(data_dir), "--out", str(out),
                        "--train-ratio", ratio] + TINY_FLAGS) == 1
        assert (f"usage error: --train-ratio must lie in (0, 1], not {float(ratio)}\n"
                == capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_held_out_data_is_whole_runs(self, data_dir):
        # the training rows index the pool's frames of the two runs not held
        # out, run after run in split order
        pool, bounds = cli._load_runs(str(data_dir), None)
        rows, held = cli._split_runs(bounds, 0.85, 4)
        assert len(held) == 1
        train = [bounds[i] for i in cli._split_indices(len(bounds), 0.85, 4)[0]]
        assert len(train) == 2 and held[0] not in train
        assert np.array_equal(pool.frames[rows],
                              np.vstack([pool.frames[start:stop] for start, stop in train]))
        assert np.array_equal(pool.wear_targets[rows], np.concatenate(
            [pool.wear_targets[start:stop] for start, stop in train]))

    @pytest.mark.parametrize("mode", ["frame", "pooled"])
    @pytest.mark.parametrize("command", [
        ["train"], ["evaluate", "--holdout"], ["evaluate", "--trials", "1"],
        ["ablate-sensors"], ["compare-frameworks"], ["config-file"]],
        ids=["train", "evaluate-holdout", "evaluate-trials", "ablate-sensors",
             "compare-frameworks", "config-file"])
    def test_any_mode_but_run_is_usage_error(self, tmp_path, data_dir, multistate_model,
                                             capsys, command, mode):
        if command == ["config-file"]:
            config = tmp_path / "split.conf"
            config.write_text(f"split-mode = {mode}\n")
            argv = ["train", "--config", str(config)]
        else:
            argv = command + ["--split-mode", mode]
        if "--holdout" in command:
            argv += ["--model", str(multistate_model)]
        out = tmp_path / "o"
        assert run_cli(argv + ["--data", str(data_dir), "--out", str(out)]) == 1
        assert (f"usage error: --split-mode {mode!r}: held-out data is split by whole "
                "runs, and 'run' is the only mode") in capsys.readouterr().err
        assert not list(tmp_path.glob("o*"))

    def test_one_run_trains_only_on_every_run(self, tmp_path, data_dir, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for suffix in (".csv", ".meta"):
            shutil.copy(data_dir / f"run000{suffix}", data / f"run000{suffix}")
        argv = ["train", "--data", str(data), "--kind", "dbn-regressor"] + TINY_FLAGS
        assert run_cli(argv + ["--out", str(tmp_path / "a.model")]) == 2
        assert "a split of whole runs needs at least 2 runs; got 1" in capsys.readouterr().err
        assert not (tmp_path / "a.model").exists()
        assert run_cli(argv + ["--out", str(tmp_path / "b.model"), "--train-ratio", "1.0"]) == 0


def _tiny_model_file(path, kind="multistate"):
    rng = np.random.default_rng(0)

    def net(sizes, head):
        return dbn.DbnModel(sizes, head, rng.normal(0, 0.1, _kernels.theta_size(sizes)))

    save_model(path, net((6, 3, 1), dbn.LINEAR) if kind == "regressor" else MultiStateModel(
        EcsDbnModel(net((6, 4, 4), dbn.SOFTMAX), CostVector.uniform(4)),
        {1: net((6, 3, 1), dbn.LINEAR)}, net((6, 3, 1), dbn.LINEAR)))


def _widen_one_row(data: bytes) -> bytes:
    """A CSV whose ninth line has one field more than the lines before it."""
    lines = data.split(b"\n")
    lines[8] += b",0"
    return b"\n".join(lines)


class TestMalformedInput:
    @pytest.mark.parametrize("kind, fragment, key", [
        ("regressor", "layer_sizes =", "layer_sizes"),
        ("regressor", "array theta ", "theta"),
        ("multistate", "reg1.layer_sizes =", "reg1.layer_sizes"),
        ("multistate", "array reg1.theta ", "reg1.theta"),
        ("multistate", "array diagnoser.costs ", "diagnoser.costs"),
    ])
    def test_header_missing_key_is_data_error(self, tmp_path, data_dir, capsys,
                                              kind, fragment, key):
        path = tmp_path / "m.model"
        _tiny_model_file(path, kind)
        # the checksum covers only the payload, so the renamed header still reads
        head, sep, payload = path.read_bytes().partition(b"end-header\n")
        assert fragment.encode() in head
        head = head.replace(fragment.encode(), fragment.replace(key, "renamed").encode())
        path.write_bytes(head + sep + payload)
        assert run_cli(["predict", "--model", str(path), "--out", str(tmp_path / "p.csv"),
                        "--run", str(sorted(data_dir.glob("*.csv"))[0])]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"lacks {'array' if 'array' in fragment else 'key'} " \
            f"{key!r}" in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("array, value", [("fallback.theta", np.nan),
                                              ("reg1.theta", np.inf),
                                              ("diagnoser.theta", 1e39),
                                              ("reg1.theta", -1e300)])
    def test_non_finite_model_array_is_data_error(self, tmp_path, data_dir, capsys,
                                                  command, array, value):
        # a finite weight outside float32's range is infinite once narrowed
        message = ("holds a non-finite value" if not np.isfinite(value)
                   else "holds a value outside float32's finite range")
        path = tmp_path / "m.model"
        _tiny_model_file(path)
        kind, arrays, config = read_model_file(path)
        arrays[array][2] = value
        write_model_file(path, kind, arrays, config)
        out = tmp_path / "p.csv"
        argv = (["predict", "--run", str(sorted(data_dir.glob("*.csv"))[0])]
                if command == "predict" else ["evaluate", "--data", str(data_dir)])
        assert run_cli(argv + ["--model", str(path), "--out", str(out)]) == 2
        assert f"data error: {path}: array {array!r} {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("p.csv*"))  # no prediction, no report

    @pytest.mark.parametrize("kind, old, new, message", [
        ("multistate", b"kind = multistate", b"kind = \xffmultistate",
         "model header is not UTF-8 text"),
        ("regressor", b"layer_sizes = 6,3,1", b"layer_sizes = 6,3x,1",
         "layer_sizes = 6,3x,1"),
        ("regressor", b"layer_sizes = 6,3,1", b"layer_sizes = 6,4,1",
         "layer_sizes = 6,4,1"),
        ("multistate", b"reg1.layer_sizes = 6,3,1", b"reg1.layer_sizes = 6,3,2,1",
         "reg1.layer_sizes = 6,3,2,1"),
        ("regressor", b"array theta 25", b"array theta 2y5",
         "array theta has malformed shape '2y5'"),
        ("multistate", b"array diagnoser.costs 4", b"array diagnoser.costs -4",
         "array diagnoser.costs has malformed shape '-4'"),
        ("regressor", b"array theta 25", b"array theta 2x-2",
         "array theta has malformed shape '2x-2'"),
        ("multistate", b"sticky_steps = 1", b"sticky_steps = x",
         "sticky_steps = x: not an integer"),
        ("multistate", b"smoothing_window = 50", b"smoothing_window = 2.5",
         "smoothing_window = 2.5: not an integer"),
    ], ids=["non-utf8", "non-integer-size", "theta-length", "route-theta-length",
            "array-shape", "negative-array-size", "negative-array-dimension",
            "sticky-steps", "smoothing-window"])
    def test_bad_header_value_names_the_model(self, tmp_path, data_dir, capsys,
                                              kind, old, new, message):
        path = tmp_path / "m.model"
        _tiny_model_file(path, kind)
        head, sep, payload = path.read_bytes().partition(b"end-header\n")
        assert old in head
        path.write_bytes(head.replace(old, new) + sep + payload)
        assert run_cli(["predict", "--model", str(path), "--out", str(tmp_path / "p.csv"),
                        "--run", str(sorted(data_dir.glob("*.csv"))[0])]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("suffix", [".csv", ".meta"])
    def test_non_utf8_run_names_the_file(self, tmp_path, data_dir, multistate_model,
                                         capsys, command, suffix):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        run = sorted(data.glob("*.csv"))[0]
        bad = run.with_suffix(suffix)
        bad.write_bytes(b"\xff" + bad.read_bytes())
        argv = (["predict", "--run", str(run)] if command == "predict"
                else ["evaluate", "--data", str(data)])
        assert run_cli(argv + ["--model", str(multistate_model),
                               "--out", str(tmp_path / "p.csv")]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("scaled, what", [(("diagnoser.",), "state posteriors"),
                                              (("fallback.", "reg"), "wear estimate")])
    def test_non_finite_inference_is_numeric_error(self, tmp_path, data_dir,
                                                   multistate_model, capsys, command,
                                                   scaled, what):
        # arrays within float32's range, so the file loads; the forward pass overflows
        path = tmp_path / "m.model"
        kind, arrays, config = read_model_file(multistate_model)
        for name in arrays:
            if name.startswith(scaled) and name.endswith(".theta"):
                arrays[name] = arrays[name] * 1e30
        write_model_file(path, kind, arrays, config)
        out = tmp_path / "p.csv"
        argv = (["predict", "--run", str(sorted(data_dir.glob("*.csv"))[0])]
                if command == "predict" else ["evaluate", "--data", str(data_dir)])
        with pytest.warns(RuntimeWarning):
            assert run_cli(argv + ["--model", str(path), "--out", str(out)]) == 3
        assert f"non-finite {what} at frame " in capsys.readouterr().err
        assert not list(tmp_path.glob("p.csv*"))

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_frame_width_mismatch_names_model_and_run(self, tmp_path, data_dir, capsys,
                                                      command):
        path = tmp_path / "m.model"
        _tiny_model_file(path)  # 6 inputs; a desk run gives frames of 98 values
        run = sorted(data_dir.glob("*.csv"))[0]
        out = tmp_path / "p.csv"
        argv = (["predict", "--run", str(run)] if command == "predict"
                else ["evaluate", "--data", str(data_dir)])
        assert run_cli(argv + ["--model", str(path), "--out", str(out)]) == 2
        assert (f"data error: model {path} takes frames of 6 values, but run {run} "
                "gives frames of 98") in capsys.readouterr().err
        assert not list(tmp_path.glob("p.csv*"))

    def test_non_finite_sample_is_data_error(self, tmp_path, data_dir, capsys):
        source = sorted(data_dir.glob("*.csv"))[0]
        run = tmp_path / source.name
        shutil.copy(source.with_suffix(".meta"), run.with_suffix(".meta"))
        lines = source.read_text().splitlines()
        fields = lines[5].split(",")
        fields[1] = "nan"
        lines[5] = ",".join(fields)
        run.write_text("\n".join(lines) + "\n")
        _tiny_model_file(tmp_path / "m.model")
        out = tmp_path / "p.csv"
        assert run_cli(["predict", "--model", str(tmp_path / "m.model"), "--run", str(run),
                        "--out", str(out)]) == 2
        assert "channel 'torque' has a non-finite sample at data row 5" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("key, replacement", [("sampling_rate_hz", None),
                                                  ("spindle_rpm", "spindle_rpm = fast")])
    def test_bad_sidecar_is_data_error(self, tmp_path, data_dir, capsys, command, key,
                                       replacement):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        run = sorted(data.glob("*.csv"))[0]
        meta = run.with_suffix(".meta")
        lines = [ln for ln in meta.read_text().splitlines() if not ln.startswith(key)]
        meta.write_text("\n".join(lines + [replacement] * bool(replacement)) + "\n")
        if command == "predict":
            _tiny_model_file(tmp_path / "m.model")
            argv = ["predict", "--model", str(tmp_path / "m.model"), "--run", str(run),
                    "--out", str(tmp_path / "p.csv")]
        else:
            argv = ["evaluate", "--data", str(data), "--out", str(tmp_path / "e"),
                    "--trials", "1"]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"sidecar {meta}" in err and f"key {key!r}" in err

    @pytest.mark.parametrize("target, mangle, message", [
        ("run", _widen_one_row, "malformed numeric data"),
        ("model", lambda b: b[:-100], "checksum mismatch"),
        ("model", lambda b: b.replace(b"kind = multistate", b"kind = bogus"),
         "unknown model kind"),
        ("model", lambda b: b.replace(b"route.1 = reg1", b"route.1 = reg2"), "lacks key"),
    ], ids=["ragged-run", "truncated-model", "unknown-kind", "route-to-missing-regressor"])
    def test_malformed_file_exits_2_naming_it(self, tmp_path, data_dir, capsys, target,
                                              mangle, message):
        source = sorted(data_dir.glob("*.csv"))[0]
        files = {"run": tmp_path / source.name, "model": tmp_path / "m.model"}
        shutil.copy(source, files["run"])
        shutil.copy(source.with_suffix(".meta"), files["run"].with_suffix(".meta"))
        _tiny_model_file(files["model"])
        bad = files[target]
        mangled = mangle(bad.read_bytes())
        assert mangled != bad.read_bytes()
        bad.write_bytes(mangled)
        assert run_cli(["predict", "--model", str(files["model"]), "--run", str(files["run"]),
                        "--out", str(tmp_path / "p.csv")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err
