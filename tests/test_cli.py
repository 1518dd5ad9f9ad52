import os
import re
import shutil
import weakref

import numpy as np
import pytest

from mdp_tcm import _kernels, cli, dbn, experiments, synth
from mdp_tcm.cost_sensitive import CostVector
from mdp_tcm.errors import NumericError
from mdp_tcm.metrics import REPORT_KEYS
from mdp_tcm.model_io import load_model, read_model_file, save_model, write_model_file
from mdp_tcm.multistate import (EcsDbnModel, MultiStateModel, estimate_wear_detailed,
                                train_mdp)
from mdp_tcm.signal_pipeline import (ChannelSeries, FrameDataset, WindowSpec,
                                     build_dataset, compute_window_size, load_run_csv)
from mdp_tcm.synth import read_run_meta

from cli_support import DE_FLAGS, TRAIN_FLAGS, run_cli


# the smallest budgets that still train every model a command trains
TINY_FLAGS = ["--pretrain-epochs", "1", "--finetune-epochs", "5", "--batch-size", "64",
              "--hidden-range", "4,6"]
TINY_DE_FLAGS = ["--de-population", "4", "--de-generations", "1"]


def _windowed(run_file):
    """The frames `predict` windows from a run file and its sidecar."""
    meta = read_run_meta(run_file.with_suffix(".meta"))
    channels, wear = load_run_csv(run_file, float(meta["sampling_rate_hz"]))
    return build_dataset(channels, WindowSpec(
        spindle_rpm=float(meta["spindle_rpm"]),
        sampling_rate_hz=float(meta["sampling_rate_hz"])), wear)


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
        want = sum(np.bincount(experiments.windowed_run(run, spec).state_labels,
                               minlength=4)
                   for run in synth.generate_fleet(config, 3, 4))
        got = [int(n) for n in re.findall(r"state \d: (\d+) frames",
                                          capsys.readouterr().out)]
        assert got == want.tolist()

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

    def test_holdout_split_evaluation(self, tmp_path, data_dir, multistate_model):
        out = tmp_path / "ho"
        code = run_cli(["evaluate", "--data", str(data_dir), "--model",
                        str(multistate_model), "--out", str(out),
                        "--holdout", "--split-mode", "run", "--seed", "1"])
        assert code == 0
        full = tmp_path / "full"
        assert run_cli(["evaluate", "--data", str(data_dir), "--model",
                        str(multistate_model), "--out", str(full)]) == 0
        assert (tmp_path / "ho.report.csv").read_text() \
            != (tmp_path / "full.report.csv").read_text()

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
        # the reference: one `_fmt` call per value, rows joined by commas
        run_file = sorted(data_dir.glob("*.csv"))[0]
        out = tmp_path / "pred.csv"
        assert run_cli(["predict", "--model", str(multistate_model),
                        "--run", str(run_file), "--out", str(out)]) == 0
        states, posteriors, raw, smoothed = estimate_wear_detailed(
            load_model(multistate_model), _windowed(run_file).frames)
        rows = [(i, int(states[i])) + tuple(float(p) for p in posteriors[i])
                + (float(raw[i]), float(smoothed[i])) for i in range(len(states))]
        assert out.read_text().splitlines()[1:] == [
            ",".join(cli._fmt(v) for v in row) for row in rows]

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

        def parse_only(path, rate):
            with open(path, encoding="utf-8") as fh:
                names = fh.readline().strip().split(",")
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            wi = names.index("wear_um")
            return ([ChannelSeries(n, rate, rows[:, i]) for i, n in enumerate(names)
                     if i != wi], rows[:, wi])

        monkeypatch.setattr(cli, "load_run_csv", parse_only)
        assert run_cli(["predict", "--model", str(multistate_model),
                        "--run", str(reference / "run.csv"), "--out", str(outs[2])]) == 0
        assert sorted(p.name for p in reference.iterdir()) == ["run.csv", "run.meta"]
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

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
        ("--smoothing-window", "-1", "smoothing window must be >= 1"),
        ("--sticky-steps", "0", "sticky_steps must be >= 1"),
        ("--min-state-samples", "0", "min_state_samples must be >= 1"),
    ])
    def test_rejected_before_any_training(self, tmp_path, data_dir, capsys, monkeypatch,
                                          flag, value, message):
        def never(*args, **kwargs):
            raise AssertionError("train_mdp was called")

        monkeypatch.setattr(cli, "train_mdp", never)
        out = tmp_path / "m.model"
        assert run_cli(["train", "--data", str(data_dir), "--out", str(out),
                        flag, value] + TINY_FLAGS) == 2
        assert f"data error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestAblateAndCompare:
    def test_ablate_sensors_table(self, tmp_path, data_dir):
        out = tmp_path / "abl"
        code = run_cli(["ablate-sensors", "--data", str(data_dir),
                        "--out", str(out), "--subsets", "force;all",
                        "--trials", "1", "--seed", "2", "--split-mode", "run"]
                       + TRAIN_FLAGS)
        assert code == 0
        rows = (tmp_path / "abl.sensor_ablation.csv").read_text().splitlines()
        assert rows[0].startswith("subset,rmse_mean")
        assert len(rows) == 1 + 2

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

        def recording(train_set, config, seed=0, log=None, workers=1):
            seen.append((seed, config, workers))
            return train_mdp(train_set, config, seed)

        # the recorder sees only calls made in this process: no trial workers
        monkeypatch.delenv("MDP_TCM_THREADS", raising=False)
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
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("MDP_TCM_THREADS", raising=False)
            else:
                monkeypatch.setenv("MDP_TCM_THREADS", threads)
            assert run_cli(command + [
                "--data", str(data_dir), "--out", str(tmp_path / f"t{threads}" / "t"),
                "--trials", "2", "--seed", "5", "--split-mode", "run"] + TINY_FLAGS) == 0
            stdout[threads] = capsys.readouterr().out
        in_turn, fanned_out = tree_bytes(tmp_path / "tNone"), tree_bytes(tmp_path / "t2")
        assert in_turn and in_turn == fanned_out
        # each trial's log lines (evaluate's train lines) print in seed order
        assert stdout["2"] == stdout[None]

    def test_numeric_error_in_a_worker_exits_3(self, tmp_path, data_dir, monkeypatch,
                                               capsys, two_cores):
        parent = os.getpid()

        def diverging(train, test_runs, config, seed):
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
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("MDP_TCM_THREADS", raising=False)
            else:
                monkeypatch.setenv("MDP_TCM_THREADS", threads)
            assert run_cli(["train", "--data", str(data_dir), "--out", str(out),
                            "--kind", "multistate", "--seed", "5", "--train-ratio", "1.0"]
                           + TINY_FLAGS + TINY_DE_FLAGS) == 0
            written[threads] = capsys.readouterr().out, tree_bytes(tmp_path)
        stdout, files = written[None]
        assert "training state-" in stdout  # state regressors were among the jobs
        assert set(files) == {"m.model", "m.model.finetune_loss.csv",
                              "m.model.de_history.csv"}
        assert written["2"] == written[None]

    def test_numeric_error_in_a_sub_model_worker_exits_3(self, tmp_path, data_dir,
                                                         monkeypatch, capsys, two_cores):
        parent = os.getpid()

        def diverging(frames, targets, layer_sizes, config, seed):
            where = "a worker" if os.getpid() != parent else "the parent"
            raise NumericError(f"regressor {seed} diverged in {where}")

        monkeypatch.setattr(dbn, "train_regressor", diverging)
        monkeypatch.setenv("MDP_TCM_THREADS", "2")
        assert run_cli(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.model"),
                        "--seed", "5", "--train-ratio", "1.0"]
                       + TINY_FLAGS + TINY_DE_FLAGS) == 3
        assert "numeric failure: regressor 5 diverged in a worker" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestWorkerCount:
    @pytest.mark.parametrize("value, trials, cores, want", [
        (None, 4, 8, 1), ("", 4, 8, 1), (" 3 ", 4, 8, 3), ("8", 2, 8, 2), ("8", 4, 2, 2),
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
        assert len(cli._load_runs(str(data), None)) == len(runs)

    def test_prediction_table_is_not_a_run(self, tmp_path, data_dir, multistate_model):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        runs = sorted(data.glob("*.csv"))
        assert run_cli(["predict", "--model", str(multistate_model), "--run", str(runs[0]),
                        "--out", str(data / "pred.csv")]) == 0
        assert run_cli(["evaluate", "--data", str(data), "--model", str(multistate_model),
                        "--out", str(tmp_path / "ev")]) == 0
        assert len(cli._load_runs(str(data), None)) == len(runs)

    def test_run_csv_without_sidecar_is_data_error(self, tmp_path, data_dir, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        shutil.copy(data / "run000.csv", data / "extra.csv")
        assert run_cli(["evaluate", "--data", str(data), "--out", str(tmp_path / "e"),
                        "--trials", "1"]) == 2
        assert f"missing sidecar {data / 'extra.meta'}" in capsys.readouterr().err


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

    def test_held_out_data_is_whole_runs(self, data_dir):
        datasets = cli._load_runs(str(data_dir), None)
        train, held = cli._split_runs(datasets, 0.85, 4)
        assert len(held) == 1
        rest = [ds for ds in datasets if ds is not held[0]]
        assert len(rest) == 2
        assert any(np.array_equal(train.frames, FrameDataset.concat(runs).frames)
                   for runs in (rest, rest[::-1]))

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
                                              ("reg1.theta", np.inf)])
    def test_non_finite_model_array_is_data_error(self, tmp_path, data_dir, capsys,
                                                  command, array, value):
        path = tmp_path / "m.model"
        _tiny_model_file(path)
        kind, arrays, config = read_model_file(path)
        arrays[array][2] = value
        write_model_file(path, kind, arrays, config)
        out = tmp_path / "p.csv"
        argv = (["predict", "--run", str(sorted(data_dir.glob("*.csv"))[0])]
                if command == "predict" else ["evaluate", "--data", str(data_dir)])
        assert run_cli(argv + ["--model", str(path), "--out", str(out)]) == 2
        assert f"{path}: array {array!r} holds a non-finite value" \
            in capsys.readouterr().err
        assert not list(tmp_path.glob("p.csv*"))  # no prediction, no report

    @pytest.mark.parametrize("kind, old, new", [
        ("multistate", b"kind = multistate", b"kind = \xffmultistate"),
        ("regressor", b"layer_sizes = 6,3,1", b"layer_sizes = 6,3x,1"),
        ("regressor", b"layer_sizes = 6,3,1", b"layer_sizes = 6,4,1"),
        ("multistate", b"reg1.layer_sizes = 6,3,1", b"reg1.layer_sizes = 6,3,2,1"),
        ("regressor", b"array theta 25", b"array theta 2y5"),
        ("multistate", b"sticky_steps = 1", b"sticky_steps = x"),
    ], ids=["non-utf8", "non-integer-size", "theta-length", "route-theta-length",
            "array-shape", "sticky-steps"])
    def test_bad_header_value_names_the_model(self, tmp_path, data_dir, capsys,
                                              kind, old, new):
        path = tmp_path / "m.model"
        _tiny_model_file(path, kind)
        head, sep, payload = path.read_bytes().partition(b"end-header\n")
        assert old in head
        path.write_bytes(head.replace(old, new) + sep + payload)
        assert run_cli(["predict", "--model", str(path), "--out", str(tmp_path / "p.csv"),
                        "--run", str(sorted(data_dir.glob("*.csv"))[0])]) == 2
        assert str(path) in capsys.readouterr().err

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
        # finite arrays, so the file loads; the forward pass overflows
        path = tmp_path / "m.model"
        kind, arrays, config = read_model_file(multistate_model)
        for name in arrays:
            if name.startswith(scaled) and name.endswith(".theta"):
                arrays[name] = arrays[name] * 1e120
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
