"""Output checks of the pipeline benchmark count a bad output as a failure."""

import workloads


def command(rc=0):
    return workloads.Command("predict", rc, wall_s=0.1, cpu_s=0.1, stderr="boom")


def write_predictions(path, rows, value="1.5"):
    header = "frame_index,diagnosed_state,wear_estimate_um\n"
    path.write_text(header + "".join(f"{i},0,{value}\n" for i in range(rows)))


def runner(tmp_path):
    return workloads.Runner(workloads.WORKLOADS["desk-fanout"], seed=1, work=tmp_path)


def test_good_predictions_pass(tmp_path):
    r, out = runner(tmp_path), tmp_path / "pred.csv"
    write_predictions(out, r.wl.frames_per_run)
    r._record(command(), r._check_predict, out, "run000")
    assert r.problems == [] and r.commands[0].ok


def test_non_finite_rows_and_wrong_counts_fail(tmp_path):
    r, out = runner(tmp_path), tmp_path / "pred.csv"
    write_predictions(out, r.wl.frames_per_run, value="nan")
    r._record(command(), r._check_predict, out, "run000")
    write_predictions(out, r.wl.frames_per_run - 1)
    r._record(command(), r._check_predict, out, "run001")
    assert [c.ok for c in r.commands] == [False, False]
    assert "not finite" in r.problems[0] and "prediction rows for" in r.problems[1]


def test_output_that_changes_between_repetitions_fails(tmp_path):
    r, out = runner(tmp_path), tmp_path / "pred.csv"
    write_predictions(out, r.wl.frames_per_run)
    r._record(command(), r._check_predict, out, "run000")
    write_predictions(out, r.wl.frames_per_run, value="1.25")
    r._record(command(), r._check_predict, out, "run000")
    assert r.problems == ["predict: predict/run000 differs between repetitions"]


def test_nonzero_exit_and_missing_output_fail(tmp_path):
    r = runner(tmp_path)
    r._record(command(rc=2), r._check_predict, tmp_path / "absent.csv", "run000")
    r._record(command(), r._check_predict, tmp_path / "absent.csv", "run000")
    assert "exit code 2: boom" in r.problems[0]
    assert "unreadable output" in r.problems[1]
