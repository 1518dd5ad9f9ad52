import contextlib
import csv
import hashlib
import math
import os
import re
import stat
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import format_corpus
from mdp_tcm import signal_pipeline
from mdp_tcm.errors import DataError
from mdp_tcm.experiments import window_spec_for
from mdp_tcm.signal_pipeline import (FrameDataset,
                                     WindowSpec, build_dataset, compute_window_size,
                                     fill_wear_gaps, label_state, label_states,
                                     load_run_csv, open_run_csv,
                                     split, window_runs, write_csv)
from mdp_tcm.synth import SynthConfig, generate_fleet, generate_run


def normalize_channel(channel_id: str, samples: np.ndarray) -> np.ndarray:
    """The oracle of `build_dataset`'s scaling: the samples of one channel,
    min-max normalized to [0, 1] in float64. A constant channel maps to all
    zeros, with `build_dataset`'s warning."""
    lo, hi = float(samples.min()), float(samples.max())
    if hi == lo:
        warnings.warn(f"channel {channel_id!r} is constant; normalized to zeros",
                      RuntimeWarning)
        return np.zeros_like(samples)
    return (samples - lo) / (hi - lo)


def window(channels: dict, spec: WindowSpec, wear):
    """The oracle of `build_dataset`'s windowing: (frames, wear targets) of
    channels already scaled. Each frame is every channel's window of one
    rotation side by side, rounded once to float32; its wear target is the
    wear at the window's last sample."""
    tw = compute_window_size(spec)
    stride = spec.stride or tw
    frames = np.hstack([np.lib.stride_tricks.sliding_window_view(x, tw)[::stride]
                        for x in channels.values()]).astype(np.float32)
    return frames, np.lib.stride_tricks.sliding_window_view(wear, tw)[::stride, -1]


def one_sample_frames(channels: dict, wear=None):
    """The frames `build_dataset` makes with a window of one sample."""
    n = len(next(iter(channels.values())))
    spec = WindowSpec(spindle_rpm=60.0, sampling_rate_hz=1.0)
    return build_dataset(channels, spec, np.zeros(n) if wear is None else wear).frames


def norm(samples):
    """One channel as `build_dataset` scales it."""
    return one_sample_frames({"force": np.asarray(samples, dtype=float)})[:, 0]


class TestNormalize:
    def test_affine_endpoints(self):
        assert np.allclose(norm([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_constant_channel_warns_and_zeroes(self):
        with pytest.warns(RuntimeWarning, match="'force' is constant"):
            out = norm([5.0, 5.0, 5.0])
        assert np.all(out == 0.0)

    def test_already_normalized(self):
        assert np.array_equal(norm([0.0, 1.0]), [0.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = norm(rng.normal(5, 3, 100))
        twice = norm(once)
        assert np.max(np.abs(once - twice)) < 1e-12


class TestWindowSize:
    def test_paper_rates_1200rpm(self):
        spec = WindowSpec(spindle_rpm=1200, sampling_rate_hz=20000)
        assert compute_window_size(spec) == 1000

    def test_paper_rates_1650rpm(self):
        spec = WindowSpec(spindle_rpm=1650, sampling_rate_hz=20000)
        assert compute_window_size(spec) == 727

    def test_one_sample_per_rotation(self):
        assert compute_window_size(WindowSpec(spindle_rpm=60, sampling_rate_hz=1)) == 1

    def test_window_below_one_sample_rejected(self):
        with pytest.raises(ValueError):
            compute_window_size(WindowSpec(spindle_rpm=100000, sampling_rate_hz=10))

    @pytest.mark.parametrize("field", ["spindle_rpm", "sampling_rate_hz"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, field, value):
        values = {"spindle_rpm": 1650.0, "sampling_rate_hz": 20000.0, field: value}
        with pytest.raises(ValueError, match="spindle_rpm and sampling_rate_hz must be finite"):
            WindowSpec(**values)


class TestLabelState:
    @pytest.mark.parametrize("wear,state", [
        (50.0, 0), (100.0, 0), (150.0, 1), (200.0, 1),
        (250.0, 2), (299.999, 2), (300.0, 3), (450.0, 3), (0.0, 0),
    ])
    def test_boundaries(self, wear, state):
        assert label_state(wear) == state

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            label_state(-1.0)

    def test_vectorized_matches_scalar(self):
        wear = np.linspace(0, 500, 101)
        assert np.array_equal(label_states(wear), [label_state(w) for w in wear])

    def test_monotone_and_total(self):
        wear = np.linspace(0, 600, 1000)
        labels = label_states(wear)
        assert np.all(np.diff(labels) >= 0)
        assert set(np.unique(labels)) == {0, 1, 2, 3}


class TestWindowing:
    """Frame geometry, from channels whose minimum is 0 and maximum 1, which
    `build_dataset` stores as they are: (x - 0.0) / 1.0 is x, bit for bit."""

    def spec(self, tw, stride=1, rate=60.0):
        # spindle_rpm chosen so tw samples cover one rotation at `rate`
        return WindowSpec(spindle_rpm=60.0 * rate / tw, sampling_rate_hz=rate,
                          stride=stride)

    def test_frame_count_single_channel(self):
        ds = build_dataset({"force": np.arange(10) / 9.0}, self.spec(4), np.zeros(10))
        assert len(ds) == 7
        assert np.allclose(ds.frames[0], np.arange(4) / 9.0)

    def test_frame_count_stride_three_two_channels(self):
        chans = {"a": np.arange(10) / 9.0, "b": np.arange(10)[::-1] / 9.0}
        ds = build_dataset(chans, self.spec(4, stride=3), np.zeros(10))
        assert len(ds) == 3
        assert ds.frames.shape == (3, 8)

    def test_exact_fit_single_frame(self):
        chans = {f"c{i}": np.linspace(0, 1, 1000) for i in range(14)}
        ds = build_dataset(chans, self.spec(1000), np.zeros(1000))
        assert len(ds) == 1
        assert ds.frames.shape == (1, 14000)

    def test_values_match_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        # strides below, at and above the window length
        for tau, tw, stride, m in [(11, 3, 1, 2), (16, 5, 4, 3), (9, 4, 2, 1), (12, 3, 3, 2),
                                   (23, 3, 5, 2), (20, 4, 7, 1)]:
            chans = [rng.random(tau) for _ in range(m)]
            for x in chans:
                x[rng.choice(tau, 2, replace=False)] = 0.0, 1.0
            wear = rng.random(tau) * 400
            ds = build_dataset({f"c{i}": x for i, x in enumerate(chans)},
                               self.spec(tw, stride=stride), wear)
            n_frames = (tau - tw) // stride + 1
            assert len(ds) == n_frames
            for t in range(n_frames):
                for c in range(m):
                    for i in range(tw):
                        assert ds.frames[t, c * tw + i] == np.float32(chans[c][t * stride + i])
                assert ds.wear_targets[t] == wear[t * stride + tw - 1]

    def test_wear_target_is_window_end(self):
        wear = np.arange(10, dtype=float)
        ds = build_dataset({"force": np.arange(10) / 9.0}, self.spec(4), wear)
        assert np.array_equal(ds.wear_targets, [3, 4, 5, 6, 7, 8, 9])

    def test_negative_wear_target_rejected(self):
        unit = {"force": np.arange(10) / 9.0}
        # a negative wear at a frame's last sample has no state
        with pytest.raises(ValueError, match="flank wear cannot be negative"):
            build_dataset(unit, self.spec(4), np.arange(10.0) - 6.0)
        # one before the first frame's end is no target
        assert len(build_dataset(unit, self.spec(4), np.arange(10.0) - 2.0)) == 7

    def test_too_short_series_rejected(self):
        with pytest.raises(DataError):
            build_dataset({"force": np.array([0.0, 0.5, 1.0])}, self.spec(4), np.zeros(3))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            build_dataset({"force": np.arange(10) / 9.0, "b": np.arange(9) / 8.0},
                          self.spec(4), np.zeros(10))


class TestSplit:
    def test_85_15(self):
        train, test = split(100, 0.85, 1)
        assert len(train) == 85 and len(test) == 15
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(100))

    def test_singleton(self):
        train, test = split(1, 0.85, 1)
        assert len(train) == 1 and len(test) == 0

    def test_deterministic(self):
        a1, b1 = split(50, 0.85, 9)
        a2, b2 = split(50, 0.85, 9)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            split(0, 0.85, 0)


class TestDatasetPlumbing:
    def test_state_labels_follow_wear(self):
        config = SynthConfig.desk(run_seconds=20.0)
        pool, _ = window_runs((run, window_spec_for(config))
                              for run in generate_fleet(config, 2, 7))
        for ds in (pool, pool.subset(np.arange(5, len(pool), 3)),
                   pool.select_channels(["torque", "force"])):
            assert len(set(label_states(ds.wear_targets))) > 1
            assert ds.state_labels.tobytes() == label_states(ds.wear_targets).tobytes()

    def test_select_channels(self):
        frames = np.arange(12, dtype=float).reshape(2, 6)
        ds = FrameDataset(frames, np.zeros(2), ("a", "b", "c"), 2)
        sub = ds.select_channels(["c", "a"])
        assert sub.channel_ids == ("c", "a")
        assert np.array_equal(sub.frames[0], [4, 5, 0, 1])

    def test_select_missing_channel(self):
        ds = FrameDataset(np.zeros((1, 2)), np.zeros(1), ("a",), 2)
        with pytest.raises(DataError):
            ds.select_channels(["nope"])

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "run.csv"
        data = rng.random((20, 2))
        wear = np.linspace(0, 350, 20)
        with open(path, "w") as fh:
            fh.write("force,torque,wear_um\n")
            for row, w in zip(data, wear):
                fh.write(f"{row[0]:.12g},{row[1]:.12g},{w:.12g}\n")
        channels, got_wear = load_run_csv(path)
        assert list(channels) == ["force", "torque"]
        assert np.allclose(got_wear, wear)
        assert np.allclose(channels["force"], data[:, 0])

    @pytest.mark.parametrize("case", [
        "blocks-0", "blocks-1024", "blocks-2500", "random-bits", "special", "ties",
        "powers-of-ten", "tiny", "integers"])
    def test_write_csv_blocks_give_the_bytes_of_the_whole_matrix(self, tmp_path, case):
        rng = np.random.default_rng(len(case))
        if case.startswith("blocks-"):
            n_rows = int(case.removeprefix("blocks-"))
            columns = [np.arange(n_rows), rng.normal(size=n_rows) * 1e3, rng.random(n_rows)]
        elif case == "integers":  # below 10**10 in magnitude: printed as under %d
            ints = rng.integers(-(10 ** 10 - 1), 10 ** 10, size=30_000)
            ints[:7] = [0, 1, -1, 9, 10, 10 ** 10 - 1, -(10 ** 10 - 1)]
            columns = [ints, ints[::-1].copy()]
        else:
            values = {"random-bits": lambda: format_corpus.random_bits(10 ** 6, 12),
                      "special": lambda: format_corpus.SPECIAL,
                      "ties": lambda: format_corpus.ties(12),
                      "powers-of-ten": format_corpus.power_boundaries,
                      # scaled by three exact powers of ten on the fast path
                      "tiny": lambda: format_corpus.exponent_sweep(-46, -13, 50_000, 5),
                      }[case]()
            # four columns, so each value also lands in the last column of a row
            values = np.concatenate([values, values[:-len(values) % 4]])
            columns = list(values.reshape(-1, 4).T)
        formats = ["%d" if c.dtype.kind == "i" else "%.10g" for c in columns]
        path = tmp_path / "blocks.csv"
        write_csv(path, [f"c{i}" for i in range(len(columns))], columns)
        # the whole table stacked into one matrix and formatted by `%` at once
        n_rows = len(columns[0])
        matrix = np.column_stack(columns).reshape(n_rows, len(columns))
        want = ",".join(f"c{i}" for i in range(len(columns))) + "\n" + (
            (",".join(formats) + "\n") * n_rows) % tuple(matrix.ravel().tolist())
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("n_rows", [0, 3, 2500])
    def test_write_csv_quotes_a_string_cell_as_rfc_4180_asks(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        kinds = ["", "s{}", "s{}, a,b", 's{} "quoted"', "cr\r{}", "lf\n{}", " s{} "]
        names = [kinds[i % len(kinds)].format(i) for i in range(n_rows)]
        values = format_corpus.random_bits(n_rows, 3)
        steps = rng.integers(-10 ** 9, 10 ** 9, n_rows)
        path = tmp_path / "table.csv"
        header = ["x", "name, or label", "step"]
        write_csv(path, header, [values, names, steps])

        def cell(text):  # in quotes, each inner one doubled, when it holds , " CR or LF
            return f'"{text.replace(chr(34), 2 * chr(34))}"' if any(
                c in text for c in ',"\r\n') else text

        want = 'x,"name, or label",step\n' + "".join(
            "%.10g,%s,%d\n" % (v, cell(name), step)
            for v, name, step in zip(values.tolist(), names, steps.tolist()))
        assert path.read_bytes() == want.encode()
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert [row[1] for row in rows[1:]] == names
        assert all(len(row) == 3 for row in rows)

    @pytest.mark.parametrize("value", [10 ** 10, -10 ** 10, 2 ** 62])
    def test_write_csv_rejects_an_integer_that_prints_in_exponent_form(self, tmp_path,
                                                                       value):
        path = tmp_path / "ints.csv"
        with pytest.raises(ValueError, match=r"10\*\*10 or more"):
            write_csv(path, ["i", "x"], [np.array([1, value]), np.array([0.5, 0.25])])
        assert not path.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_channel_sample_rejected(self, tmp_path, bad):
        path = tmp_path / "run.csv"
        path.write_text(f"force,torque,wear_um\n1,2,0\n3,{bad},nan\n5,6,20\n")
        with pytest.raises(DataError, match=r"channel 'torque'.*row 2"):
            load_run_csv(path)

    def test_duplicate_column_name_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("force,force,wear_um\n1,2,0\n3,4,10\n")
        with pytest.raises(DataError, match="a column name appears more than once"):
            load_run_csv(path)

    def test_wear_gaps_pass_through(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("force,wear_um\n1,0\n3,nan\n5,20\n")
        _, wear = load_run_csv(path)
        assert np.isnan(wear[1]) and np.allclose(fill_wear_gaps(wear), [0, 10, 20])

    def test_fill_wear_gaps_interpolates(self):
        wear = np.array([0.0, np.nan, np.nan, 30.0, np.nan, 50.0, np.nan])
        filled = fill_wear_gaps(wear)
        assert np.allclose(filled, [0, 10, 20, 30, 40, 50, 50])

    def test_fill_wear_gaps_all_nan_rejected(self):
        with pytest.raises(DataError):
            fill_wear_gaps([np.nan, np.nan])

    def test_fill_wear_gaps_noop_when_dense(self):
        wear = np.linspace(0, 10, 5)
        assert np.array_equal(fill_wear_gaps(wear), wear)


class TestBuildDataset:
    """`build_dataset` scales each channel inside its block of the frames."""

    @pytest.mark.parametrize("case", ["stride-tw", "overlapping", "constant-channel"])
    def test_frames_equal_window_over_normalized_channels(self, case):
        rng = np.random.default_rng(11)
        tau, tw = 3000, 40
        names = [f"c{k}" for k in range(-2, 3)]
        samples = [rng.normal(0, 10 ** k, tau) + 5 * k for k in range(-2, 3)]
        if case == "constant-channel":
            names[2], samples[2] = "dead", np.full(tau, -0.25)
        channels = dict(zip(names, samples))
        wear = np.linspace(0, 380, tau)
        spec = WindowSpec(spindle_rpm=60.0 * 100.0 / tw, sampling_rate_hz=100.0,
                          stride=tw // 3 if case == "overlapping" else None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = build_dataset(channels, spec, wear)
            frames, targets = window(
                {name: normalize_channel(name, x) for name, x in channels.items()}, spec, wear)
        assert got.frames.tobytes() == frames.tobytes()
        assert got.wear_targets.tobytes() == targets.tobytes()
        assert np.array_equal(got.state_labels, label_states(targets))
        assert got.channel_ids == tuple(names)
        constant = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert constant == (["channel 'dead' is constant; normalized to zeros"] * 2
                            if case == "constant-channel" else [])


class TestFloat32Frames:
    """The frames are float64 `window`s of `normalize_channel`, rounded once."""

    # stride 1 at this width spans several scratch blocks of rows
    @pytest.mark.parametrize("stride", [None, 1], ids=["stride-tw", "stride-1"])
    def test_build_dataset_and_window_runs_round_once(self, stride):
        config = SynthConfig.desk(run_seconds=20.0)
        spec = WindowSpec(spindle_rpm=config.spindle_rpm,
                          sampling_rate_hz=config.sampling_rate_hz, stride=stride)
        runs = generate_fleet(config, 2, 13)
        pool, bounds = window_runs((run, spec) for run in runs)
        assert pool.frames.dtype == np.float32
        tw = compute_window_size(spec)
        for run, (start, stop) in zip(runs, bounds):
            if stride == 1:
                assert stop - start > signal_pipeline._SCALE_BLOCK_BYTES // (8 * tw)
            channels, wear = run.read()
            normalized = {name: normalize_channel(name, x) for name, x in channels.items()}
            want = window(normalized, spec, wear)[0]
            got = build_dataset(channels, spec, wear).frames
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()
            assert pool.frames[start:stop].tobytes() == want.tobytes()


class TestWindowRuns:
    """`window_runs` windows runs into the rows of one frame matrix."""

    CONFIG = SynthConfig.desk(run_seconds=20.0)

    def test_each_runs_rows_equal_its_own_dataset(self):
        runs = generate_fleet(self.CONFIG, 3, 5)
        spec = window_spec_for(self.CONFIG)
        pool, bounds = window_runs((run, spec) for run in runs)
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == len(pool)
        for run, (start, stop) in zip(runs, bounds):
            channels, wear = run.read()
            want = build_dataset(channels, spec, wear)
            assert pool.frames[start:stop].tobytes() == want.frames.tobytes()
            assert pool.wear_targets[start:stop].tobytes() == want.wear_targets.tobytes()
            assert pool.state_labels[start:stop].tobytes() == want.state_labels.tobytes()
        kept, kept_bounds = window_runs(((run, spec) for run in runs), keep=[2, 0])
        assert kept.frames.tobytes() == np.vstack(
            [pool.frames[slice(*bounds[i])] for i in (2, 0)]).tobytes()
        assert [stop - start for start, stop in kept_bounds] == [
            bounds[i][1] - bounds[i][0] for i in (2, 0)]

    @pytest.mark.parametrize("mismatch", ["window", "channels"])
    def test_mixed_layouts_are_data_error(self, tmp_path, mismatch):
        run = generate_run(self.CONFIG, 1)
        spec = window_spec_for(self.CONFIG)
        with contextlib.ExitStack() as stack:
            if mismatch == "window":
                name, other = "#1", (run, WindowSpec(spindle_rpm=1200.0, sampling_rate_hz=200.0))
            else:
                # the run's own samples, in a CSV that lacks its last channel
                channels, wear = run.read()
                name = tmp_path / "run.csv"
                write_csv(name, list(channels)[:-1] + ["wear_um"],
                          list(channels.values())[:-1] + [wear])
                other = (stack.enter_context(open_run_csv(name)), spec)
            with pytest.raises(DataError, match=re.escape(
                    f"run {name} differs from run #0 in its channels or its window length")):
                window_runs([(run, spec), other])

    def test_synthetic_runs_are_made_one_at_a_time(self):
        # three 2 s runs at 20 kHz: each run's samples are made, windowed
        # and dropped before the next is made
        config = SynthConfig(run_seconds=2.0)
        spec = window_spec_for(config)
        runs = generate_fleet(config, 3, 7)
        tracemalloc.start()
        try:
            pool = window_runs((run, spec) for run in runs)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        run_bytes = (len(runs[0].channel_ids) + 1) * config.n_samples * 8
        assert peak < pool.frames.nbytes + 1.5 * run_bytes

    def test_no_runs_is_data_error(self):
        with pytest.raises(DataError, match="no runs to window"):
            window_runs([])


class TestReadMemory:
    """Traced peaks of reading and windowing one run of a few MB of samples."""

    N_ROWS, N_CHANNELS = 40_000, 14

    @pytest.fixture
    def run(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "run.csv"
        names = [f"c{i}" for i in range(self.N_CHANNELS)] + ["wear_um"]
        write_csv(path, names, list(rng.normal(0, 3, (self.N_CHANNELS, self.N_ROWS)))
                  + [np.linspace(0, 350, self.N_ROWS)])
        return path

    @property
    def sample_bytes(self) -> int:
        return (self.N_CHANNELS + 1) * self.N_ROWS * 8

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cold_read_holds_no_bytes_of_the_csv(self, run):
        # the parse's row-major matrix and its transposed copy, not the CSV's bytes
        _, peak = self.traced_peak(lambda: load_run_csv(run))
        assert (run.parent / "run.csv.parsed.npy").exists()
        assert peak <= 2.3 * self.sample_bytes

    def test_warm_read_holds_the_samples_once(self, run):
        load_run_csv(run)
        _, peak = self.traced_peak(lambda: load_run_csv(run))
        assert peak <= 1.3 * self.sample_bytes

    def test_build_dataset_holds_the_frames_and_one_channel(self, run):
        channels, wear = load_run_csv(run)
        spec = WindowSpec(spindle_rpm=1650.0, sampling_rate_hz=20000.0)
        ds, peak = self.traced_peak(lambda: build_dataset(channels, spec, wear))
        assert peak <= ds.frames.nbytes + wear.nbytes

    def test_first_read_hashes_once(self, run, monkeypatch):
        # with no parsed-run file there is nothing to check a hash against:
        # the parse alone hashes the CSV
        def refuse(fh):
            raise AssertionError("hash-only pass on a first read")

        monkeypatch.setattr(signal_pipeline, "_csv_digest", refuse)
        load_run_csv(run)
        assert (run.parent / "run.csv.parsed.npy").exists()


class TestParsedRunCache:
    """`load_run_csv` keeps the parsed samples in `<run>.csv.parsed.npy`."""

    def make_run(self, tmp_path, rows=50):
        rng = np.random.default_rng(3)
        path = tmp_path / "run.csv"
        with open(path, "w") as fh:
            fh.write("force,torque,vib_x,wear_um\n")
            for i, row in enumerate(rng.normal(0, 2, (rows, 3))):
                fh.write(",".join(f"{v:.10g}" for v in row) + f",{2.0 * i:.10g}\n")
        return path

    @staticmethod
    def parse(path):
        """The parse alone: each channel a column of the loadtxt matrix."""
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return [rows[:, i] for i in range(rows.shape[1])]

    @staticmethod
    def read(path):
        channels, wear = load_run_csv(path)
        return list(channels.values()) + [wear]

    def test_hit_is_bit_identical_to_the_parse_and_contiguous(self, tmp_path):
        path = self.make_run(tmp_path)
        path.chmod(0o640)
        cache = tmp_path / "run.csv.parsed.npy"
        first = self.read(path)
        assert stat.S_IMODE(cache.stat().st_mode) == 0o640  # the CSV's readers
        stamp = cache.stat().st_mtime_ns
        second = self.read(path)
        assert cache.stat().st_mtime_ns == stamp  # read, not rewritten
        for got in (first, second):
            for a, b in zip(got, self.parse(path)):
                assert a.tobytes() == b.tobytes()
            assert all(a.flags.c_contiguous for a in got)

    def test_edited_run_is_parsed_again(self, tmp_path):
        # same size and mtime: only the content tells the edit
        path = self.make_run(tmp_path)
        before = self.read(path)
        text, stat = path.read_text(), path.stat()
        digit = next(i for i in range(text.index("\n") + 1, len(text))
                     if text[i] in "12345678")
        path.write_text(text[:digit] + str(int(text[digit]) + 1) + text[digit + 1:])
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size,
                                                                  stat.st_mtime_ns)
        got = self.read(path)
        assert got[0][0] != before[0][0]
        for a, b in zip(got, self.parse(path)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "digest only", "empty"])
    def test_damaged_cache_is_parsed_and_rewritten(self, tmp_path, damage):
        path = self.make_run(tmp_path)
        cache = tmp_path / "run.csv.parsed.npy"
        self.read(path)
        good = cache.read_bytes()
        cache.write_bytes({"garbage": b"\x93NUMPY" + b"x" * 200,
                           "truncated": good[:-9],
                           "digest only": good[:32],
                           "empty": b""}[damage])
        for a, b in zip(self.read(path), self.parse(path)):
            assert a.tobytes() == b.tobytes()
        assert cache.read_bytes() == good

    @pytest.mark.parametrize("tag", [b"mdp_tcm-parsed-v0\0", b""])
    def test_file_keyed_under_another_tag_is_parsed_again(self, tmp_path, tag):
        # a file written for another layout or parse, its digest taken over
        # another tag (b"": the CSV's bytes alone), is not read
        path = self.make_run(tmp_path)
        cache = tmp_path / "run.csv.parsed.npy"
        self.read(path)
        good = cache.read_bytes()
        with open(cache, "wb") as fh:
            fh.write(hashlib.sha256(tag + path.read_bytes()).digest())
            np.lib.format.write_array(fh, np.zeros((4, 50)))
        for a, b in zip(self.read(path), self.parse(path)):
            assert a.tobytes() == b.tobytes()
        assert cache.read_bytes() == good

    def test_run_replaced_after_open_is_keyed_to_the_bytes_read(self, tmp_path,
                                                                monkeypatch):
        # a writer that renames a new run into place while the old one is
        # being read: the parsed-run file must hold the old samples under
        # the old bytes' digest, so the next read parses the new run
        path = self.make_run(tmp_path)
        old = self.parse(path)
        newer = tmp_path / "newer.csv"
        newer.write_text("force,torque,vib_x,wear_um\n" + "7,8,9,100\n" * 50)
        real_open, swapped = open, []

        def open_then_replace(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            if os.fspath(file) == os.fspath(path) and not swapped:
                os.replace(newer, path)
                swapped.append(file)
            return fh

        monkeypatch.setattr(signal_pipeline, "open", open_then_replace, raising=False)
        for a, b in zip(self.read(path), old):
            assert a.tobytes() == b.tobytes()
        monkeypatch.undo()
        assert swapped
        got = self.read(path)
        assert got[0].tolist() == [7.0] * 50 and got[-1].tolist() == [100.0] * 50

    @pytest.mark.parametrize("first_read", [True, False], ids=["parse", "parsed-run-file"])
    def test_opened_run_reads_the_file_it_checked(self, tmp_path, first_read):
        # a parsed-run file replaced between the check and the read is not read
        path = self.make_run(tmp_path)
        if not first_read:
            self.read(path)
        with open_run_csv(path) as run:
            assert run.channel_ids == ("force", "torque", "vib_x")
            assert run.n_samples == 50
            junk = tmp_path / "junk"
            junk.write_bytes(b"\x93NUMPY" + b"x" * 200)
            os.replace(junk, tmp_path / "run.csv.parsed.npy")
            got = run.read()
        for a, b in zip(got, self.parse(path)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_whole(self, tmp_path):
        # larger than a pipe's buffer, so a second read of the stream
        # would find it drained
        path = self.make_run(tmp_path, rows=5000)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        got = self.read(fifo)
        writer.join(10)
        assert not writer.is_alive()
        for a, b in zip(got, self.parse(path)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("target", ["replace", "write_array"])
    def test_failed_write_returns_the_data_and_leaves_no_temp_file(
            self, tmp_path, monkeypatch, target):
        path = self.make_run(tmp_path)

        def refuse(*args, **kwargs):
            raise PermissionError("read-only")

        monkeypatch.setattr(*((os, "replace") if target == "replace"
                              else (np.lib.format, "write_array")), refuse)
        for a, b in zip(self.read(path), self.parse(path)):
            assert a.tobytes() == b.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]

    def test_non_finite_sample_raises_on_the_cached_read(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("force,torque,wear_um\n1,2,0\n3,nan,nan\n5,6,20\n")
        messages = []
        for _ in range(2):
            with pytest.raises(DataError) as info:
                load_run_csv(path)
            messages.append(str(info.value))
        assert (tmp_path / "run.csv.parsed.npy").exists()
        assert messages[0] == messages[1]
        assert "channel 'torque' has a non-finite sample at data row 2" in messages[0]
