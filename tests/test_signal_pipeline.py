import hashlib
import os
import stat
import threading

import numpy as np
import pytest

from mdp_tcm import signal_pipeline
from mdp_tcm.errors import DataError
from mdp_tcm.signal_pipeline import (ChannelSeries, FrameDataset,
                                     WindowSpec, compute_window_size,
                                     fill_wear_gaps, label_state, label_states,
                                     load_run_csv, normalize_channel, split,
                                     window, write_csv)


def ch(samples, name="force", rate=100.0):
    return ChannelSeries(name, rate, np.asarray(samples, dtype=float))


class TestNormalize:
    def test_affine_endpoints(self):
        out = normalize_channel(ch([2.0, 4.0, 6.0]))
        assert np.allclose(out.samples, [0.0, 0.5, 1.0])

    def test_constant_channel_warns_and_zeroes(self):
        with pytest.warns(RuntimeWarning):
            out = normalize_channel(ch([5.0, 5.0, 5.0]))
        assert np.all(out.samples == 0.0)

    def test_already_normalized(self):
        out = normalize_channel(ch([0.0, 1.0]))
        assert np.array_equal(out.samples, [0.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        once = normalize_channel(ch(rng.normal(5, 3, 100)))
        twice = normalize_channel(once)
        assert np.max(np.abs(once.samples - twice.samples)) < 1e-12


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
    def spec(self, tw, stride=1, rate=60.0):
        # spindle_rpm chosen so tw samples cover one rotation at `rate`
        return WindowSpec(spindle_rpm=60.0 * rate / tw, sampling_rate_hz=rate,
                          stride=stride)

    def test_frame_count_single_channel(self):
        ds = window([ch(np.arange(10) / 10.0)], self.spec(4), np.zeros(10))
        assert len(ds) == 7
        assert np.allclose(ds.frames[0], np.arange(4) / 10.0)

    def test_frame_count_stride_three_two_channels(self):
        chans = [ch(np.arange(10) / 10.0, "a"), ch(np.arange(10) / 20.0, "b")]
        ds = window(chans, self.spec(4, stride=3), np.zeros(10))
        assert len(ds) == 3
        assert ds.frames.shape == (3, 8)

    def test_exact_fit_single_frame(self):
        chans = [ch(np.linspace(0, 1, 1000), f"c{i}") for i in range(14)]
        ds = window(chans, self.spec(1000), np.zeros(1000))
        assert len(ds) == 1
        assert ds.frames.shape == (1, 14000)

    def test_values_match_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        # strides below, at and above the window length
        for tau, tw, stride, m in [(11, 3, 1, 2), (16, 5, 4, 3), (9, 4, 2, 1), (12, 3, 3, 2),
                                   (23, 3, 5, 2), (20, 4, 7, 1)]:
            chans = [ch(rng.random(tau), f"c{i}") for i in range(m)]
            wear = rng.random(tau) * 400
            ds = window(chans, self.spec(tw, stride=stride), wear)
            n_frames = (tau - tw) // stride + 1
            assert len(ds) == n_frames
            for t in range(n_frames):
                for c in range(m):
                    for i in range(tw):
                        assert ds.frames[t, c * tw + i] == chans[c].samples[t * stride + i]
                assert ds.wear_targets[t] == wear[t * stride + tw - 1]

    def test_wear_target_is_window_end(self):
        wear = np.arange(10, dtype=float)
        ds = window([ch(np.zeros(10) + 0.5)], self.spec(4), wear)
        assert np.array_equal(ds.wear_targets, [3, 4, 5, 6, 7, 8, 9])

    def test_too_short_series_rejected(self):
        with pytest.raises(DataError):
            window([ch(np.zeros(3))], self.spec(4), np.zeros(3))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            window([ch(np.zeros(10)), ch(np.zeros(9), "b")], self.spec(4), np.zeros(10))


class TestSplit:
    def make(self, n):
        rng = np.random.default_rng(0)
        return FrameDataset(rng.random((n, 4)), label_states(np.zeros(n)),
                            np.zeros(n), ("a",), 4)

    def test_85_15(self):
        train, test = split(self.make(100), 0.85, 1)
        assert len(train) == 85 and len(test) == 15

    def test_singleton(self):
        train, test = split(self.make(1), 0.85, 1)
        assert len(train) == 1 and len(test) == 0

    def test_deterministic(self):
        a1, b1 = split(self.make(50), 0.85, 9)
        a2, b2 = split(self.make(50), 0.85, 9)
        assert np.array_equal(a1.frames, a2.frames)
        assert np.array_equal(b1.frames, b2.frames)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            split(self.make(10).subset(np.array([], dtype=int)), 0.85, 0)


class TestDatasetPlumbing:
    def test_label_consistency_enforced(self):
        with pytest.raises(ValueError):
            FrameDataset(np.zeros((1, 2)), np.array([2]), np.array([50.0]), ("a",), 2)

    def test_select_channels(self):
        frames = np.arange(12, dtype=float).reshape(2, 6)
        ds = FrameDataset(frames, label_states([0, 0]), np.zeros(2), ("a", "b", "c"), 2)
        sub = ds.select_channels(["c", "a"])
        assert sub.channel_ids == ("c", "a")
        assert np.array_equal(sub.frames[0], [4, 5, 0, 1])

    def test_select_missing_channel(self):
        ds = FrameDataset(np.zeros((1, 2)), label_states([0.0]), np.zeros(1), ("a",), 2)
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
        channels, got_wear = load_run_csv(path, 100.0)
        assert [c.channel_id for c in channels] == ["force", "torque"]
        assert np.allclose(got_wear, wear)
        assert np.allclose(channels[0].samples, data[:, 0])

    @pytest.mark.parametrize("n_rows", [0, 1024, 2500])
    def test_write_csv_blocks_give_the_bytes_of_the_whole_matrix(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        columns = [np.arange(n_rows), rng.normal(size=n_rows) * 1e3,
                   rng.random(n_rows)]
        formats = ("%d", "%.10g", "%.10g")
        path = tmp_path / "blocks.csv"
        write_csv(path, ["i", "x", "y"], columns, formats)
        # the whole table stacked into one matrix and formatted at once
        matrix = np.column_stack(columns).reshape(n_rows, len(columns))
        want = "i,x,y\n" + ((",".join(formats) + "\n") * n_rows) % tuple(
            matrix.ravel().tolist())
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_channel_sample_rejected(self, tmp_path, bad):
        path = tmp_path / "run.csv"
        path.write_text(f"force,torque,wear_um\n1,2,0\n3,{bad},nan\n5,6,20\n")
        with pytest.raises(DataError, match=r"channel 'torque'.*row 2"):
            load_run_csv(path, 100.0)

    def test_wear_gaps_pass_through(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("force,wear_um\n1,0\n3,nan\n5,20\n")
        _, wear = load_run_csv(path, 100.0)
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
        channels, wear = load_run_csv(path, 100.0)
        return [c.samples for c in channels] + [wear]

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
                load_run_csv(path, 100.0)
            messages.append(str(info.value))
        assert (tmp_path / "run.csv.parsed.npy").exists()
        assert messages[0] == messages[1]
        assert "channel 'torque' has a non-finite sample at data row 2" in messages[0]
