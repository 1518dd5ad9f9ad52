import numpy as np
import pytest

from mdp_tcm.errors import DataError
from mdp_tcm.signal_pipeline import (ChannelSeries, FrameDataset, SplitSpec,
                                     WindowSpec, compute_window_size,
                                     fill_wear_gaps, label_state, label_states,
                                     load_run_csv, normalize_channel, split,
                                     window)


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
        for tau, tw, stride, m in [(11, 3, 1, 2), (16, 5, 4, 3), (9, 4, 2, 1)]:
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
        train, test = split(self.make(100), SplitSpec(seed=1))
        assert len(train) == 85 and len(test) == 15

    def test_singleton(self):
        train, test = split(self.make(1), SplitSpec(seed=1))
        assert len(train) == 1 and len(test) == 0

    def test_deterministic(self):
        a1, b1 = split(self.make(50), SplitSpec(seed=9))
        a2, b2 = split(self.make(50), SplitSpec(seed=9))
        assert np.array_equal(a1.frames, a2.frames)
        assert np.array_equal(b1.frames, b2.frames)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            split(self.make(10).subset(np.array([], dtype=int)), SplitSpec())


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
