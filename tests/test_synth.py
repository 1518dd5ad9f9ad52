import numpy as np
import pytest

import format_corpus
from mdp_tcm import signal_pipeline
from mdp_tcm.experiments import window_spec_for
from mdp_tcm.signal_pipeline import N_STATES, build_dataset, label_states, window_runs
from mdp_tcm.synth import (CHANNEL_NAMES, SynthConfig, SynthRun, generate_fleet,
                           generate_run, read_run_meta, wear_curve,
                           write_run_csv, write_run_meta)

DESK = SynthConfig.desk(run_seconds=90.0)


class TestWearCurve:
    def test_endpoints(self):
        assert wear_curve(DESK, 0.0) == 0.0
        assert wear_curve(DESK, 1.0) == pytest.approx(DESK.wear_end_um, abs=1e-9)

    def test_first_knot_hits_100(self):
        f1 = DESK.imbalance_skew
        d = np.array([f1, f1 ** (2 / 3), f1 ** (1 / 3), 1.0])
        knot = d[0] / d.sum()
        assert wear_curve(DESK, knot) == pytest.approx(100.0, abs=1e-9)

    def test_monotone_and_continuous(self):
        t = np.linspace(0, 1, 20001)
        w = wear_curve(DESK, t)
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(np.diff(w))) < 1.0  # no jumps at knots

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            wear_curve(DESK, 1.5)

    def test_all_states_covered(self):
        t = np.linspace(0, 1, 5000)
        labels = label_states(wear_curve(DESK, t))
        assert set(np.unique(labels)) == {0, 1, 2, 3}


class TestGenerateRun:
    def test_seed_determinism_bit_identical(self):
        a = generate_run(DESK, seed=7)
        b = generate_run(DESK, seed=7)
        assert list(a.channels) == list(b.channels)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name])
        assert np.array_equal(a.wear_trajectory, b.wear_trajectory)

    def test_wear_monotone_and_ends_at_target(self):
        run = generate_run(DESK, seed=1)
        assert np.all(np.diff(run.wear_trajectory) >= 0.0)
        assert run.wear_trajectory[-1] == pytest.approx(DESK.wear_end_um, abs=1e-6)

    def test_channel_names_and_count(self):
        run = generate_run(DESK, seed=2)
        assert tuple(run.channels) == CHANNEL_NAMES
        assert len(run.channels) == 14

    def test_state_counts_track_skew(self):
        run = generate_run(DESK, seed=3)
        ds = build_dataset(run.channels, window_spec_for(DESK), run.wear_trajectory)
        counts = np.bincount(ds.state_labels, minlength=N_STATES)
        assert np.all(counts >= 100)  # label coverage at desk scale
        ratio = counts[0] / counts[3]
        assert 0.7 * DESK.imbalance_skew <= ratio <= 1.3 * DESK.imbalance_skew

    def test_window_mean_tracks_wear(self):
        run = generate_run(DESK, seed=4)
        ds = build_dataset(run.channels, window_spec_for(DESK), run.wear_trajectory)
        cube = ds.frames.reshape(len(ds), 14, ds.window_len)
        for ci in range(14):
            r = np.corrcoef(cube[:, ci, :].mean(axis=1), ds.wear_targets)[0, 1]
            assert r >= 0.8


class TestFleet:
    def test_singleton(self):
        assert len(generate_fleet(DESK, 1, 0)) == 1

    def test_distinct_seeds_distinct_noise(self):
        runs = generate_fleet(DESK, 2, 0)
        assert not np.array_equal(runs[0].channels["force"], runs[1].channels["force"])

    def test_pooled_fleet_covers_all_classes(self):
        cfg = SynthConfig.desk(run_seconds=20.0)
        runs = generate_fleet(cfg, 20, 0)
        spec = window_spec_for(cfg)
        labels = window_runs((run, spec) for run in runs)[0].state_labels
        assert set(np.unique(labels)) == {0, 1, 2, 3}

    def test_bad_run_count(self):
        with pytest.raises(ValueError):
            generate_fleet(DESK, 0, 0)


class TestRunFiles:
    def test_csv_meta_roundtrip(self, tmp_path):
        cfg = SynthConfig.desk(run_seconds=5.0)
        run = generate_run(cfg, 9)
        csv = tmp_path / "run.csv"
        meta = tmp_path / "run.meta"
        write_run_csv(run, csv)
        write_run_meta(run, meta, created="2026-01-01T00:00:00")
        header = csv.read_text().splitlines()[0].split(",")
        assert header == list(CHANNEL_NAMES) + ["wear_um"]
        got = read_run_meta(meta)
        assert float(got["sampling_rate_hz"]) == 200.0
        assert got["created"] == "2026-01-01T00:00:00"

    def test_csv_deterministic_bytes(self, tmp_path):
        run = generate_run(SynthConfig.desk(run_seconds=5.0), 9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(run, p1)
        write_run_csv(run, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("case", ["mixed", "special", "ties", "powers-of-ten"])
    def test_csv_bytes_equal_savetxt(self, tmp_path, case):
        # np.savetxt, one `%` per row, is the reference; the row count spans
        # two full blocks and a partial one
        n = 2 * signal_pipeline._WRITE_BLOCK_ROWS + 37
        run = generate_run(SynthConfig.desk(run_seconds=n / 200.0), 4)
        assert len(run.wear_trajectory) == n
        special = {
            "mixed": lambda: np.array([-0.0, 1e-300, 1e12, 3.0, -7.0, 0.0, 123456789.0,
                                       -1e-300, 2.5e-7, 1.0 / 3.0]),
            "special": lambda: format_corpus.SPECIAL,
            "ties": lambda: format_corpus.ties(4),
            "powers-of-ten": format_corpus.power_boundaries}[case]()
        # row by row across the channels from the first sample, and reversed
        # up to the last
        samples = np.column_stack(list(run.channels.values()))
        samples[:, 2] = np.round(samples[:, 2] * 1e4)  # exact integers
        samples.ravel()[:len(special)] = special
        samples.ravel()[-len(special):] = special[::-1]
        run = SynthRun(dict(zip(run.channels, samples.T)), run.wear_trajectory)
        got = tmp_path / "got.csv"
        write_run_csv(run, got)
        want = tmp_path / "want.csv"
        with open(want, "w", encoding="utf-8") as fh:
            fh.write(",".join(list(CHANNEL_NAMES) + ["wear_um"]) + "\n")
            np.savetxt(fh, np.column_stack([samples, run.wear_trajectory]),
                       fmt="%.10g", delimiter=",")
        assert got.read_bytes() == want.read_bytes()
        if case == "mixed":
            assert got.read_text().splitlines()[1].startswith("-0,")
