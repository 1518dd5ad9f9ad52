import math

import numpy as np
import pytest

import format_corpus
from mdp_tcm import signal_pipeline, synth
from mdp_tcm.experiments import window_spec_for
from mdp_tcm.seeding import substream
from mdp_tcm.signal_pipeline import (N_STATES, WEAR_EDGES_UM, build_dataset, label_states,
                                     window_runs, write_csv_blocks)
from mdp_tcm.synth import (CHANNEL_NAMES, SynthConfig, generate_fleet,
                           generate_run, read_run_meta, wear_curve,
                           write_run_csv, write_run_meta)

DESK = SynthConfig.desk(run_seconds=90.0)


def generate_run_whole(config: SynthConfig, seed: int, gain_jitter=None):
    """The oracle of `generate_run`: (channels, wear) of a run made in one
    piece, every channel's whole column at once, its noise drawn channel
    after channel from one generator."""
    rng = substream(seed, "synth-run")
    n = config.n_samples
    t_norm = np.linspace(0.0, 1.0, n)
    wear = wear_curve(config, t_norm)
    times = np.arange(n) / config.sampling_rate_hz
    spindle_hz = config.spindle_rpm / 60.0
    edges = np.array([0.0] + list(WEAR_EDGES_UM))
    idx = np.searchsorted(edges, wear, side="right") - 1

    channels = {}
    for ci, name in enumerate(CHANNEL_NAMES):
        gain = (synth._GAIN[name] if gain_jitter is None
                else synth._GAIN[name] * gain_jitter[name])
        noise = config.noise_scale * (
            synth._NOISE[name] if config.noise_std is None else float(config.noise_std))
        slopes = 1.0 + synth._STATE_WARP * np.sin(2.399963 * (ci + 1) + 1.7 * np.arange(4))
        seg_len = np.diff(np.append(edges, np.inf))
        cum = np.concatenate([[0.0], np.cumsum(slopes[:-1] * seg_len[:-1])])
        resp = cum[idx] + slopes[idx] * (wear - edges[idx])
        if config.band_frac > 0.0:
            lo, hi = (f * config.wear_end_um for f in synth._BANDS[name])
            band = config.wear_end_um * np.clip((wear - lo) / (hi - lo), 0.0, 1.0)
            resp = (1.0 - config.band_frac) * resp + config.band_frac * band
        x = synth._BASE[name] + gain * resp
        x = x + synth._AMP[name] * np.sin(
            2.0 * np.pi * spindle_hz * times + 2.0 * np.pi * ci / len(CHANNEL_NAMES))
        if noise > 0.0:
            x = x + rng.normal(0.0, noise, size=n)
        channels[name] = x
    return channels, wear


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
        a, a_wear = generate_run(DESK, seed=7).read()
        b, b_wear = generate_run(DESK, seed=7).read()
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name], b[name])
        assert np.array_equal(a_wear, b_wear)

    def test_wear_monotone_and_ends_at_target(self):
        wear = generate_run(DESK, seed=1).read()[1]
        assert np.all(np.diff(wear) >= 0.0)
        assert wear[-1] == pytest.approx(DESK.wear_end_um, abs=1e-6)

    def test_channel_names_and_count(self):
        run = generate_run(DESK, seed=2)
        assert tuple(run.read()[0]) == run.channel_ids == CHANNEL_NAMES
        assert len(CHANNEL_NAMES) == 14

    def test_state_counts_track_skew(self):
        channels, wear = generate_run(DESK, seed=3).read()
        ds = build_dataset(channels, window_spec_for(DESK), wear)
        counts = np.bincount(ds.state_labels, minlength=N_STATES)
        assert np.all(counts >= 100)  # label coverage at desk scale
        ratio = counts[0] / counts[3]
        assert 0.7 * DESK.imbalance_skew <= ratio <= 1.3 * DESK.imbalance_skew

    def test_window_mean_tracks_wear(self):
        channels, wear = generate_run(DESK, seed=4).read()
        ds = build_dataset(channels, window_spec_for(DESK), wear)
        cube = ds.frames.reshape(len(ds), 14, ds.window_len)
        for ci in range(14):
            r = np.corrcoef(cube[:, ci, :].mean(axis=1), ds.wear_targets)[0, 1]
            assert r >= 0.8


class TestFleet:
    def test_singleton(self):
        assert len(generate_fleet(DESK, 1, 0)) == 1

    def test_distinct_seeds_distinct_noise(self):
        runs = generate_fleet(DESK, 2, 0)
        assert not np.array_equal(runs[0].read()[0]["force"], runs[1].read()[0]["force"])

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
        channels, wear = generate_run(SynthConfig.desk(run_seconds=n / 200.0), 4).read()
        assert len(wear) == n
        special = {
            "mixed": lambda: np.array([-0.0, 1e-300, 1e12, 3.0, -7.0, 0.0, 123456789.0,
                                       -1e-300, 2.5e-7, 1.0 / 3.0]),
            "special": lambda: format_corpus.SPECIAL,
            "ties": lambda: format_corpus.ties(4),
            "powers-of-ten": format_corpus.power_boundaries}[case]()
        # row by row across the channels from the first sample, and reversed
        # up to the last
        samples = np.column_stack(list(channels.values()))
        samples[:, 2] = np.round(samples[:, 2] * 1e4)  # exact integers
        samples.ravel()[:len(special)] = special
        samples.ravel()[-len(special):] = special[::-1]
        table = np.column_stack([samples, wear])
        got = tmp_path / "got.csv"
        # in three blocks, whose edges fall inside the formatter's row blocks
        write_csv_blocks(got, list(CHANNEL_NAMES) + ["wear_um"], np.array_split(table, 3))
        want = tmp_path / "want.csv"
        with open(want, "w", encoding="utf-8") as fh:
            fh.write(",".join(list(CHANNEL_NAMES) + ["wear_um"]) + "\n")
            np.savetxt(fh, table, fmt="%.10g", delimiter=",")
        assert got.read_bytes() == want.read_bytes()
        if case == "mixed":
            assert got.read_text().splitlines()[1].startswith("-0,")


class TestBlocks:
    ROWS = synth._BLOCK_ROWS

    @pytest.mark.parametrize("rate", [200.0, 20000.0])
    @pytest.mark.parametrize("rows", [ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5])
    @pytest.mark.parametrize("settings", [{}, {"noise_std": 0.0}, {"band_frac": 0.0}])
    def test_blocks_give_the_whole_run_bits_and_csv_bytes(self, tmp_path, rate, rows,
                                                          settings):
        config = SynthConfig(sampling_rate_hz=rate, run_seconds=rows / rate, **settings)
        assert config.n_samples == rows
        jitter = {c: 0.9 + 0.01 * i for i, c in enumerate(CHANNEL_NAMES)}
        want_channels, want_wear = generate_run_whole(config, 11, jitter)

        run = generate_run(config, 11, gain_jitter=jitter)
        blocks = list(run.blocks())
        assert [len(b) for b in blocks[:-1]] == [self.ROWS] * (len(blocks) - 1)
        assert len(blocks) == math.ceil(rows / self.ROWS)
        got = np.concatenate(blocks)
        channels, wear = run.read()
        assert np.array_equal(got[:, -1], want_wear)
        assert np.array_equal(wear, want_wear)
        for ci, name in enumerate(CHANNEL_NAMES):
            assert np.array_equal(got[:, ci], want_channels[name]), name
            assert np.array_equal(channels[name], want_channels[name]), name

        # the streamed CSV against one written from the oracle's whole columns
        ends = np.array([0, self.ROWS - 1, self.ROWS, rows - 1])
        ends = np.unique(ends[ends < rows])
        streamed, whole = tmp_path / "streamed.csv", tmp_path / "whole.csv"
        wear_at = write_run_csv(generate_run(config, 11, gain_jitter=jitter), streamed,
                                wear_at=ends)
        assert np.array_equal(wear_at, want_wear[ends])
        signal_pipeline.write_csv(whole, list(CHANNEL_NAMES) + ["wear_um"],
                                  list(want_channels.values()) + [want_wear])
        assert streamed.read_bytes() == whole.read_bytes()

    def test_fleet_runs_match_the_oracle(self):
        config = SynthConfig.desk(run_seconds=3 * self.ROWS / 200.0)
        for run in generate_fleet(config, 2, 5):
            jrng = substream(run.metadata["seed"], "fleet-jitter")
            jitter = {c: float(jrng.uniform(0.9, 1.1)) for c in CHANNEL_NAMES}
            channels, wear = generate_run_whole(config, run.metadata["seed"], jitter)
            got_channels, got_wear = run.read()
            assert np.array_equal(got_wear, wear)
            assert all(np.array_equal(got_channels[c], channels[c]) for c in CHANNEL_NAMES)

    def test_a_run_is_made_only_when_read(self, monkeypatch):
        made = []
        blocks = synth._blocks
        monkeypatch.setattr(synth, "_blocks", lambda *a: made.append(a) or blocks(*a))
        run = generate_run(DESK, 3)
        assert run.channel_ids == CHANNEL_NAMES and run.n_samples == DESK.n_samples
        assert made == []
        channels, wear = run.read()
        assert len(wear) == len(channels["force"]) == DESK.n_samples
        assert len(made) == 1
        run.read()
        assert len(made) == 2  # nothing was kept

    @pytest.mark.parametrize("at", ["inside", "across"])
    def test_falling_wear_is_refused_in_a_block_and_across_blocks(self, monkeypatch, at):
        curve = synth.wear_curve
        def dented(config, t):
            wear = curve(config, t)
            if at == "inside" and t[0] == 0.0:
                wear[5] = wear[4] - 1.0
            if at == "across" and t[0] > 0.0:  # the first sample of a later block
                wear[0] = -1.0
            return wear

        monkeypatch.setattr(synth, "wear_curve", dented)
        config = SynthConfig.desk(run_seconds=(2 * self.ROWS + 10) / 200.0)
        with pytest.raises(ValueError, match="monotone"):
            list(generate_run(config, 1).blocks())
