"""Synthetic run-to-failure generator with a known ground truth.

A three-regime wear trajectory (concave rise to 100 um, linear to 200 um,
exponential to end-of-life) drives force, torque and twelve vibration
channels. Dwell times per tool state follow a geometric progression set by
`imbalance_skew`, so the fresh state dominates and worn is the minority.

Each channel couples to wear through a shared component, piecewise linear
with a slope per tool state, plus a channel-specific wear sub-band
(`band_frac` sets the mix; 0 leaves the shared component alone). The
sub-bands are distributed so no single channel resolves the whole wear
range, which is what makes multi-sensor fusion strictly more informative
than any single channel. This generator makes no claim about drilling
physics; it exists to give every pipeline property a checkable ground
truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .signal_pipeline import WEAR_EDGES_UM, write_csv_blocks
from .seeding import substream

CHANNEL_NAMES = ("force", "torque") + tuple(
    f"vib{s}_{ax}" for s in range(1, 5) for ax in ("x", "y", "z"))

# per-channel defaults: physical-ish offsets, wear coupling per um, rotation
# harmonic amplitude and noise floor (all in channel units)
_BASE = {"force": 500.0, "torque": 5.0}
_GAIN = {"force": 1.0, "torque": 0.01}
_AMP = {"force": 18.0, "torque": 0.18}
_NOISE = {"force": 30.0, "torque": 0.30}
for _i, _name in enumerate(CHANNEL_NAMES[2:]):
    _vary = 1.0 + 0.15 * math.sin(2.0 * _i + 1.0)
    _BASE[_name] = 0.0
    _GAIN[_name] = 0.002 * _vary
    _AMP[_name] = 0.030 * _vary
    _NOISE[_name] = 0.060 * _vary

# wear sub-band per channel, as fractions of end-of-life wear
_BANDS = {"force": (0.0, 0.5), "torque": (0.5, 1.0)}
for _s in range(1, 5):
    for _ax in ("x", "y", "z"):
        _BANDS[f"vib{_s}_{_ax}"] = ((_s - 1) / 4.0, _s / 4.0)

# lower wear edge of each tool state
_EDGES = np.array((0.0,) + WEAR_EDGES_UM)

# spread of the per-state response slopes (see `_state_warp`); below 1, so
# every response stays monotone in wear
_STATE_WARP = 0.6


@dataclass(frozen=True)
class SynthConfig:
    spindle_rpm: float = 1650.0
    sampling_rate_hz: float = 20000.0
    run_seconds: float = 120.0
    wear_end_um: float = 400.0
    noise_std: float | None = None  # one level for every channel; None for defaults
    noise_scale: float = 1.0        # multiplier on the per-channel noise levels
    band_frac: float = 0.5
    imbalance_skew: float = 10.0

    def __post_init__(self):
        # each message starts with the field's name, which the CLI maps to its flag
        for name in ("spindle_rpm", "sampling_rate_hz", "run_seconds"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.wear_end_um < 300.0:
            raise ValueError("wear_end_um must be >= 300 so all four states occur")
        if self.imbalance_skew < 1.0:
            raise ValueError("imbalance_skew must be >= 1")
        if self.noise_scale < 0.0:
            raise ValueError("noise_scale must be nonnegative")
        if self.noise_std is not None and self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")
        if not 0.0 <= self.band_frac <= 1.0:
            raise ValueError("band_frac must lie in [0, 1]")

    @property
    def n_samples(self) -> int:
        """Samples per channel in one run."""
        return int(round(self.run_seconds * self.sampling_rate_hz))

    @classmethod
    def desk(cls, **overrides) -> "SynthConfig":
        """Desk-scale variant: 200 Hz sampling so full runs finish in minutes."""
        overrides.setdefault("sampling_rate_hz", 200.0)
        return cls(**overrides)


# rows of one row block of a run, 1 MiB of every channel and the wear in
# float64: a run is made a block at a time, so writing one holds a block,
# never the whole run
_BLOCK_ROWS = (1 << 20) // (8 * (len(CHANNEL_NAMES) + 1))


@dataclass(frozen=True)
class SynthRun:
    """One run's recipe, `config`, `seed` and `gain_jitter`, with its
    `metadata`. Its samples are made when they are read, a row block at a
    time, and none is kept."""

    config: SynthConfig
    seed: int
    gain_jitter: dict | None
    metadata: dict
    channel_ids = CHANNEL_NAMES

    @property
    def n_samples(self) -> int:
        return self.config.n_samples

    def blocks(self):
        """The run's consecutive row blocks: float64 matrices with one
        column per channel, in `channel_ids` order, then the wear."""
        yield from _blocks(self.config, self.seed, self.gain_jitter)

    def read(self) -> tuple:
        """(channels, wear), the pair `load_run_csv` returns: the blocks
        joined into whole-run arrays, with the bits of a run made in one
        piece."""
        columns = np.empty((len(CHANNEL_NAMES) + 1, self.n_samples))
        start = 0
        for block in self.blocks():
            columns[:, start:start + len(block)] = block.T
            start += len(block)
            del block  # dropped before the next block is made
        return dict(zip(CHANNEL_NAMES, columns[:-1])), columns[-1]


def _state_dwells(skew: float) -> np.ndarray:
    """Dwell-time fractions per state: geometric progression with ratio skew."""
    d = np.array([skew, skew ** (2.0 / 3.0), skew ** (1.0 / 3.0), 1.0])
    return d / d.sum()


def _regime_fractions(config: SynthConfig):
    """Run-time fractions of the three wear regimes, plus the fraction of
    the last regime spent below 300 um; all follow from the state dwells."""
    d = _state_dwells(config.imbalance_skew)
    knee = d[2] / (d[2] + d[3])
    return float(d[0]), float(d[1]), float(d[2] + d[3]), float(knee)


def _solve_gamma(knee: float, ratio: float) -> float:
    """Exponent of the final regime so wear crosses 300 um at `knee`.

    Solves (exp(g*knee) - 1) / (exp(g) - 1) = ratio; the left side is
    strictly decreasing in g, so bisection suffices.
    """
    def value(g):
        if abs(g) < 1e-12:
            return knee
        return math.expm1(g * knee) / math.expm1(g)

    lo, hi = -60.0, 60.0
    if abs(value(0.0) - ratio) < 1e-12:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value(mid) > ratio:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wear_curve(config: SynthConfig, t) -> np.ndarray:
    """Flank wear (um) at normalized run time t in [0, 1].

    Concave (sqrt) rise to 100 um, linear to 200 um, then exponential to
    wear_end_um, continuous at both knots and monotone nondecreasing.
    """
    scalar = np.ndim(t) == 0
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("t must lie in [0, 1]")
    f1, f2, f3, knee = _regime_fractions(config)
    ratio = 100.0 / (config.wear_end_um - 200.0)
    gamma = _solve_gamma(knee, ratio)
    out = np.empty_like(t_arr)

    seg1 = t_arr <= f1
    out[seg1] = 100.0 * np.sqrt(t_arr[seg1] / f1)
    seg2 = (t_arr > f1) & (t_arr <= f1 + f2)
    out[seg2] = 100.0 + 100.0 * (t_arr[seg2] - f1) / f2
    seg3 = t_arr > f1 + f2
    u = np.clip((t_arr[seg3] - f1 - f2) / f3, 0.0, 1.0)
    if gamma == 0.0:
        frac = u
    else:
        frac = np.expm1(gamma * u) / math.expm1(gamma)
    out[seg3] = 200.0 + (config.wear_end_um - 200.0) * frac
    return float(out[0]) if scalar else out


def _band_response(wear: np.ndarray, band, wear_end: float) -> np.ndarray:
    lo, hi = band[0] * wear_end, band[1] * wear_end
    return wear_end * np.clip((wear - lo) / (hi - lo), 0.0, 1.0)


def _state_warp(channel_index: int, spread: float) -> tuple:
    """Monotone per-channel wear reparametrization with state-dependent
    slopes, as (cum, slopes): wear w in state k maps to
    cum[k] + slopes[k] * (w - lower edge of k).

    Each tool state excites the channel with its own response slope
    (continuous at the state boundaries), so the data distribution differs
    across health states; this is what makes one global degradation model
    genuinely harder than per-state models.
    """
    states = np.arange(4)
    slopes = 1.0 + spread * np.sin(2.399963 * (channel_index + 1) + 1.7 * states)
    seg_len = np.diff(np.append(_EDGES, np.inf))
    cum = np.concatenate([[0.0], np.cumsum(slopes[:-1] * seg_len[:-1])])
    return cum, slopes


def _noise_streams(rng: np.random.Generator, n: int, levels, rows: int) -> list:
    """One generator per channel, each at the state from which a single
    pass that draws `n` normals per noisy channel, channel after channel,
    would start that channel's draws.

    A run of one block uses `rng` for every channel, in turn. Otherwise a
    first pass draws each channel's normals, `rows` at a time, and records
    the state where the next channel starts; drawing in chunks gives the
    same normals as one draw, so each channel can then draw its blocks
    from its own state.
    """
    if n <= rows:
        return [rng] * len(levels)
    skip = np.empty(rows)
    streams = []
    for ci, level in enumerate(levels):
        stream = np.random.Generator(type(rng.bit_generator)())
        stream.bit_generator.state = rng.bit_generator.state
        streams.append(stream)
        if level > 0.0 and ci < len(levels) - 1:
            for start in range(0, n, rows):
                rng.standard_normal(out=skip[:min(rows, n - start)])
    return streams


def _blocks(config: SynthConfig, seed: int, gain_jitter):
    """The row blocks of a run: (rows, 15) float64 matrices, one column per
    channel in `CHANNEL_NAMES` order, then the wear. Every value has the
    bits it has when the run is made in one piece: the work shared by the
    channels (the state of each sample, its wear above the state's lower
    edge, each wear sub-band's response, the spindle phase) is done once
    per block, in the same arithmetic."""
    rng = substream(seed, "synth-run")
    n = config.n_samples
    step = 1.0 / (n - 1)  # that of np.linspace(0.0, 1.0, n)
    spin = 2.0 * np.pi * (config.spindle_rpm / 60.0)
    gains, levels, warps = [], [], []
    for ci, name in enumerate(CHANNEL_NAMES):
        gains.append(_GAIN[name] if gain_jitter is None else _GAIN[name] * gain_jitter[name])
        levels.append(config.noise_scale * (
            _NOISE[name] if config.noise_std is None else float(config.noise_std)))
        warps.append(_state_warp(ci, _STATE_WARP))
    streams = _noise_streams(rng, n, levels, _BLOCK_ROWS)
    before = -np.inf
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        t_norm = np.arange(start, stop, dtype=np.float64) * step
        if stop == n:
            t_norm[-1] = 1.0
        wear = wear_curve(config, t_norm)
        # wear may not fall between two rows of the block, nor from the row ahead of it
        if wear[0] < before or np.any(np.diff(wear) < 0):
            raise ValueError("wear trajectory must be monotone nondecreasing")
        before = wear[-1]
        idx = np.searchsorted(_EDGES, wear, side="right") - 1
        above = wear - _EDGES[idx]
        phase = spin * (np.arange(start, stop) / config.sampling_rate_hz)
        bands = {band: _band_response(wear, band, config.wear_end_um)
                 for band in set(_BANDS.values())} if config.band_frac > 0.0 else {}
        block = np.empty((stop - start, len(CHANNEL_NAMES) + 1))
        for ci, name in enumerate(CHANNEL_NAMES):
            cum, slopes = warps[ci]
            resp = cum[idx] + slopes[idx] * above
            if config.band_frac > 0.0:
                resp = (1.0 - config.band_frac) * resp + config.band_frac * bands[_BANDS[name]]
            x = _BASE[name] + gains[ci] * resp
            x = x + _AMP[name] * np.sin(phase + 2.0 * np.pi * ci / len(CHANNEL_NAMES))
            if levels[ci] > 0.0:
                x = x + streams[ci].normal(0.0, levels[ci], size=stop - start)
            block[:, ci] = x
        block[:, -1] = wear
        yield block
        del block  # a reader that drops each block holds one at a time


def generate_run(config: SynthConfig, seed: int, gain_jitter=None) -> SynthRun:
    """One synthetic run: wear trajectory plus fourteen noisy channels,
    made a row block at a time when its samples are read (see `SynthRun`)."""
    if config.n_samples < 2:
        raise ValueError("run too short for the sampling rate")
    meta = {
        "seed": seed,
        "spindle_rpm": config.spindle_rpm,
        "sampling_rate_hz": config.sampling_rate_hz,
        "run_seconds": config.run_seconds,
        "wear_end_um": config.wear_end_um,
        "imbalance_skew": config.imbalance_skew,
        "band_frac": config.band_frac,
    }
    return SynthRun(config, seed, gain_jitter, meta)


def generate_fleet(config: SynthConfig, n_runs: int, seed: int):
    """Independent runs, seeded seed + i, with per-run gain jitter
    (+-10%) mimicking tool-geometry variation across inserts."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    runs = []
    for run_seed in range(seed, seed + n_runs):
        jrng = substream(run_seed, "fleet-jitter")
        jitter = {c: float(jrng.uniform(0.9, 1.1)) for c in CHANNEL_NAMES}
        runs.append(generate_run(config, run_seed, gain_jitter=jitter))
    return runs


def write_run_csv(run: SynthRun, path, wear_at=()) -> np.ndarray:
    """Write the run-file format the signal pipeline ingests, channels +
    wear_um, a row block at a time. Returns the run's wear at the sample
    indices `wear_at` (ascending), taken from the blocks as they pass."""
    wear_at = np.asarray(wear_at, dtype=np.intp)
    found = np.empty(len(wear_at))

    def blocks():
        start = 0
        for block in run.blocks():
            lo, hi = np.searchsorted(wear_at, (start, start + len(block)))
            found[lo:hi] = block[wear_at[lo:hi] - start, -1]
            start += len(block)
            yield block

    write_csv_blocks(path, list(run.channel_ids) + ["wear_um"], blocks())
    return found


def write_run_meta(run: SynthRun, path, created: str) -> None:
    """Key-value sidecar; the only place a timestamp may appear."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in run.metadata.items():
            fh.write(f"{k} = {v}\n")
        fh.write(f"created = {created}\n")


def read_run_meta(path) -> dict:
    meta = {}
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        k, v = line.split("=", 1)
        meta[k.strip()] = v.strip()
    return meta
