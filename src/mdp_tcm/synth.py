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
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .signal_pipeline import WEAR_EDGES_UM, write_csv
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


@dataclass(frozen=True)
class SynthRun:
    """One run: each channel id's samples in CSV column order, and the wear
    at each sample."""

    channels: dict
    wear_trajectory: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        wear = np.asarray(self.wear_trajectory, dtype=np.float64)
        if np.any(np.diff(wear) < 0):
            raise ValueError("wear trajectory must be monotone nondecreasing")
        object.__setattr__(self, "wear_trajectory", wear)
        object.__setattr__(self, "channels", dict(self.channels))


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


def _state_warp(wear: np.ndarray, channel_index: int, spread: float) -> np.ndarray:
    """Monotone per-channel wear reparametrization with state-dependent slopes.

    Each tool state excites the channel with its own response slope
    (continuous at the state boundaries), so the data distribution differs
    across health states; this is what makes one global degradation model
    genuinely harder than per-state models.
    """
    edges = np.array([0.0] + list(WEAR_EDGES_UM))
    states = np.arange(4)
    slopes = 1.0 + spread * np.sin(2.399963 * (channel_index + 1) + 1.7 * states)
    seg_len = np.diff(np.append(edges, np.inf))
    cum = np.concatenate([[0.0], np.cumsum(slopes[:-1] * seg_len[:-1])])
    idx = np.searchsorted(edges, wear, side="right") - 1
    return cum[idx] + slopes[idx] * (wear - edges[idx])


def generate_run(config: SynthConfig, seed: int, gain_jitter=None) -> SynthRun:
    """One synthetic run: wear trajectory plus fourteen noisy channels."""
    rng = substream(seed, "synth-run")
    n = config.n_samples
    if n < 2:
        raise ValueError("run too short for the sampling rate")
    t_norm = np.linspace(0.0, 1.0, n)
    wear = wear_curve(config, t_norm)
    times = np.arange(n) / config.sampling_rate_hz
    spindle_hz = config.spindle_rpm / 60.0

    channels = {}
    for ci, name in enumerate(CHANNEL_NAMES):
        gain = _GAIN[name] if gain_jitter is None else _GAIN[name] * gain_jitter[name]
        noise = config.noise_scale * (
            _NOISE[name] if config.noise_std is None else float(config.noise_std))
        resp = _state_warp(wear, ci, _STATE_WARP)
        if config.band_frac > 0.0:
            band = _band_response(wear, _BANDS[name], config.wear_end_um)
            resp = (1.0 - config.band_frac) * resp + config.band_frac * band
        x = _BASE[name] + gain * resp
        x = x + _AMP[name] * np.sin(
            2.0 * np.pi * spindle_hz * times + 2.0 * np.pi * ci / len(CHANNEL_NAMES))
        if noise > 0.0:
            x = x + rng.normal(0.0, noise, size=n)
        channels[name] = x

    meta = {
        "seed": seed,
        "spindle_rpm": config.spindle_rpm,
        "sampling_rate_hz": config.sampling_rate_hz,
        "run_seconds": config.run_seconds,
        "wear_end_um": config.wear_end_um,
        "imbalance_skew": config.imbalance_skew,
        "band_frac": config.band_frac,
    }
    return SynthRun(channels, wear, meta)


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


def write_run_csv(run: SynthRun, path) -> None:
    """The run-file format the signal pipeline ingests: channels + wear_um."""
    write_csv(path, list(run.channels) + ["wear_um"],
              list(run.channels.values()) + [run.wear_trajectory])


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
