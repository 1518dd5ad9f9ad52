"""Signal ingestion: per-channel normalization, rotation-sized windowing,
state labeling from flank wear, and train/test splitting.

Wear states follow half-open flank-wear bands: fresh up to 100 um,
progressive to 200 um, accelerated below 300 um, worn at and above 300 um
(a worn tool must trigger replacement, so 300 um belongs to worn).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .seeding import substream

STATE_NAMES = ("fresh", "progressive", "accelerated", "worn")
N_STATES = 4
WEAR_EDGES_UM = (100.0, 200.0, 300.0)


@dataclass(frozen=True)
class ChannelSeries:
    """One sensor channel sampled at a fixed rate."""

    channel_id: str
    sampling_rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        if self.sampling_rate_hz <= 0:
            raise ValueError("sampling_rate_hz must be positive")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class WindowSpec:
    """Window sizing from spindle speed: tw covers `multiple` full rotations."""

    spindle_rpm: float
    sampling_rate_hz: float
    multiple: int = 1
    stride: int | None = None  # None -> non-overlapping (stride = tw)

    def __post_init__(self):
        if self.spindle_rpm <= 0 or self.sampling_rate_hz <= 0:
            raise ValueError("spindle_rpm and sampling_rate_hz must be positive")
        if self.multiple < 1:
            raise ValueError("multiple must be a positive integer")
        if self.stride is not None and self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class SplitSpec:
    train_ratio: float = 0.85
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_ratio < 1.0:
            raise ValueError("train_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class FrameDataset:
    """Windowed multichannel frames with per-frame state label and wear target.

    Each row of `frames` is one window flattened channel-major:
    [ch0 samples..., ch1 samples..., ...], window_len samples per channel.
    """

    frames: np.ndarray
    state_labels: np.ndarray
    wear_targets: np.ndarray
    channel_ids: tuple
    window_len: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        labels = np.asarray(self.state_labels, dtype=np.int64)
        wear = np.asarray(self.wear_targets, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError("frames must be a 2-D matrix")
        if not (len(frames) == len(labels) == len(wear)):
            raise ValueError("frames, state_labels and wear_targets must have equal length")
        if frames.shape[1] != self.window_len * len(self.channel_ids):
            raise ValueError("frame width must equal window_len * channel count")
        if len(wear) and np.any(labels != label_states(wear)):
            raise ValueError("state labels inconsistent with wear targets")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "state_labels", labels)
        object.__setattr__(self, "wear_targets", wear)
        object.__setattr__(self, "channel_ids", tuple(self.channel_ids))

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def n_features(self) -> int:
        return self.frames.shape[1]

    def subset(self, idx) -> "FrameDataset":
        return FrameDataset(self.frames[idx], self.state_labels[idx],
                            self.wear_targets[idx], self.channel_ids, self.window_len)

    def select_channels(self, channel_ids) -> "FrameDataset":
        """Restrict frames to the named channels (order as given)."""
        missing = [c for c in channel_ids if c not in self.channel_ids]
        if missing:
            raise DataError(f"channels not in dataset: {missing}")
        pos = [self.channel_ids.index(c) for c in channel_ids]
        cube = self.frames.reshape(len(self), len(self.channel_ids), self.window_len)
        frames = cube[:, pos, :].reshape(len(self), len(pos) * self.window_len)
        return FrameDataset(np.ascontiguousarray(frames), self.state_labels,
                            self.wear_targets, tuple(channel_ids), self.window_len)

    @staticmethod
    def concat(datasets) -> "FrameDataset":
        datasets = list(datasets)
        if not datasets:
            raise DataError("nothing to concatenate")
        first = datasets[0]
        for d in datasets[1:]:
            if d.channel_ids != first.channel_ids or d.window_len != first.window_len:
                raise DataError("datasets have incompatible channel layout")
        return FrameDataset(
            np.vstack([d.frames for d in datasets]),
            np.concatenate([d.state_labels for d in datasets]),
            np.concatenate([d.wear_targets for d in datasets]),
            first.channel_ids, first.window_len)


def normalize_channel(series: ChannelSeries) -> ChannelSeries:
    """Min-max normalize one channel to [0, 1].

    A constant channel maps to all zeros with a warning so a dead sensor
    does not abort the run.
    """
    x = series.samples
    if x.size == 0:
        raise ValueError("cannot normalize an empty channel")
    lo = float(x.min())
    hi = float(x.max())
    if hi == lo:
        warnings.warn(f"channel {series.channel_id!r} is constant; normalized to zeros",
                      RuntimeWarning, stacklevel=2)
        out = np.zeros_like(x)
    else:
        out = (x - lo) / (hi - lo)
    return ChannelSeries(series.channel_id, series.sampling_rate_hz, out)


def compute_window_size(spec: WindowSpec) -> int:
    """Samples covering `multiple` full spindle rotations: round(N*fs*60/rpm)."""
    tw = int(round(spec.multiple * spec.sampling_rate_hz * 60.0 / spec.spindle_rpm))
    if tw < 1:
        raise ValueError(
            f"window spec yields {tw} samples per window; "
            "sampling rate too low for the spindle speed")
    return tw


def label_state(wear_um: float) -> int:
    """Tool state from flank wear in micrometers."""
    if wear_um < 0:
        raise ValueError("flank wear cannot be negative")
    if wear_um <= WEAR_EDGES_UM[0]:
        return 0
    if wear_um <= WEAR_EDGES_UM[1]:
        return 1
    if wear_um < WEAR_EDGES_UM[2]:
        return 2
    return 3


def label_states(wear_um) -> np.ndarray:
    """Vectorized label_state."""
    w = np.asarray(wear_um, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("flank wear cannot be negative")
    labels = np.full(w.shape, 3, dtype=np.int64)
    labels[w < WEAR_EDGES_UM[2]] = 2
    labels[w <= WEAR_EDGES_UM[1]] = 1
    labels[w <= WEAR_EDGES_UM[0]] = 0
    return labels


def window(channels, spec: WindowSpec, wear_trajectory) -> FrameDataset:
    """Cut sliding windows over all channels and attach labels and targets.

    Frame t covers samples [t*stride, t*stride + tw) of every channel,
    flattened channel-major. Its wear target is the wear at the window's
    last sample; its state label follows from that wear.
    """
    channels = list(channels)
    if not channels:
        raise DataError("no channels given")
    tau = len(channels[0])
    for c in channels:
        if len(c) != tau:
            raise DataError("all channels must have the same length")
        if c.sampling_rate_hz != channels[0].sampling_rate_hz:
            raise DataError("all channels must share one sampling rate")
    wear = np.asarray(wear_trajectory, dtype=np.float64)
    if len(wear) != tau:
        raise DataError("wear trajectory length must match the channels")
    tw = compute_window_size(spec)
    stride = spec.stride if spec.stride is not None else tw
    if tau < tw:
        raise DataError(f"series of {tau} samples is shorter than one window ({tw})")
    n_frames = (tau - tw) // stride + 1
    m = len(channels)
    frames = np.empty((n_frames, m * tw))
    starts = np.arange(n_frames) * stride
    gather = starts[:, None] + np.arange(tw)[None, :]
    for ci, c in enumerate(channels):
        frames[:, ci * tw:(ci + 1) * tw] = c.samples[gather]
    ends = starts + tw - 1
    targets = wear[ends]
    return FrameDataset(frames, label_states(targets), targets,
                        tuple(c.channel_id for c in channels), tw)


def split_indices(n: int, spec: SplitSpec):
    """Seeded uniform shuffle of range(n) into (train, test) index arrays."""
    if n == 0:
        raise DataError("cannot split an empty dataset")
    perm = substream(spec.seed, "split").permutation(n)
    n_train = int(np.ceil(spec.train_ratio * n))
    return perm[:n_train], perm[n_train:]


def split(dataset: FrameDataset, spec: SplitSpec):
    """Seeded uniform shuffle into train/test at the configured ratio."""
    train, test = split_indices(len(dataset), spec)
    return dataset.subset(train), dataset.subset(test)


# ---------------------------------------------------------------------------
# run files
# ---------------------------------------------------------------------------

def load_run_csv(path, sampling_rate_hz: float):
    """Read one run: header of channel ids plus a wear_um column.

    Returns (channels, wear_trajectory). Channels are returned raw;
    normalize before windowing. Every channel sample must be finite; the
    wear column may hold NaN gaps (see fill_wear_gaps).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise DataError(f"{path}: empty file")
        names = [h.strip() for h in header.split(",")]
        if "wear_um" not in names:
            raise DataError(f"{path}: missing wear_um column")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: malformed numeric data: {exc}") from None
    if data.shape[0] == 0:
        raise DataError(f"{path}: no samples")
    if data.shape[1] != len(names):
        raise DataError(f"{path}: row width does not match header")
    wi = names.index("wear_um")
    bad = ~np.isfinite(data)
    bad[:, wi] = False
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(f"{path}: channel {names[col]!r} has a non-finite sample "
                        f"at data row {row + 1}")
    wear = data[:, wi]
    channels = [ChannelSeries(name, sampling_rate_hz, data[:, i])
                for i, name in enumerate(names) if i != wi]
    return channels, wear


_WRITE_BLOCK_ROWS = 1024


def write_csv(path, header, data, formats) -> None:
    """Write a header line, then each row of the 2-D array `data` as CSV.

    `formats` holds one printf format per column. Each block of
    `_WRITE_BLOCK_ROWS` rows is formatted by one `%` on a repeated row
    template, not by one Python call per row, and written before the next
    block is formatted.
    """
    row = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(data), _WRITE_BLOCK_ROWS):
            block = data[start:start + _WRITE_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def fill_wear_gaps(wear) -> np.ndarray:
    """Linearly interpolate NaN gaps in a sparsely measured wear column.

    Real runs measure wear only occasionally (e.g. once per hole); rows
    without a measurement may carry NaN. Values before the first or after
    the last measurement hold flat. At least one finite value is required.
    """
    wear = np.asarray(wear, dtype=np.float64).copy()
    known = np.isfinite(wear)
    if not known.any():
        raise DataError("wear column has no finite measurements")
    if not known.all():
        idx = np.arange(len(wear))
        wear[~known] = np.interp(idx[~known], idx[known], wear[known])
    return wear


def build_dataset(channels, spec: WindowSpec, wear_trajectory) -> FrameDataset:
    """Normalize each channel to [0, 1] and window into frames."""
    return window([normalize_channel(c) for c in channels], spec,
                  fill_wear_gaps(wear_trajectory))
