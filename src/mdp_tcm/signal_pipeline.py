"""Signal ingestion: per-channel normalization, rotation-sized windowing,
state labeling from flank wear, and train/test splitting.

Wear states follow half-open flank-wear bands: fresh up to 100 um,
progressive to 200 um, accelerated below 300 um, worn at and above 300 um
(a worn tool must trigger replacement, so 300 um belongs to worn).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import stat
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

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
        datasets = _same_layout(datasets)
        return FrameDataset(
            np.vstack([d.frames for d in datasets]),
            np.concatenate([d.state_labels for d in datasets]),
            np.concatenate([d.wear_targets for d in datasets]),
            datasets[0].channel_ids, datasets[0].window_len)


def _same_layout(datasets) -> list:
    """The datasets as a list, checked to be nonempty and of one channel layout."""
    datasets = list(datasets)
    if not datasets:
        raise DataError("nothing to concatenate")
    first = datasets[0]
    for d in datasets[1:]:
        if d.channel_ids != first.channel_ids or d.window_len != first.window_len:
            raise DataError("datasets have incompatible channel layout")
    return datasets


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


def frame_ends(n_samples: int, spec: WindowSpec) -> np.ndarray:
    """Index of the last sample of each frame that `window` cuts from a
    series of `n_samples` samples."""
    tw = compute_window_size(spec)
    stride = spec.stride if spec.stride is not None else tw
    if n_samples < tw:
        raise DataError(f"series of {n_samples} samples is shorter than one window ({tw})")
    return np.arange((n_samples - tw) // stride + 1) * stride + (tw - 1)


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
    ends = frame_ends(tau, spec)
    tw = compute_window_size(spec)
    stride = spec.stride if spec.stride is not None else tw
    frames = np.empty((len(ends), len(channels) * tw))
    for ci, c in enumerate(channels):
        frames[:, ci * tw:(ci + 1) * tw] = np.lib.stride_tricks.sliding_window_view(
            c.samples, tw)[::stride]
    targets = wear[ends]
    return FrameDataset(frames, label_states(targets), targets,
                        tuple(c.channel_id for c in channels), tw)


def split(dataset: FrameDataset, train_ratio: float, seed: int):
    """Seeded uniform shuffle into train/test at the given ratio."""
    if not 0.0 < train_ratio < 1.0:
        raise ValueError("train_ratio must lie in (0, 1)")
    if len(dataset) == 0:
        raise DataError("cannot split an empty dataset")
    perm = substream(seed, "split").permutation(len(dataset))
    n_train = int(np.ceil(train_ratio * len(dataset)))
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


# ---------------------------------------------------------------------------
# run files
# ---------------------------------------------------------------------------

# hashed ahead of the CSV's bytes to key a parsed-run file; a change to the
# file's layout or to the parse that fills it must change this tag, so that
# files written before are parsed again instead of read
_PARSED_TAG = b"mdp_tcm-parsed-v1\0"


def load_run_csv(path, sampling_rate_hz: float):
    """Read one run: header of channel ids plus a wear_um column.

    Returns (channels, wear_trajectory). Channels are returned raw;
    normalize before windowing. Every channel sample must be finite; the
    wear column may hold NaN gaps (see fill_wear_gaps).

    The parsed samples are kept beside the run in `<run>.csv.parsed.npy`
    (see `_read_parsed`), so a run is parsed once while its bytes stay the
    same. Each CSV column comes back as one contiguous array.
    """
    # one read: the bytes hashed are the bytes parsed, even if the run is
    # replaced meanwhile or `path` is a pipe
    with open(path, "rb") as fh:
        raw = fh.read()
        csv_mode = os.fstat(fh.fileno()).st_mode
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    try:
        header = text.readline().strip()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not header:
        raise DataError(f"{path}: empty file")
    names = [h.strip() for h in header.split(",")]
    if "wear_um" not in names:
        raise DataError(f"{path}: missing wear_um column")
    key = hashlib.sha256(_PARSED_TAG)
    key.update(raw)
    digest = key.digest()
    cache = Path(f"{path}.parsed.npy")
    columns = _read_parsed(cache, digest)
    if columns is None:
        try:
            rows = np.loadtxt(text, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: malformed numeric data: {exc}") from None
        columns = np.ascontiguousarray(rows.T)
        _write_parsed(cache, digest, columns, csv_mode)
    if columns.shape[1] == 0:
        raise DataError(f"{path}: no samples")
    if columns.shape[0] != len(names):
        raise DataError(f"{path}: row width does not match header")
    wi = names.index("wear_um")
    bad = ~np.isfinite(columns)
    bad[wi] = False
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        col = int(np.argmax(bad[:, row]))
        raise DataError(f"{path}: channel {names[col]!r} has a non-finite sample "
                        f"at data row {row + 1}")
    channels = [ChannelSeries(name, sampling_rate_hz, columns[i])
                for i, name in enumerate(names) if i != wi]
    return channels, columns[wi]


def _read_parsed(cache: Path, digest: bytes):
    """The column matrix a parsed-run file holds for a CSV with this
    digest: the 32-byte sha256 of `_PARSED_TAG` and the CSV's bytes, then
    the matrix in .npy format.
    None when the file is missing, keyed to other bytes or unreadable."""
    try:
        with open(cache, "rb") as fh:
            if fh.read(len(digest)) != digest:
                return None
            columns = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if columns.dtype != np.float64 or columns.ndim != 2:
        return None
    return columns


def _write_parsed(cache: Path, digest: bytes, columns, csv_mode: int) -> None:
    """Replace the parsed-run file in one rename, readable by whoever may
    read the CSV (whose `st_mode` is `csv_mode`). A directory that cannot
    be written to only costs the next read a parse."""
    try:
        fd, tmp = tempfile.mkstemp(dir=cache.parent, prefix=cache.name, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(digest)
            np.lib.format.write_array(fh, columns, allow_pickle=False)
        os.chmod(tmp, stat.S_IMODE(csv_mode))
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


_WRITE_BLOCK_ROWS = 1024


def write_csv(path, header, columns, formats) -> None:
    """Write a header line, then CSV rows whose values come from `columns`,
    a sequence of equal-length 1-D arrays.

    `formats` holds one printf format per column. Each block of
    `_WRITE_BLOCK_ROWS` rows is stacked from the columns, formatted by one
    `%` on a repeated row template, not by one Python call per row, and
    written before the next block is stacked: no whole-table copy is made.
    """
    row = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _WRITE_BLOCK_ROWS] for c in columns])
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
