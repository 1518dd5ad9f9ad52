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
import math
import os
import stat
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import as_float_array
from .errors import DataError
from .seeding import substream

N_STATES = 4
WEAR_EDGES_UM = (100.0, 200.0, 300.0)

# the dtype of the frame matrices that `build_dataset` and `window_runs`
# make: each value is computed in float64 and rounded once
FRAME_DTYPE = np.float32
# bytes of the float64 scratch block in which `build_dataset` computes a
# channel's columns of the frames, a block of rows at a time
_SCALE_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class WindowSpec:
    """Window sizing from spindle speed: tw covers one full rotation."""

    spindle_rpm: float
    sampling_rate_hz: float
    stride: int | None = None  # None -> non-overlapping (stride = tw)

    def __post_init__(self):
        if not (math.isfinite(self.spindle_rpm) and math.isfinite(self.sampling_rate_hz)):
            raise ValueError("spindle_rpm and sampling_rate_hz must be finite")
        if self.spindle_rpm <= 0 or self.sampling_rate_hz <= 0:
            raise ValueError("spindle_rpm and sampling_rate_hz must be positive")
        if self.stride is not None and self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class FrameDataset:
    """Windowed multichannel frames with per-frame wear target; each
    frame's state label follows from its wear (`label_states`).

    Each row of `frames` is one window flattened channel-major:
    [ch0 samples..., ch1 samples..., ...], window_len samples per channel.
    The frames keep a float32 or float64 dtype (see
    `_kernels.as_float_array`); the wear targets are float64.
    """

    frames: np.ndarray
    wear_targets: np.ndarray
    channel_ids: tuple
    window_len: int

    def __post_init__(self):
        frames = as_float_array(self.frames)
        wear = np.asarray(self.wear_targets, dtype=np.float64)
        if frames.ndim != 2:
            raise ValueError("frames must be a 2-D matrix")
        if frames.shape[1] != self.window_len * len(self.channel_ids):
            raise ValueError("frame width must equal window_len * channel count")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "wear_targets", wear)
        object.__setattr__(self, "channel_ids", tuple(self.channel_ids))

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def n_features(self) -> int:
        return self.frames.shape[1]

    @property
    def state_labels(self) -> np.ndarray:
        return label_states(self.wear_targets)

    def subset(self, idx) -> "FrameDataset":
        return FrameDataset(self.frames[idx], self.wear_targets[idx], self.channel_ids,
                            self.window_len)

    def select_channels(self, channel_ids) -> "FrameDataset":
        """Restrict frames to the named channels (order as given)."""
        missing = [c for c in channel_ids if c not in self.channel_ids]
        if missing:
            raise DataError(f"channels not in dataset: {missing}")
        pos = [self.channel_ids.index(c) for c in channel_ids]
        cube = self.frames.reshape(len(self), len(self.channel_ids), self.window_len)
        frames = cube[:, pos, :].reshape(len(self), len(pos) * self.window_len)
        return FrameDataset(np.ascontiguousarray(frames), self.wear_targets,
                            tuple(channel_ids), self.window_len)


def compute_window_size(spec: WindowSpec) -> int:
    """Samples covering one full spindle rotation: round(fs*60/rpm)."""
    tw = int(round(spec.sampling_rate_hz * 60.0 / spec.spindle_rpm))
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
    """Index of the last sample of each frame that `build_dataset` cuts from
    a series of `n_samples` samples."""
    tw = compute_window_size(spec)
    stride = spec.stride if spec.stride is not None else tw
    if n_samples < tw:
        raise DataError(f"series of {n_samples} samples is shorter than one window ({tw})")
    return np.arange((n_samples - tw) // stride + 1) * stride + (tw - 1)


def split(n: int, train_ratio: float, seed: int):
    """(train rows, test rows): a seeded uniform shuffle of the indices of
    `n` frames, split at the given ratio."""
    if not 0.0 < train_ratio < 1.0:
        raise ValueError("train_ratio must lie in (0, 1)")
    if n == 0:
        raise DataError("cannot split an empty dataset")
    perm = substream(seed, "split").permutation(n)
    n_train = int(np.ceil(train_ratio * n))
    return perm[:n_train], perm[n_train:]


# ---------------------------------------------------------------------------
# run files
# ---------------------------------------------------------------------------

# hashed ahead of the CSV's bytes to key a parsed-run file; a change to the
# file's layout or to the parse that fills it must change this tag, so that
# files written before are parsed again instead of read
_PARSED_TAG = b"mdp_tcm-parsed-v1\0"
_DIGEST_SIZE = 32  # sha256

# bytes per read of a run CSV: the reads stream through one buffer this size
_READ_BLOCK = 1 << 16


def load_run_csv(path):
    """Read one run: header of channel ids plus a wear_um column.

    Returns (channels, wear_trajectory): `channels` maps each channel id to
    its raw samples, in header order (`build_dataset` scales them). Every
    channel sample must be finite; the wear column may hold NaN gaps (see
    fill_wear_gaps). A column name may appear once. Each CSV column comes
    back as one contiguous array.

    `path` may also be a `RunCsv` that `open_run_csv` returned: its samples
    are read, and it is closed. See `open_run_csv` for how a run is read.
    """
    run = path if isinstance(path, RunCsv) else open_run_csv(path)
    with run:
        columns = run.read()
    wi = run.names.index("wear_um")
    # checked a column at a time: a mask of every sample would outgrow them
    if not all(np.isfinite(x).all() for i, x in enumerate(columns) if i != wi):
        bad = ~np.isfinite(columns)
        bad[wi] = False
        row = int(np.argmax(bad.any(axis=0)))
        col = int(np.argmax(bad[:, row]))
        raise DataError(f"{run.path}: channel {run.names[col]!r} has a non-finite sample "
                        f"at data row {row + 1}")
    channels = {name: columns[i] for i, name in enumerate(run.names) if i != wi}
    return channels, columns[wi]


class RunCsv:
    """A run CSV that `open_run_csv` checked, whose samples are not read yet.

    `names` are the CSV's column names and `shape` that of its column
    matrix (one row per column). The samples wait in the parsed-run file,
    which this holds open, or in memory when that file could not be
    written. `read` returns them; `close` (or leaving a `with` block)
    releases them.
    """

    def __init__(self, path, names: list, source, shape: tuple):
        self.path, self.names, self.shape = path, names, shape
        self._source = source

    @property
    def channel_ids(self) -> tuple:
        return tuple(name for name in self.names if name != "wear_um")

    @property
    def n_samples(self) -> int:
        return self.shape[1]

    def read(self) -> np.ndarray:
        """The column matrix."""
        if isinstance(self._source, np.ndarray):
            return self._source
        self._source.seek(_DIGEST_SIZE)
        return np.lib.format.read_array(self._source, allow_pickle=False)

    def close(self) -> None:
        source, self._source = self._source, None
        if hasattr(source, "close"):
            source.close()

    def __enter__(self) -> "RunCsv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_run_csv(path) -> RunCsv:
    """Check one run CSV's header and learn its sample count, without
    holding its samples (see `RunCsv`).

    The parsed samples are kept beside the run in `<run>.csv.parsed.npy`
    (see `_open_parsed`), so a run is parsed once while its bytes stay the
    same. The CSV is streamed, never held whole: when a parsed-run file
    exists, a first pass hashes the CSV to check its key; on a miss, the
    parse hashes each block it reads, and that digest keys the file it
    writes. So the CSV is hashed once, the bytes hashed are the bytes
    parsed, even if the run is replaced meanwhile or `path` is a pipe
    (which is read once, by the parse), and the samples read later are
    those of the file that was checked or written, which stays open.
    """
    cache = Path(f"{path}.parsed.npy")
    with open(path, "rb", buffering=0) as fh, contextlib.ExitStack() as on_error:
        csv_mode = os.fstat(fh.fileno()).st_mode
        parsed = None
        if stat.S_ISREG(csv_mode):
            parsed = _open_parsed(cache, fh)
            fh.seek(0)
        key = hashlib.sha256(_PARSED_TAG)
        if parsed is None:
            raw = _HashingReader(fh, key)
        else:
            source, shape = parsed
            on_error.enter_context(source)
            raw = fh  # the key is checked: the header alone is read
        text = io.TextIOWrapper(io.BufferedReader(raw, _READ_BLOCK), encoding="utf-8")
        names = _read_header(path, text)
        if parsed is None:
            # the parse decodes a whole block per read: at the default 8 KiB,
            # each read passes through `_HashingReader.readinto` on its own
            text._CHUNK_SIZE = _READ_BLOCK
            try:
                columns = np.ascontiguousarray(np.loadtxt(text, delimiter=",", ndmin=2).T)
            except ValueError as exc:
                raise DataError(f"{path}: malformed numeric data: {exc}") from None
            shape = columns.shape
            source = _write_parsed(cache, key.digest(), columns, csv_mode)
            if source is None:
                source = columns
            else:
                on_error.enter_context(source)
        if shape[1] == 0:
            raise DataError(f"{path}: no samples")
        if shape[0] != len(names):
            raise DataError(f"{path}: row width does not match header")
        on_error.pop_all()
    return RunCsv(path, names, source, shape)


def _read_header(path, text) -> list:
    """The column names on the first line of a run CSV, read from `text`."""
    try:
        header = text.readline().strip()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not header:
        raise DataError(f"{path}: empty file")
    names = [h.strip() for h in header.split(",")]
    if "wear_um" not in names:
        raise DataError(f"{path}: missing wear_um column")
    if len(set(names)) != len(names):
        raise DataError(f"{path}: a column name appears more than once")
    return names


class _HashingReader(io.RawIOBase):
    """A raw binary stream over `fh` that feeds each block read into `key`."""

    def __init__(self, fh, key):
        self._fh, self._key = fh, key

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(buffer)
        self._key.update(memoryview(buffer)[:n])
        return n


def _csv_digest(fh) -> bytes:
    """The sha256 of `_PARSED_TAG` and the rest of the CSV that `fh` reads."""
    key = hashlib.sha256(_PARSED_TAG)
    reader, buffer = _HashingReader(fh, key), bytearray(_READ_BLOCK)
    while reader.readinto(buffer):
        pass
    return key.digest()


# the .npy header readers of the format versions `_open_parsed` reads
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _open_parsed(cache: Path, csv):
    """(the parsed-run file, open; the shape of its matrix), if the file is
    keyed to the CSV that the binary file `csv` reads from its start and
    holds a whole float64 matrix: it holds the 32-byte sha256 of
    `_PARSED_TAG` and the CSV's bytes, then the column matrix in .npy
    format.
    None when the file is missing, keyed to other bytes or unreadable."""
    try:
        fh = open(cache, "rb")
    except OSError:
        return None
    try:
        digest = fh.read(_DIGEST_SIZE)
        if len(digest) == _DIGEST_SIZE and digest == _csv_digest(csv):
            read_header = _NPY_HEADERS.get(np.lib.format.read_magic(fh))
            if read_header is not None:
                shape, _, dtype = read_header(fh)
                if (dtype == np.float64 and len(shape) == 2
                        and os.fstat(fh.fileno()).st_size
                        == fh.tell() + dtype.itemsize * math.prod(shape)):
                    return fh, shape
    except (OSError, ValueError, EOFError):
        pass
    fh.close()
    return None


def _write_parsed(cache: Path, digest: bytes, columns, csv_mode: int):
    """Replace the parsed-run file in one rename, readable by whoever may
    read the CSV (whose `st_mode` is `csv_mode`), and return it open, so
    that it reads what was written even if it is replaced again. None when
    the directory cannot be written to, which only costs the next read a
    parse."""
    try:
        fd, tmp = tempfile.mkstemp(dir=cache.parent, prefix=cache.name, suffix=".tmp")
    except OSError:
        return None
    with contextlib.ExitStack() as on_error:
        fh = on_error.enter_context(os.fdopen(fd, "w+b"))
        try:
            fh.write(digest)
            np.lib.format.write_array(fh, columns, allow_pickle=False)
            fh.flush()
            os.chmod(tmp, stat.S_IMODE(csv_mode))
            os.replace(tmp, cache)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return None
        on_error.pop_all()
    return fh


_WRITE_BLOCK_ROWS = 1024

# every integer below 10**10 prints the same under %.10g as under %d
_INT_LIMIT = 10 ** 10
# `_format_block` scales by 10**(9 - e) as a product by `_MUL[e + 16]` and a
# quotient by `_DIV[e + 16]`, one of them 1 and the other exact, for the
# exponents e in [-13, 31] of its fast path (entries outside are never used)
_MUL = np.array([10.0 ** min(max(9 - e, 0), 22) for e in range(-16, 40)])
_DIV = np.array([10.0 ** min(max(e - 9, 0), 22) for e in range(-16, 40)])
# byte slots per value in `_format_block`: a sign, the "0.000" of a value
# below 1 that prints in full, ten digits each with a slot for a point
# after it (none follows the last), "e+dd" and a separator
_SLOTS = 30
_PREFIX, _DIGITS, _POINTS, _EXP = slice(1, 6), slice(6, 25, 2), slice(7, 25, 2), slice(25, 29)
_PLACES = np.arange(10, dtype=np.uint8)[:, None]
# "0.000": "0." before every such value, then one zero per place below -1
_ZEROS = np.array([-1, -1, 0, 1, 2], dtype=np.int8)[:, None]
_ZERO_BYTES = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_G_WIDTH = 17  # the longest '%.10g' of a float64: -d.ddddddddde-308


def write_csv(path, header, columns) -> None:
    """Write a header line, then CSV rows whose values come from `columns`,
    a sequence of equal-length 1-D arrays.

    Every value is written as the bytes of `'%.10g' % v`; an integer column
    prints as under `%d`, and one holding a value of 10**10 or more in
    magnitude is a ValueError. A string, in the header or in a column of
    strings, is written as it is, or quoted as RFC 4180 asks when it holds
    a comma, a double quote, CR or LF (see `_csv_cell`).
    Each block of `_WRITE_BLOCK_ROWS` rows is stacked from the columns and
    formatted by `_format_block` (a column at a time, then joined row by
    row, if a column holds strings), then written before the next block
    is stacked: no whole-table copy is made.
    """
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.dtype.kind in "iu" and (np.any(c >= _INT_LIMIT) or np.any(c <= -_INT_LIMIT)):
            raise ValueError("integer column holds a value of 10**10 or more in "
                             "magnitude, which '%.10g' does not print as an integer")
    with open(path, "wb") as fh:
        fh.write((",".join(map(_csv_cell, header)) + "\n").encode("utf-8"))
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            parts = [c[start:start + _WRITE_BLOCK_ROWS] for c in columns]
            if all(part.dtype.kind != "U" for part in parts):
                fh.write(_format_block(np.column_stack(parts).astype(np.float64, copy=False)))
            else:
                cells = [list(map(_csv_cell, part.tolist())) if part.dtype.kind == "U"
                         else _format_block(part.astype(np.float64)[:, None]).decode()
                         .split("\n")[:-1] for part in parts]
                fh.write("".join(",".join(row) + "\n" for row in zip(*cells)).encode("utf-8"))


def _csv_cell(text: str) -> str:
    """A CSV cell holding `text`: in double quotes, each inner one doubled,
    when it holds a comma, a double quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_block(block: np.ndarray) -> bytes:
    """The CSV rows of a float64 matrix, each value as `'%.10g' % v`.

    A finite value whose decimal exponent e lies in [-13, 31] is scaled by
    one exact power of ten to p = |v| * 10**(9 - e) in [1e9, 1e10], within
    half an ulp (< 2**-19) of the exact product. Unless p lies within 1e-5
    of a tie, rounding it to an integer gives the ten correctly rounded
    digits that `%` prints. Zeros, non-finite values, near-ties and other
    exponents are formatted by `%`, in one call per block.

    Each value gets `_SLOTS` byte slots, filled a slot row at a time for
    the whole block; the bytes come out value by value, and the empty
    slots are dropped.
    """
    n_cols = block.shape[1]
    x = block.ravel()
    a = np.abs(x)
    candidate = (a >= 1e-13) & (a < 1e32)  # false for zero, inf and nan
    a[~candidate] = 1.0
    e = np.floor(np.log10(a)).astype(np.int8)
    p = _scale(a, e)
    # log10 may miss by one next to a power of ten
    off = np.flatnonzero((p < 1e9) | (p >= 1e10))
    e[off] -= np.where(p[off] < 1e9, 1, -1).astype(np.int8)
    p[off] = _scale(a[off], e[off])
    n = np.rint(p)
    fast = (candidate & (n >= 1e9) & (n <= 1e10) & (e >= -13) & (e <= 31)
            & (np.abs(p - n) < 0.5 - 1e-5))
    carry = n == 1e10  # rounds up to the next power of ten
    n[carry] = 1e9
    e += carry

    # the ten digits, from two 5-digit halves in int32
    hi = np.floor(n / 1e5)
    halves = (hi.astype(np.int32), (n - hi * 1e5).astype(np.int32))
    d = np.empty((10, len(x)), dtype=np.uint8)
    for half, places in zip(halves, (range(4, -1, -1), range(9, 4, -1))):
        for place in places:
            q = half // 10
            d[place] = half - q * 10
            half = q
    # a value off the fast path prints no digit, point or exponent here
    last = np.max((d != 0) * _PLACES, axis=0) * fast  # the last nonzero digit
    e *= fast

    # '%g' prints d.ddde+XX, or all the digits up to the units when
    # -4 <= e < 10, with trailing zeros and a bare point dropped
    sci = (e < -4) | (e >= 10)
    small = ~sci & (e < 0)  # 0.000ddd
    whole = ~sci & ~small
    point = np.where(sci, 0, np.where(small, 9, e)).astype(np.uint8)  # a point follows
    shown = np.where(whole, np.maximum(last, point), last) + fast  # digits printed
    slots = np.zeros((_SLOTS, len(x)), dtype=np.uint8)
    np.multiply(x < 0, np.uint8(ord("-")), out=slots[0])
    np.multiply(small & (_ZEROS < -1 - e), _ZERO_BYTES, out=slots[_PREFIX])
    d += ord("0")
    np.multiply(_PLACES < shown, d, out=slots[_DIGITS])
    np.multiply(_PLACES[:9] == np.where(last > point, point, 9), np.uint8(ord(".")),
                out=slots[_POINTS])
    at = np.flatnonzero(sci)
    mag = np.abs(e[at]).astype(np.uint8)
    slots[_EXP, at] = np.stack([np.full(len(at), ord("e")),
                                np.where(e[at] < 0, ord("-"), ord("+")),
                                mag // 10 + ord("0"), mag % 10 + ord("0")])
    slow = np.flatnonzero(~fast)
    if len(slow):
        # left-aligned in its width; the padding goes with the empty slots
        text = (f"%-{_G_WIDTH}.10g" * len(slow)) % tuple(x[slow].tolist())
        slots[:_G_WIDTH, slow] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _G_WIDTH).T
    slots[-1] = ord(",")
    slots[-1, n_cols - 1::n_cols] = ord("\n")
    return slots.T.tobytes().translate(None, b"\0 ")


def _scale(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10**(9 - e), rounded once for e in [-13, 31]; e in [-16, 39]."""
    k = e.astype(np.intp) + 16
    return a * _MUL[k] / _DIV[k]


def fill_wear_gaps(wear) -> np.ndarray:
    """Linearly interpolate NaN gaps in a sparsely measured wear column.

    Real runs measure wear only occasionally (e.g. once per hole); rows
    without a measurement may carry NaN. Values before the first or after
    the last measurement hold flat. At least one finite value is required.
    The gaps are filled in a copy; a column without gaps is not copied.
    """
    wear = np.asarray(wear, dtype=np.float64)
    known = np.isfinite(wear)
    if not known.any():
        raise DataError("wear column has no finite measurements")
    if not known.all():
        idx = np.arange(len(wear))
        wear = wear.copy()
        wear[~known] = np.interp(idx[~known], idx[known], wear[known])
    return wear


def build_dataset(channels: dict, spec: WindowSpec, wear_trajectory,
                  out=None) -> FrameDataset:
    """Scale each channel by its minimum and maximum and cut it into frames.

    `channels` maps each channel id to its samples, in frame order, all
    sampled at `spec.sampling_rate_hz`. Frame t covers samples
    [t*stride, t*stride + tw) of every channel, flattened channel-major,
    each sample x of a channel spanning [lo, hi] as (x - lo) / (hi - lo).
    That is computed in float64 from windows of the raw samples, a
    `_SCALE_BLOCK_BYTES` block of rows at a time, so no scaled copy of a
    channel is made, and rounded once to FRAME_DTYPE, or to the dtype of
    `out`: the matrix of their shape that the frames are then written in.
    A constant channel stores zeros, with a warning, so that a dead sensor
    does not abort the run. A frame's wear target is the wear at its last
    sample, with NaN gaps filled (see fill_wear_gaps).
    """
    if not channels:
        raise DataError("no channels given")
    tau = len(next(iter(channels.values())))
    if any(len(x) != tau for x in channels.values()):
        raise DataError("all channels must have the same length")
    wear = np.asarray(wear_trajectory, dtype=np.float64)
    if len(wear) != tau:
        raise DataError("wear trajectory length must match the channels")
    ends = frame_ends(tau, spec)
    # the gap-filled copy of the wear goes before the frame matrix is made
    targets = fill_wear_gaps(wear)[ends]
    if np.any(targets < 0):
        raise ValueError("flank wear cannot be negative")
    tw = compute_window_size(spec)
    stride = spec.stride if spec.stride is not None else tw
    n = len(ends)
    frames = np.empty((n, len(channels) * tw), dtype=FRAME_DTYPE) if out is None else out
    step = max(1, _SCALE_BLOCK_BYTES // (8 * tw))
    scratch = np.empty((min(step, n), tw))
    for ci, (name, x) in enumerate(channels.items()):
        cols = slice(ci * tw, (ci + 1) * tw)
        lo, hi = float(x.min()), float(x.max())
        if hi == lo:
            warnings.warn(f"channel {name!r} is constant; normalized to zeros",
                          RuntimeWarning, stacklevel=2)
            frames[:, cols] = 0.0
            continue
        span = hi - lo
        windows = np.lib.stride_tricks.sliding_window_view(x, tw)[::stride]
        for start in range(0, n, step):
            block = scratch[:min(step, n - start)]
            np.subtract(windows[start:start + len(block)], lo, out=block)
            block /= span
            frames[start:start + len(block), cols] = block
    return FrameDataset(frames, targets, tuple(channels), tw)


def window_runs(runs, keep=None):
    """(pool, bounds): runs windowed by `build_dataset` into the rows of one
    frame matrix, which the dataset `pool` holds; `bounds` gives each run's
    (start, stop) rows. `runs` yields (run, WindowSpec) pairs, a run being
    a `SynthRun` or a `RunCsv` from `open_run_csv`, which is read and
    closed as its rows are made. A run whose channels or window length
    differ from the first's is a DataError. Given `keep`, indices into
    `runs`, only those runs are windowed, in that order.

    A first pass checks every run and counts its frames; the matrix is then
    made and each kept run windowed into its rows, so no frame is held
    twice, nor the samples of two `RunCsv`s."""
    checked = []
    for i, (run, spec) in enumerate(runs):
        if isinstance(run, RunCsv):
            name, channel_ids, n_samples = run.path, run.channel_ids, run.n_samples
        else:
            name, channel_ids, n_samples = f"#{i}", tuple(run.channels), len(run.wear_trajectory)
        layout = (channel_ids, compute_window_size(spec))
        if checked and layout != checked[0][2]:
            raise DataError(f"run {name} differs from run {checked[0][1]} in its channels "
                            "or its window length")
        checked.append((run, name, layout, spec, len(frame_ends(n_samples, spec))))
    if not checked:
        raise DataError("no runs to window")
    kept = checked if keep is None else [checked[i] for i in keep]
    channel_ids, tw = checked[0][2]
    ends = np.cumsum([n for *_, n in kept])
    frames = np.empty((ends[-1], len(channel_ids) * tw), dtype=FRAME_DTYPE)
    bounds, wear = [], []
    for (run, _, _, spec, n), end in zip(kept, ends):
        bounds.append((int(end) - n, int(end)))
        channels, trajectory = (load_run_csv(run) if isinstance(run, RunCsv)
                                else (run.channels, run.wear_trajectory))
        ds = build_dataset(channels, spec, trajectory, frames[end - n:end])
        del channels, trajectory  # a RunCsv's samples go before the next is read
        wear.append(ds.wear_targets)
    pool = FrameDataset(frames, np.concatenate(wear), channel_ids, tw)
    return pool, bounds
