"""Model files: a text header plus little-endian float64 parameter payload.

The header carries the format version, model kind, structural metadata and
a training-config echo as `key = value` lines, then one `array` line per
parameter block and a sha256 checksum of the payload. The payload is the
concatenation of all arrays in header order as little-endian 64-bit
floats, so files are portable and diff-able without any serialization
framework. Networks train in float32, whose values widen to float64
exactly; `load_model` narrows each network's weights back to float32, so a
loaded model runs the arithmetic that training ran.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from . import dbn
from .cost_sensitive import CostVector
from .errors import DataError
from .multistate import EcsDbnModel, MultiStateModel

MAGIC = "mdptcm-model"
VERSION = 1

KIND_CLASSIFIER = "dbn-classifier"
KIND_REGRESSOR = "dbn-regressor"
KIND_ECS = "ecs-dbn"
KIND_MULTISTATE = "multistate"


def write_model_file(path, kind: str, arrays: dict, config: dict) -> None:
    """Low-level writer; `arrays` order determines payload order. The
    payload is hashed, then written, an array at a time, so no joined copy
    of it is made."""
    digest = hashlib.sha256()
    for a in arrays.values():
        digest.update(np.ascontiguousarray(a, dtype="<f8"))
    lines = [f"{MAGIC} v{VERSION}", f"kind = {kind}"]
    lines += [f"{k} = {v}" for k, v in config.items()]
    for name, arr in arrays.items():
        shape = "x".join(str(s) for s in np.asarray(arr).shape)
        lines.append(f"array {name} {shape}")
    lines.append(f"checksum = {digest.hexdigest()}")
    lines.append("end-header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


def read_model_header(fh, path):
    """(config, array specs, checksum) from the header of a model file open
    for binary reading, which is left at the first byte of the payload.
    `config` holds every `key = value` line but the checksum; each spec is
    (name, dims). Validates the format version."""
    lines = []
    for line in fh:
        lines.append(line)
        if line.endswith(b"end-header\n"):
            break
    else:
        raise DataError(f"{path}: not a model file (missing header terminator)")
    lines[-1] = lines[-1].removesuffix(b"end-header\n")
    try:
        header = b"".join(lines).decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: model header is not UTF-8 text: {exc}") from None
    if not header or not header[0].startswith(MAGIC):
        raise DataError(f"{path}: not a model file")
    version = header[0].removeprefix(MAGIC).strip()
    if version != f"v{VERSION}":
        raise DataError(f"{path}: unsupported model format {version!r}")

    config = {}
    specs = []
    checksum = None
    for line in header[1:]:
        if line.startswith("array "):
            _, name, shape = line.split(" ", 2)
            try:
                dims = tuple(int(s) for s in shape.split("x")) if shape else ()
                if any(d < 0 for d in dims):
                    raise ValueError("negative dimension")
            except ValueError:
                raise DataError(f"{path}: array {name} has malformed shape {shape!r}") from None
            specs.append((name, dims))
        elif " = " in line:
            k, v = line.split(" = ", 1)
            if k == "checksum":
                checksum = v
            else:
                config[k] = v
    return config, specs, checksum


def read_model_file(path):
    """Low-level reader; validates version and checksum.

    Returns (kind, arrays, config) with arrays as float64 in native order:
    on a little-endian host, writable views on the one buffer the payload
    is read into, which any of them keeps alive.
    """
    with open(path, "rb") as fh:
        config, specs, checksum = read_model_header(fh, path)
        payload = bytearray(os.fstat(fh.fileno()).st_size - fh.tell())
        del payload[fh.readinto(payload):]
    if checksum != hashlib.sha256(payload).hexdigest():
        raise DataError(f"{path}: checksum mismatch; file is corrupt")
    kind = config.pop("kind", None)
    if kind is None:
        raise DataError(f"{path}: missing model kind")

    arrays = {}
    offset = 0
    for name, dims in specs:
        count = int(np.prod(dims)) if dims else 1
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise DataError(f"{path}: payload shorter than declared arrays")
        arrays[name] = np.frombuffer(payload, dtype="<f8", count=count, offset=offset
                                     ).astype(np.float64, copy=False).reshape(dims)
        offset += nbytes
    if offset != len(payload):
        raise DataError(f"{path}: payload longer than declared arrays")
    return kind, arrays, config


def _sizes_str(sizes) -> str:
    return ",".join(str(s) for s in sizes)


def _sizes_parse(text: str):
    return tuple(int(s) for s in text.split(","))


def _echo(train_config: dict | None) -> dict:
    return {f"train.{k}": v for k, v in (train_config or {}).items()}


def model_kind(model) -> str:
    """The kind of model file that `save_model` writes for this model."""
    if isinstance(model, MultiStateModel):
        return KIND_MULTISTATE
    if isinstance(model, EcsDbnModel):
        return KIND_ECS
    if isinstance(model, dbn.DbnModel):
        return KIND_CLASSIFIER if model.head == dbn.SOFTMAX else KIND_REGRESSOR
    raise TypeError(f"cannot serialize {type(model).__name__}")


def save_model(path, model, train_config: dict | None = None) -> None:
    """Persist a DbnModel, EcsDbnModel or MultiStateModel."""
    if isinstance(model, MultiStateModel):
        config = {
            "diagnoser.layer_sizes": _sizes_str(model.diagnoser.base.layer_sizes),
            "fallback.layer_sizes": _sizes_str(model.fallback.layer_sizes),
            "smoothing_window": model.smoothing_window or 0,
            "sticky_steps": model.sticky_steps,
        }
        arrays = {
            "diagnoser.theta": model.diagnoser.base.theta,
            "diagnoser.costs": model.diagnoser.costs.costs,
            "fallback.theta": model.fallback.theta,
        }
        for state in range(model.diagnoser.base.n_outputs):
            if state in model.regressors:
                reg = model.regressors[state]
                config[f"route.{state}"] = f"reg{state}"
                config[f"reg{state}.layer_sizes"] = _sizes_str(reg.layer_sizes)
                arrays[f"reg{state}.theta"] = reg.theta
            else:
                config[f"route.{state}"] = "fallback"
        config.update(_echo(train_config))
        write_model_file(path, KIND_MULTISTATE, arrays, config)
    elif isinstance(model, EcsDbnModel):
        config = {"layer_sizes": _sizes_str(model.base.layer_sizes)}
        config.update(_echo(train_config))
        write_model_file(path, KIND_ECS,
                         {"theta": model.base.theta, "costs": model.costs.costs},
                         config)
    else:
        kind = model_kind(model)
        config = {"layer_sizes": _sizes_str(model.layer_sizes)}
        config.update(_echo(train_config))
        write_model_file(path, kind, {"theta": model.theta}, config)


def load_model(path):
    """Load any model file back into its typed object, each network's
    weights narrowed to float32 (the costs stay float64). A header key or
    array that the kind needs and the file lacks, a header value the model
    types reject, an array holding a non-finite value, or weights outside
    float32's finite range, raises DataError naming the file."""
    kind, arrays, config = read_model_file(path)

    def need(table, key):
        if key not in table:
            what = "array" if table is arrays else "key"
            raise DataError(f"{path}: {kind} model header lacks {what} {key!r}")
        if table is arrays and not np.isfinite(arrays[key]).all():
            raise DataError(f"{path}: array {key!r} holds a non-finite value")
        return table[key]

    def costs(key):
        # copied: a view would keep the whole payload alive with the model
        return CostVector(need(arrays, key).copy())

    def network(prefix, head):
        key = f"{prefix}layer_sizes"
        sizes = need(config, key)
        name = f"{prefix}theta"
        with np.errstate(over="ignore"):
            theta = need(arrays, name).astype(np.float32)
        if not np.isfinite(theta).all():
            raise DataError(f"{path}: array {name!r} holds a value outside "
                            "float32's finite range")
        try:
            return dbn.DbnModel(_sizes_parse(sizes), head, theta)
        except ValueError as exc:
            raise DataError(f"{path}: {key} = {sizes}: {exc}") from None

    def integer(key, default):
        try:
            return int(config.get(key, default))
        except ValueError:
            raise DataError(f"{path}: {key} = {config[key]}: not an integer") from None

    if kind in (KIND_CLASSIFIER, KIND_REGRESSOR):
        return network("", dbn.SOFTMAX if kind == KIND_CLASSIFIER else dbn.LINEAR)
    if kind == KIND_ECS:
        return EcsDbnModel(network("", dbn.SOFTMAX), costs("costs"))
    if kind == KIND_MULTISTATE:
        base = network("diagnoser.", dbn.SOFTMAX)
        diagnoser = EcsDbnModel(base, costs("diagnoser.costs"))
        fallback = network("fallback.", dbn.LINEAR)
        regressors = {}
        for state in range(base.n_outputs):
            route = config.get(f"route.{state}", "fallback")
            if route != "fallback":
                regressors[state] = network(f"{route}.", dbn.LINEAR)
        try:
            return MultiStateModel(diagnoser, regressors, fallback,
                                   smoothing_window=integer("smoothing_window", 0) or None,
                                   sticky_steps=integer("sticky_steps", 1))
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    raise DataError(f"{path}: unknown model kind {kind!r}")
