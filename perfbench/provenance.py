"""What ran: backend, cores, interpreter, numpy and BLAS, source revision.

BLAS thread settings are recorded as found, never set.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")

# thread-count getters exported by the OpenBLAS builds numpy ships with
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads")


def _blas_build(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def _blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it is not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for getter in _OPENBLAS_GETTERS:
            fn = getattr(handle, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD of the repository rooted exactly at `root`, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def source_digest(src: Path) -> str:
    """sha256 over the package sources, available where git is not."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path) -> dict:
    import numpy as np
    from mdp_tcm import _kernels

    return {
        "backend": _kernels.ACTIVE_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(np),
        "blas_threads_env": {k: os.environ[k] for k in BLAS_THREAD_ENV if k in os.environ},
        "blas_threads_runtime": _blas_runtime_threads(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "mdp_tcm"),
    }
