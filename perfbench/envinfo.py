"""Environment record attached to every result.

Byte counts derived from array shapes are labelled as computed.  No
bandwidth or roofline figure is derived: every kernel matrix the workloads
build (at most 21 MB) fits in the last-level cache of the machines this was
sized on, so cache misses, not array sizes, would decide such a figure.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        size = _read(str(index / "size"))
        if not size:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        value = int(size.rstrip("KM")) * scale
        best = value if best is None or value > best else best
    return best


def _blas() -> dict:
    info: dict = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = cfg.get("name", "unknown"), cfg.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    # OpenBLAS reports its own pool size; look for its library among this process's mappings
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" not in path.lower() or ".so" not in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(root / ".git" / ref))
    if direct:
        return direct
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: Path, seed: int, tol: float, kernel_bytes: int, scan_pool_width: int) -> dict:
    llc = _llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "env": {k: os.environ.get(k) for k in ("BALAYAGE_THREADS", "OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "scan_pool_width": scan_pool_width,
        "tol": tol,
        "git_commit": _git_commit(root),
        "seed": seed,
        "kernel_bytes_computed": kernel_bytes,
        "kernel_over_llc": None if not llc else kernel_bytes / llc,
        "executable": sys.executable,
    }
