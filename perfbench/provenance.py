"""Where a result came from: code, machine, runtimes and libraries.

Two points of a performance trajectory can only be compared when each
carries this.  Everything here is read after the workload ran, so asking
for it loads no runtime the workload did not load itself (querying OpenMP
in a process that never used it would start its thread pool, and a later
fork would inherit it).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from importlib import metadata
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _run(cmd) -> Optional[str]:
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=20, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over ``src/`` (path and bytes of every file, sorted); stands
    in for the git SHA in checkouts that are not git repositories."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "_cache"))
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def llc_bytes() -> Optional[int]:
    """Size of the last-level cache, from ``getconf``."""
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        out = _run(["getconf", level])
        if out and out.isdigit() and int(out) > 0:
            return int(out)
    return None


def openmp_threads(provider_loaded: bool) -> Optional[int]:
    """``omp_get_max_threads()`` of the runtime the cffi kernels loaded, or
    ``None`` when this process never loaded it."""
    if not provider_loaded:
        return None
    try:
        lib = ctypes.CDLL("libgomp.so.1", mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    return int(lib.omp_get_max_threads())


def provenance(workload=None) -> Dict:
    from repro.engines.sharded import _start_method
    from repro.kernels import _PROVIDERS

    kernel = None
    if workload is not None:
        kernel = "cffi" if workload.name.endswith("-cffi") else "numpy"
    cffi_loaded = _PROVIDERS.get("cffi") is not None
    return {
        "git_sha": _run(["git", "rev-parse", "HEAD"]),
        "src_sha256": source_digest(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "kernel_provider": kernel,
        "cffi_provider_loaded": cffi_loaded,
        "openmp_threads": openmp_threads(cffi_loaded),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "start_method": _start_method(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cffi": _version("cffi"),
        "gcc": _run(["gcc", "-dumpfullversion"]),
        "llc_bytes": llc_bytes(),
        "machine": platform.machine(),
    }
