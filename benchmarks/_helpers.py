"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from importlib import metadata
from typing import Optional

import numpy as np

#: Repository root — machine-readable bench outputs land here as
#: ``BENCH_<name>.json`` so every PR leaves a perf trajectory.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The figure drivers are full experiments (seconds to minutes); repeating
    them for statistical timing would multiply the harness runtime without
    adding information, so every bench uses a single timed iteration.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays into plain JSON values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return str(value)  # JSON has no NaN/Inf
    return value


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> Optional[str]:
    """``git <args>`` output in the repo root, ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=20, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance() -> dict:
    """Where a bench record came from: the commit (``None`` outside a git
    checkout) and whether tracked files differed from it, when (UTC), how
    many cores the process may use, and the runtime/library versions
    (``cffi`` is ``None`` when not installed).  Two points of a perf
    trajectory are comparable only with this."""
    sha = _git("rev-parse", "HEAD") or None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "cffi": _version("cffi"),
    }


def write_bench_json(name: str, payload: dict) -> str:
    """Write one machine-readable bench summary to ``BENCH_<name>.json``,
    stamped with a ``provenance`` key (:func:`provenance`).

    Every bench routes its summary through this helper so downstream PRs
    (and the CI artifact upload) get a uniform perf trajectory at the repo
    root instead of scraping stdout.  Returns the path written.
    """
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(
            _jsonable({**payload, "provenance": provenance()}),
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    return path
