"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest

from repro import (
    Topology,
    complete,
    cycle,
    hypercube,
    path,
    star,
    torus_2d,
)


#: Wall-clock limit per test for the hang guard.  The slowest test runs
#: in well under a minute; a test still running at the limit is a
#: deadlock, not a slow test.
HANG_GUARD_S = 600

#: The real stderr, duplicated while output capture is suspended, so a
#: hang dump survives the process exit instead of dying in a capture file.
_HANG_GUARD_FD = None


def pytest_configure(config):
    global _HANG_GUARD_FD
    _HANG_GUARD_FD = os.dup(sys.__stderr__.fileno())


@pytest.fixture(autouse=True)
def _hang_guard():
    """Fail a deadlocked test with every thread's stack, then exit the
    run, instead of stalling it forever."""
    faulthandler.dump_traceback_later(
        HANG_GUARD_S, exit=True, file=_HANG_GUARD_FD
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_torus():
    """An 8x8 torus — the workhorse small graph."""
    return torus_2d(8, 8)


@pytest.fixture
def tiny_cycle():
    return cycle(8)


@pytest.fixture(
    params=["cycle", "path", "complete", "star", "torus", "hypercube"],
)
def any_small_graph(request) -> Topology:
    """A parametrised family of small graphs of different shapes."""
    builders = {
        "cycle": lambda: cycle(9),
        "path": lambda: path(7),
        "complete": lambda: complete(6),
        "star": lambda: star(8),
        "torus": lambda: torus_2d(4, 5),
        "hypercube": lambda: hypercube(4),
    }
    return builders[request.param]()


def random_connected_graph(rng: np.random.Generator, n: int, extra_edges: int = 0):
    """A random connected graph: a random spanning tree plus extra edges."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 20 * (extra_edges + 1):
        a, b = rng.integers(0, n, size=2)
        attempts += 1
        if a == b:
            continue
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return Topology(n, sorted(edges), name=f"random-{n}")
