"""Stream order of the numpy-tier excess-token dispatch, pinned directly.

The randomized-excess rounding draws one uniform per excess token from
its replica's own stream.  The order in which a replica consumes its
stream is part of the bit-identity contract: the compiled kernels, the
tiled dispatch and the staleness core all have to reproduce it.  These
tests check both dispatch callers — the batched engine's padded-adjacency
path and the staleness core's arc path — against a plain per-replica
reference loop:

* per replica ``b``: draw ``rngs[b].random(total_b)`` in one call;
* walk the nodes in ascending order, each node's tokens in turn;
* find each token's slot by a linear scan of the node's cumulative
  outgoing fractions (the token stays home past the last slot).
"""

import copy

import numpy as np
import pytest

from repro.engines import EngineConfig, make_engine
from repro.engines.batched import _UniformBuffer
from repro.graphs.standard import lollipop
from repro.graphs.torus import torus_2d

#: An irregular graph (padding slots beyond a node's degree) and a
#: regular one.
GRAPHS = {"lollipop": lollipop(5, 6), "torus": torus_2d(4, 4)}


def _node_tokens(topo, frac, dtype, tol):
    """Per node: its ``(arc, edge, neighbour)`` triples, cumulative
    outgoing fractions and token budget.  ``frac(e, i, nb)``
    is node ``i``'s outgoing fraction on edge ``e`` towards ``nb``."""
    out = []
    for i in range(topo.n):
        lo, hi = topo.adj_indptr[i], topo.adj_indptr[i + 1]
        arcs = list(zip(range(lo, hi), topo.adj_edge_ids[lo:hi], topo.adj_indices[lo:hi]))
        cum, acc = [], None
        for _a, e, nb in arcs:
            f = frac(e, i, nb)
            acc = f if acc is None else dtype(f + acc)
            cum.append(acc)
        r = cum[-1] if cum else dtype(0)
        c = np.ceil(dtype(r - dtype(tol)))
        out.append((arcs, cum, c, int(c)))
    return out


def _scan(cum, target):
    """First slot whose cumulative fraction exceeds ``target``, else None."""
    for j, edge_cum in enumerate(cum):
        if target < edge_cum:
            return j
    return None


def _walk(topo, frac, rngs, B, dtype, tol, on_move):
    """The reference consumption order: one draw per replica, nodes
    ascending, tokens of a node consecutive."""
    moved = 0
    for b in range(B):
        nodes = _node_tokens(topo, frac(b), dtype, tol)
        u = rngs[b].random(sum(cnt for *_r, cnt in nodes), dtype=dtype)
        k = 0
        for i, (arcs, cum, c, cnt) in enumerate(nodes):
            for _t in range(cnt):
                j = _scan(cum, dtype(u[k] * c))
                k += 1
                if j is not None:
                    on_move(i, b, *arcs[j])
                    moved += 1
    return moved


def _reference_batched(topo, sched, rngs, dtype, tol):
    act = np.trunc(sched)
    fsg = sched - act

    def frac(b):
        # P = max(fsg, 0) for the u endpoint, N = P - fsg for v.
        def f(e, i, nb):
            p = max(fsg[e, b], dtype(0))
            return p if i < nb else dtype(p - fsg[e, b])
        return f

    def on_move(i, b, _a, e, nb):
        act[e, b] += 1.0 if i < nb else -1.0

    moved = _walk(topo, frac, rngs, sched.shape[1], dtype, tol, on_move)
    return act, moved


def _reference_staleness(topo, pos, rngs):
    base = np.floor(pos)
    frac_plane = pos - base

    arc_of = {
        (i, int(nb)): a
        for i in range(topo.n)
        for a, nb in zip(
            range(topo.adj_indptr[i], topo.adj_indptr[i + 1]),
            topo.adj_indices[topo.adj_indptr[i] : topo.adj_indptr[i + 1]],
        )
    }

    def frac(b):
        return lambda e, i, nb: frac_plane[arc_of[(i, nb)], b]

    def on_move(_i, b, a, _e, _nb):
        base[a, b] += 1.0

    moved = _walk(topo, frac, rngs, pos.shape[1], np.float64, 1e-9, on_move)
    return base, moved


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("B", [1, 16])
@pytest.mark.parametrize("tile", [None, 3])
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_batched_dispatch_matches_reference_loop(graph, B, tile, precision):
    topo = GRAPHS[graph]
    dtype = np.dtype(precision).type
    cfg = EngineConfig(
        rounding="randomized-excess", rounds=1, seed=7, kernel="numpy",
        tile_size=tile, precision=precision,
    )
    eng = make_engine("batched")
    h = eng.prepare(topo, cfg, np.full((B, topo.n), 10.0))
    assert h.kernel is None and h.tile == tile
    sched = (
        np.random.default_rng(B).uniform(-3.0, 3.0, size=(topo.m_edges, B))
    ).astype(dtype)
    rngs = copy.deepcopy(h.rngs)
    want, moved = _reference_batched(topo, sched, rngs, dtype, h.frac_tol)
    got = eng._randomized_excess(h, sched.copy())
    assert moved > 0
    np.testing.assert_array_equal(got, want)
    # both consumed exactly the same number of draws per stream
    for live, ref in zip(h.rngs, rngs):
        assert live.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("B", [1, 16])
@pytest.mark.parametrize("tile", [None, 3])
def test_staleness_dispatch_matches_reference_loop(graph, B, tile):
    topo = GRAPHS[graph]
    cfg = EngineConfig(
        rounding="randomized-excess", rounds=1, seed=7, tile_size=tile,
    )
    eng = make_engine("staleness")
    core = eng.prepare(topo, cfg, np.full((B, topo.n), 10.0)).core
    assert len(core.node_tiles) == (1 if tile is None else -(-topo.n // tile))
    rng = np.random.default_rng(100 + B)
    pos = rng.uniform(0.0, 3.0, size=(core.n_arcs, B))
    pos[rng.random(pos.shape) < 0.3] = 0.0  # some arcs send nothing
    rngs = copy.deepcopy(core.rngs)
    want, moved = _reference_staleness(topo, pos, rngs)
    got = core._randomized_excess(pos)
    assert moved > 0
    np.testing.assert_array_equal(got, want)
    for live, ref in zip(core.rngs, rngs):
        assert live.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_uniform_buffer_draws_replica_major_and_reuses_storage(dtype):
    counts = np.array([3, 0, 5, 2])
    rngs = [np.random.default_rng(s) for s in range(4)]
    ref = [np.random.default_rng(s) for s in range(4)]
    buf = _UniformBuffer(dtype)
    got = buf.draw(rngs, counts)
    want = np.concatenate([r.random(int(c), dtype=dtype) for r, c in zip(ref, counts)])
    np.testing.assert_array_equal(got, want)
    # a zero-count replica leaves its stream untouched
    assert rngs[1].bit_generator.state == ref[1].bit_generator.state
    storage = buf.buf
    assert buf.draw(rngs, counts // 2).size == 4
    assert buf.buf is storage  # a smaller round reuses the buffer
    buf.draw(rngs, counts * 100)
    assert buf.buf is not storage and buf.buf.size >= 1000
