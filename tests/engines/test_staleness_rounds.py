"""Round equivalence and allocation guard for the staleness engine.

``run_batch`` and ``run_dynamic_batch`` skip the per-round step info
(transient minima, traffic, ``StepBatch`` copies) on rounds nothing
records; the protocol surface (``step()`` + ``metrics()``) computes it
every round.  Both drive the same round, so their records, final states
and ledgers must agree bit for bit — signed zeros included — for any
``record_every``, latency, fault model, rounding and batch width.

The core's round itself runs in persistent scratch planes: after a
warm-up, one ``_StalenessCore.step()`` may allocate no more than a few
arc planes' worth of transient memory (token dispatch and ufunc buffers).
"""

import tracemalloc

import numpy as np
import pytest

from repro import ConfigurationError, point_load, torus_2d
from repro.core.records import DYNAMIC_FIELDS, RECORD_FIELDS
from repro.core.state import transient_loads
from repro.engines import EngineConfig, ReplicaParams, make_engine

TORUS = torus_2d(4, 5)
#: Stamped random integer buckets in 0..3 (mixed depths, some zero).
STAMPED = torus_2d(4, 5).stamp_link_attrs(
    latency=np.random.default_rng(3).integers(0, 4, TORUS.m_edges).astype(float)
)
#: (label, topology, latency_model)
LATENCIES = [
    ("zero", TORUS, None),
    ("fixed2", TORUS, "fixed:2"),
    ("stamped", STAMPED, None),
]
ROUNDS = 10


def _loads(topo, B):
    base = point_load(topo, 100 * topo.n)
    return np.stack([np.roll(base, 3 * b) for b in range(B)])


def _config(latency, faults, rounding, B, **kw):
    # Static batches mix pure SOS with per-replica SOS->FOS switches.
    params = (
        ReplicaParams(switch_rounds=[-1, 2, 4, 6, 8, 9, 12, 3][:B])
        if B > 1 and "arrivals" not in kw
        else None
    )
    return EngineConfig(
        scheme="sos",
        beta=1.6,
        rounding=rounding,
        rounds=ROUNDS,
        seed=11,
        latency_model=latency,
        faults=faults,
        replica_params=params,
        **kw,
    )


def _same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


def _assert_static_equal(got, want):
    assert len(got) == len(want)
    for b, (g, w) in enumerate(zip(got, want)):
        for name in RECORD_FIELDS:
            _same_bits(
                g.table.column(name), w.table.column(name), f"replica {b} {name}"
            )
        _same_bits(g.final_state.load, w.final_state.load, f"replica {b} load")
        _same_bits(g.final_state.flows, w.final_state.flows, f"replica {b} flows")
        assert g.final_state.round_index == w.final_state.round_index
        assert g.switched_at == w.switched_at
        assert (g.loads_history is None) == (w.loads_history is None)
        for k, (hg, hw) in enumerate(zip(g.loads_history or [], w.loads_history or [])):
            _same_bits(hg, hw, f"replica {b} history {k}")


def _assert_dynamic_equal(got, want):
    assert len(got) == len(want)
    for b, (g, w) in enumerate(zip(got, want)):
        for name in DYNAMIC_FIELDS:
            _same_bits(
                g.table.column(name), w.table.column(name), f"replica {b} {name}"
            )
        _same_bits(g.final_state.load, w.final_state.load, f"replica {b} load")
        _same_bits(g.final_state.flows, w.final_state.flows, f"replica {b} flows")


@pytest.mark.parametrize("B", [1, 8])
@pytest.mark.parametrize("rounding", ["floor", "randomized-excess"])
@pytest.mark.parametrize("faults", [None, "drop:0.3"])
@pytest.mark.parametrize("label, topo, latency", LATENCIES)
@pytest.mark.parametrize("record_every", [1, 3, 4, 10, 15])
def test_run_batch_equals_step_loop(
    record_every, label, topo, latency, faults, rounding, B
):
    cfg = _config(
        latency, faults, rounding, B,
        record_every=record_every, keep_loads=record_every == 3,
    )
    loads = _loads(topo, B)
    eng = make_engine("staleness")
    want_handle = eng.prepare(topo, cfg, loads)
    for _ in range(ROUNDS):
        eng.step(want_handle)
    want = eng.metrics(want_handle).results()
    got = make_engine("staleness").run_batch(topo, cfg, loads).results()
    _assert_static_equal(got, want)


@pytest.mark.parametrize("B", [1, 8])
@pytest.mark.parametrize("rounding", ["floor", "randomized-excess"])
@pytest.mark.parametrize("faults", [None, "drop:0.3"])
@pytest.mark.parametrize("label, topo, latency", LATENCIES)
def test_run_dynamic_batch_equals_arrive_step_loop(
    label, topo, latency, faults, rounding, B
):
    cfg = _config(
        latency, faults, rounding, B, arrivals="poisson:3.0,depart=3.0"
    )
    loads = _loads(topo, B)
    eng = make_engine("staleness")
    h = eng.prepare(topo, cfg, loads)
    for _ in range(ROUNDS):
        eng.arrive(h)
        eng.step(h)
    want = eng.metrics(h).dynamic_results()
    got = make_engine("staleness").run_dynamic_batch(topo, cfg, loads)
    _assert_dynamic_equal(got.dynamic_results(), want)


@pytest.mark.parametrize("dynamic", [False, True])
def test_step_reports_transients_and_traffic_every_round(dynamic):
    """The protocol step still carries step info, dynamic handles too."""
    B = 3
    cfg = _config(
        "fixed:2", None, "randomized-excess", B,
        arrivals="poisson:3.0,depart=3.0" if dynamic else None,
    )
    eng = make_engine("staleness")
    h = eng.prepare(TORUS, cfg, _loads(TORUS, B))
    for _ in range(ROUNDS):
        if dynamic:
            eng.arrive(h)
        before = h.core.loads.copy()
        info = eng.step(h)
        for b in range(B):
            flows = info.flows[b]
            transients = transient_loads(
                TORUS, np.ascontiguousarray(before[:, b]), flows
            )
            assert info.min_transient[b] == transients.min()
            assert info.traffic[b] == np.abs(flows).sum()


def test_run_dynamic_batch_needs_arrivals():
    cfg = _config(None, None, "floor", 1)
    with pytest.raises(ConfigurationError):
        make_engine("staleness").run_dynamic_batch(TORUS, cfg, _loads(TORUS, 1))


# ----------------------------------------------------------------------
#: Transient-allocation budget of one warm round, in arc planes
#: (``n_arcs * B`` float64s): token dispatch arrays and fixed-size ufunc
#: buffers, never a copy of the round's planes.
PLANE_BUDGET = 3.0


@pytest.mark.parametrize("latency", [0, "fixed:2"])
def test_warm_round_allocates_at_most_three_arc_planes(latency):
    topo = torus_2d(16, 16)
    B = 8
    cfg = EngineConfig(
        scheme="sos",
        rounding="randomized-excess",
        rounds=40,
        seed=5,
        latency_model=latency,
    )
    core = make_engine("staleness").prepare(
        topo, cfg, np.tile(point_load(topo, 1000 * topo.n), (B, 1))
    ).core
    plane = core.n_arcs * B * 8
    for _ in range(6):  # past every bucket's bootstrap, scratch warmed up
        core.step()
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(10):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            core.step()
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= PLANE_BUDGET * plane, [p / plane for p in peaks]
