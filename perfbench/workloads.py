"""The four benchmark workloads: inputs, set-up, timed calls and checks.

Each workload makes one layer of the program do most of the work, so an
optimisation of that layer shows on one workload and is predicted to be a
no-change on the others (see ``README.md`` in this directory):

* ``torus32-excess``: the ``engines.batched`` rounding path (numpy tier);
* ``torus1000-excess-cffi``: graph build, prepare and the compiled kernels;
* ``sweep-pool``: the ``engines.pool`` serving path (transport, merge,
  records);
* ``realism-ladder``: ``engines.staleness``, ``core.churn`` and
  ``core.dynamic``.

A workload is driven by :func:`timed_pass`: set-up repeated a few times
(median reported), then calls until the run's seconds are spent, then the
correctness checks.  Only the calls and the set-ups are timed; every
result is verified outside the timed region.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import beta_opt, point_load, torus_2d, torus_lambda
from repro.core.churn import resolve_churn
from repro.core.records import DYNAMIC_FLOAT_FIELDS, FLOAT_FIELDS
from repro.engines import (
    EngineConfig,
    ReplicaParams,
    ShardedWorkerPool,
    make_engine,
)
from repro.kernels import ensure_warm, get_provider

from calibrate import PROBE_REF_MS, Probe, factors
from stats import median, metric, percentile, tail

#: Shapes per scale.  ``full`` is what the benchmark measures; ``tiny`` is
#: the smoke-test size of the same code paths.
SCALES = {
    "full": {
        "torus32-excess": dict(side=32, replicas=16, rounds=100, min_calls=4),
        "torus1000-excess-cffi": dict(
            side=1000, replicas=4, rounds=10, min_calls=2, slice_rounds=2
        ),
        "sweep-pool": dict(side=32, replicas=16, rounds=50, min_calls=100),
        "realism-ladder": dict(
            side=32, replicas=16, rounds=30, dyn_rounds=60, min_calls=2
        ),
    },
    "tiny": {
        "torus32-excess": dict(side=8, replicas=4, rounds=20, min_calls=2),
        "torus1000-excess-cffi": dict(
            side=40, replicas=2, rounds=3, min_calls=1, slice_rounds=2
        ),
        "sweep-pool": dict(side=8, replicas=8, rounds=20, min_calls=3),
        "realism-ladder": dict(
            side=8, replicas=4, rounds=20, dyn_rounds=24, min_calls=1
        ),
    },
}

#: Set-up is repeated at least this many times (median reported) ...
MIN_SETUPS = 3
#: ... and, for cheap set-ups, until this much time is spent on it.
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 50

#: Token ledgers are checked for exact equality: every load, flow and
#: arrival is an integer below 2**53, so float64 sums are exact.
POINT_LOAD_PER_NODE = 1000
POISSON_MEAN = 100.0
ARRIVALS = "poisson:3.0,depart=3.0"
CHURN = "random:0.25"
#: The churn schedule is part of the realism scenario, like the graph: it is
#: drawn from this fixed seed, while ``--seed`` drives the arrival and
#: rounding streams.  A schedule drawn per seed would move the patch count
#: (and with it the final discrepancy and the planning time) by tens of
#: percent from seed to seed.
CHURN_SEED = 0


def call_seed(seed: int, i: int) -> int:
    """The engine seed of call ``i``: it advances per call."""
    return seed * 100_003 + i


#: The float reductions the engines' equivalence contract compares to a
#: relative tolerance instead of bit for bit: their summation order differs
#: between engines.  The tolerance is the worst-case reordering error of a
#: sum of ``n`` non-negative float64 terms, ``n * eps`` (never below the
#: ``1e-12`` the contract's own tests use on small graphs).
TOLERANT_FIELDS = ("potential_per_node",)


def _same(a, b, field: str = "", n: int = 1) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if field in TOLERANT_FIELDS:
        rtol = max(1e-12, n * np.finfo(np.float64).eps)
        return a.shape == b.shape and np.allclose(
            a, b, rtol=rtol, atol=0.0, equal_nan=True
        )
    return np.array_equal(a, b, equal_nan=True)


def compare_results(results_a, results_b, fields=FLOAT_FIELDS) -> Optional[str]:
    """``None`` when two per-replica result lists agree bit for bit: final
    loads and flows, and every recorded column (``fields`` are the static
    or the dynamic record columns)."""
    if len(results_a) != len(results_b):
        return f"{len(results_a)} vs {len(results_b)} replicas"
    for b, (ra, rb) in enumerate(zip(results_a, results_b)):
        n = ra.final_state.load.size
        if not _same(ra.final_state.load, rb.final_state.load):
            return f"replica {b}: final loads differ"
        if not _same(ra.final_state.flows, rb.final_state.flows):
            return f"replica {b}: final flows differ"
        for name in ("round_index",) + tuple(fields):
            if not _same(ra.series(name), rb.series(name), name, n):
                return f"replica {b}: series {name!r} differs"
    return None


def conservation(initial_totals, final_loads) -> Optional[str]:
    """Exact per-replica token conservation of a static run."""
    got = np.asarray(final_loads).sum(axis=1)
    bad = np.flatnonzero(got != initial_totals)
    if bad.size:
        b = int(bad[0])
        return f"replica {b}: {got[b]!r} tokens, started with {initial_totals[b]!r}"
    return None


def dynamic_ledger(initial_totals, batch) -> Optional[str]:
    """Exact arrival ledger (and, under churn, handoff ledger) per replica:
    ``total[t] = total[t-1] + arrived[t] - departed[t]`` from the initial
    total on, and the final universe-wide load sum equals the last total."""
    cols = batch.dynamic_columns
    total, arrived, departed = cols["total_load"], cols["arrived"], cols["departed"]
    prev = np.vstack([np.asarray(initial_totals)[None, :], total[:-1]])
    bad = np.argwhere(total != prev + arrived - departed)
    if bad.size:
        t, b = (int(x) for x in bad[0])
        return f"replica {b}: arrival ledger breaks at record {t}"
    final = batch.final_loads.sum(axis=1)
    bad = np.flatnonzero(final != total[-1])
    if bad.size:
        b = int(bad[0])
        return f"replica {b}: final loads sum to {final[b]!r}, ledger says {total[-1, b]!r}"
    return None


class Workload:
    """One benchmark workload.  Subclasses fill in the hooks."""

    name = ""
    #: Whether the timings are calibrated by the machine-speed probe (see
    #: ``calibrate.py``): true where the calls were measured to follow it.
    calibrated = True

    def __init__(self, scale: str, seed: int):
        self.scale = scale
        self.seed = seed
        self.p = SCALES[scale][self.name]
        self.B = self.p["replicas"]
        self.min_calls = self.p["min_calls"]
        #: the first calls whose final discrepancy is averaged into
        #: ``final_max_minus_avg`` (always run, so the value is exact per seed)
        self.exact_calls = self.min_calls
        self.side = self.p["side"]
        self.beta = beta_opt(torus_lambda((self.side, self.side)))

    # -- hooks -----------------------------------------------------------
    def inputs(self) -> None:
        """Generate the inputs from ``self.seed`` (not timed)."""

    def setup_once(self) -> float:
        """One-time set-up a fresh process pays (e.g. kernel load)."""
        return 0.0

    def setup(self) -> float:
        """One set-up repetition; returns its seconds."""
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def verify(self, i: int, raw) -> Tuple[int, int, List[float], List[str]]:
        """``(replica_rounds, engine_calls, discrepancies, problems)``."""
        raise NotImplementedError

    def checks(self) -> List[Tuple[str, Callable[[], Optional[str]]]]:
        return []

    def close(self) -> None:
        pass

    # -- shared helpers --------------------------------------------------
    def sos(self, seed: int, **kw) -> EngineConfig:
        base = dict(
            scheme="sos",
            beta=self.beta,
            rounding="randomized-excess",
            rounds=self.p["rounds"],
            record_every=10,
            seed=seed,
        )
        base.update(kw)
        return EngineConfig(**base)

    def point_loads(self, topo, replicas: int) -> np.ndarray:
        return np.tile(point_load(topo, POINT_LOAD_PER_NODE * topo.n), (replicas, 1))


# ----------------------------------------------------------------------
class Torus32Excess(Workload):
    """The paper's headline default on the numpy tier: the batched
    rounding path does nearly all the work."""

    name = "torus32-excess"

    def inputs(self):
        self.topo = torus_2d(self.side, self.side)
        self.loads = self.point_loads(self.topo, self.B)
        self.totals = self.loads.sum(axis=1)
        self.engine = make_engine("batched")

    def cfg(self, seed, **kw) -> EngineConfig:
        return self.sos(seed, **kw)

    def setup(self):
        self.topo = None  # free the previous graph before building the next
        t0 = time.perf_counter()
        topo = torus_2d(self.side, self.side)
        handle = self.engine.prepare(topo, self.cfg(self.seed), self.loads)
        dt = time.perf_counter() - t0
        del handle
        self.topo = topo
        return dt

    def call(self, i):
        return self.engine.run_batch(
            self.topo, self.cfg(call_seed(self.seed, i)), self.loads
        )

    def verify(self, i, batch):
        problems = [p for p in [conservation(self.totals, batch.final_loads)] if p]
        disc = batch.columns["max_minus_avg"][-1].tolist()
        return self.B * self.p["rounds"], 1, disc, problems

    def checks(self):
        return [("floor-twin-vs-reference", self.floor_twin)]

    def floor_twin(self, **kw):
        cfg = self.cfg(self.seed, rounding="floor", **kw)
        loads = self.loads[:2]
        got = self.engine.run_batch(self.topo, cfg, loads).results()
        want = make_engine("reference").run(self.topo, replace(cfg, kernel="numpy"), loads)
        return compare_results(got, want)


# ----------------------------------------------------------------------
class Torus1000ExcessCffi(Torus32Excess):
    """The paper's 1000x1000 torus on the compiled cffi tier: graph build,
    prepare and memory-bound kernels dominate, Python overhead does not."""

    name = "torus1000-excess-cffi"
    #: Memory-bound OpenMP calls do not follow the single-threaded probe:
    #: over the same five runs the raw median moved by 3%, the calibrated
    #: one by 10%.
    calibrated = False

    def inputs(self):
        rng = np.random.default_rng([self.seed, 1])
        n = self.side * self.side
        self.loads = rng.poisson(POISSON_MEAN, size=(self.B, n)).astype(np.float64)
        self.totals = self.loads.sum(axis=1)
        self.engine = make_engine("batched")

    def cfg(self, seed, **kw):
        base = dict(kernel="cffi", record_every=self.p["rounds"])
        base.update(kw)
        return self.sos(seed, **base)

    def setup_once(self):
        t0 = time.perf_counter()
        provider = get_provider("cffi")
        if provider is None:
            raise RuntimeError("the cffi kernel provider is unavailable")
        ensure_warm(provider)
        return time.perf_counter() - t0

    def checks(self):
        return [
            ("cffi-vs-numpy-slice", self.cffi_vs_numpy),
            ("floor-twin-vs-reference", self.floor_twin),
        ]

    def cffi_vs_numpy(self):
        rounds = self.p["slice_rounds"]
        loads = self.loads[:2]
        a = self.engine.run_batch(
            self.topo, self.cfg(self.seed, rounds=rounds, record_every=1), loads
        )
        b = self.engine.run_batch(
            self.topo,
            self.cfg(self.seed, rounds=rounds, record_every=1, kernel="numpy"),
            loads,
        )
        return compare_results(a.results(), b.results())

    def floor_twin(self):
        return super().floor_twin(rounds=self.p["slice_rounds"], record_every=1)


# ----------------------------------------------------------------------
def switch_plane(replicas: int, rounds: int) -> List[int]:
    """Pure SOS (``-1``) plus ``replicas - 1`` fixed SOS->FOS switch rounds
    spread over the run: the fig08 sweep as one replica plane."""
    points = np.linspace(3, rounds - 2, replicas - 1).round().astype(int)
    return [-1] + [int(r) for r in points]


class SweepPool(Workload):
    """The fig08 switch sweep served as a closed loop: one client sends
    calls back to back to one persistent worker pool."""

    name = "sweep-pool"

    def __init__(self, scale, seed):
        super().__init__(scale, seed)
        self.exact_calls = min(8, self.min_calls)
        self.workers = len(os.sched_getaffinity(0))
        self.pool: Optional[ShardedWorkerPool] = None

    def cfg(self, seed, **kw):
        base = dict(
            record_every=1,
            replica_params=ReplicaParams(
                switch_rounds=switch_plane(self.B, self.p["rounds"])
            ),
        )
        base.update(kw)
        return self.sos(seed, **base)

    def inputs(self):
        self.topo = torus_2d(self.side, self.side)
        self.loads = self.point_loads(self.topo, self.B)
        self.totals = self.loads.sum(axis=1)
        self.engine = make_engine("sharded")

    def setup(self):
        if self.pool is not None:
            self.pool.close()
        pool = self.pool = ShardedWorkerPool(self.workers)
        cfg = self.cfg(self.seed, pool=pool)
        t0 = time.perf_counter()
        self.engine.run(self.topo, cfg, self.loads)
        t1 = time.perf_counter()
        self.engine.run(self.topo, cfg, self.loads)
        t2 = time.perf_counter()
        # pool start + cold first call, minus the same call once warm
        return (t1 - t0) - (t2 - t1)

    def call(self, i):
        return self.engine.run(
            self.topo, self.cfg(call_seed(self.seed, i), pool=self.pool), self.loads
        )

    def verify(self, i, results):
        finals = np.array([r.final_state.load for r in results])
        problems = [p for p in [conservation(self.totals, finals)] if p]
        disc = [float(r.series("max_minus_avg")[-1]) for r in results]
        return self.B * self.p["rounds"], 1, disc, problems

    def checks(self):
        return [("floor-twin-vs-reference", self.floor_twin)]

    def floor_twin(self):
        plane = switch_plane(self.B, self.p["rounds"])
        cfg = self.cfg(
            self.seed,
            rounding="floor",
            replica_params=ReplicaParams(switch_rounds=[plane[0], plane[-1]]),
        )
        loads = self.loads[:2]
        got = self.engine.run(self.topo, replace(cfg, pool=self.pool), loads)
        want = make_engine("reference").run(self.topo, cfg, loads)
        return compare_results(got, want)

    def close(self):
        if self.pool is not None:
            self.pool.close()


# ----------------------------------------------------------------------
class RealismLadder(Workload):
    """Staleness at latency 0 and 2, then churn with Poisson arrivals; one
    call is one pass of the three-rung ladder."""

    name = "realism-ladder"

    LATENCIES = (0, "fixed:2")

    def stale(self, seed, latency, **kw):
        return self.sos(seed, latency_model=latency, **kw)

    def dyn(self, seed, churn, **kw):
        return self.sos(
            seed, rounds=self.p["dyn_rounds"], arrivals=ARRIVALS, churn=churn, **kw
        )

    def inputs(self):
        self.topo = torus_2d(self.side, self.side)
        self.loads = self.point_loads(self.topo, self.B)
        self.totals = self.loads.sum(axis=1)
        self.staleness = make_engine("staleness")
        self.batched = make_engine("batched")

    def setup(self):
        t0 = time.perf_counter()
        topo = torus_2d(self.side, self.side)
        plan = resolve_churn(topo, self.dyn(CHURN_SEED, CHURN))
        for latency in self.LATENCIES:
            self.staleness.prepare(topo, self.stale(self.seed, latency), self.loads)
        self.batched.prepare(topo, self.dyn(self.seed, plan), self.loads)
        dt = time.perf_counter() - t0
        self.topo, self.plan = topo, plan
        return dt

    def call(self, i):
        seed = call_seed(self.seed, i)
        out = [
            self.staleness.run_batch(self.topo, self.stale(seed, lat), self.loads)
            for lat in self.LATENCIES
        ]
        out.append(
            self.batched.run_dynamic_batch(self.topo, self.dyn(seed, self.plan), self.loads)
        )
        return out

    def verify(self, i, raw):
        *_stale, dyn = raw
        problems = [p for p in [dynamic_ledger(self.totals, dyn)] if p]
        disc = dyn.dynamic_columns["max_minus_avg"][-1].tolist()
        rr = self.B * (len(self.LATENCIES) * self.p["rounds"] + self.p["dyn_rounds"])
        return rr, len(raw), disc, problems

    def checks(self):
        out = [
            (f"staleness-ledger-lat{lat}".replace("fixed:", ""), self._ledger(lat))
            for lat in self.LATENCIES
        ]
        out.append(("staleness-lat0-floor-twin-vs-reference", self.stale_twin))
        out.append(("churn-arrivals-floor-twin-vs-reference", self.dyn_twin))
        return out

    def _ledger(self, latency):
        def check():
            # Tokens in flight live in the core's ledger, not in the loads:
            # conservation is checked over both, through the protocol.
            cfg = self.stale(self.seed, latency)
            h = self.staleness.prepare(self.topo, cfg, self.loads[:2])
            for _ in range(cfg.rounds):
                self.staleness.step(h)
            got = h.core.total_load()
            want = self.totals[:2]
            if not np.array_equal(got, want):
                return f"loads plus in-flight tokens {got.tolist()} != {want.tolist()}"
            return None
        return check

    def stale_twin(self):
        cfg = self.stale(self.seed, 0, rounding="floor")
        loads = self.loads[:2]
        got = self.staleness.run_batch(self.topo, cfg, loads).results()
        want = make_engine("reference").run(self.topo, replace(cfg, latency_model=None), loads)
        return compare_results(got, want)

    def dyn_twin(self):
        cfg = self.dyn(self.seed, self.plan, rounding="floor")
        loads = self.loads[:2]
        got = self.batched.run_dynamic_batch(self.topo, cfg, loads).dynamic_results()
        want = make_engine("reference").run_dynamic(self.topo, cfg, loads)
        return compare_results(got, want, DYNAMIC_FLOAT_FIELDS)


WORKLOADS = {
    cls.name: cls
    for cls in (Torus32Excess, Torus1000ExcessCffi, SweepPool, RealismLadder)
}


# ----------------------------------------------------------------------
def timed_pass(
    wl: Workload, seconds: float, report: Callable[[Dict], None]
) -> Tuple[Dict, Dict]:
    """Set up, run calls for ``seconds``, check; return the e2e metrics
    and a few figures about the run (the raw, uncalibrated timings among
    them).

    Every set-up repetition and every call is preceded by the calibration
    probe (see ``calibrate.py``); timings are reported in reference
    milliseconds.  ``report`` receives one record per op (engine call,
    served call or check) as soon as it is known, so a harness that has to
    kill a hung process still knows which ops completed.
    """
    probe = Probe()
    probe.ms()  # first-touch of the probe's own buffers
    wl.inputs()
    setup_probe = [probe.ms()]
    once = wl.setup_once()
    setups: List[float] = []
    while len(setups) < MIN_SETUPS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        setups.append(wl.setup())
        setup_probe.append(probe.ms())  # set-ups are long: bracket each one

    call_s: List[float] = []
    call_probe: List[float] = []
    replica_rounds = 0
    discrepancies: List[float] = []
    stop = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < stop or i < wl.min_calls:
        p = probe.ms()
        t0 = time.perf_counter()
        try:
            raw = wl.call(i)
        except Exception as exc:  # an op that raises is a failed op
            report({"op": f"call-{i}", "ok": False, "engine_calls": 1, "detail": repr(exc)})
            i += 1
            continue
        dt = time.perf_counter() - t0
        rr, engine_calls, disc, problems = wl.verify(i, raw)
        del raw
        call_s.append(dt)
        call_probe.append(p)
        replica_rounds += rr
        if i < wl.exact_calls:
            discrepancies.extend(disc)
        report(
            {
                "op": f"call-{i}",
                "ok": not problems,
                "engine_calls": engine_calls,
                "detail": "; ".join(problems),
            }
        )
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for name, check in wl.checks():
        try:
            problem = check()
        except Exception as exc:
            problem = repr(exc)
        report({"op": name, "ok": problem is None, "engine_calls": 1, "detail": problem or ""})
    wl.close()

    if not call_s:
        raise RuntimeError("no call completed")
    if wl.calibrated:
        # set-up i lies between probes i and i + 1, both inside its window
        setup_f, call_f = factors(setup_probe)[: len(setups)], factors(call_probe)
    else:
        setup_f, call_f = [1.0] * len(setups), [1.0] * len(call_s)
    cal_setups = [s * f for s, f in zip(setups, setup_f)]
    cal_calls = [c * f for c, f in zip(call_s, call_f)]
    setup_s = once * setup_f[0] + median(cal_setups)
    call_ms = [c * 1e3 for c in cal_calls]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(setup_s + median(cal_calls), "s"),
        "replica_rounds_per_s": metric(replica_rounds / sum(cal_calls), "1/s"),
        "call_ms_p50": metric(median(call_ms), "ms"),
        "call_ms_p90": metric(percentile(call_ms, 90.0), "ms"),
        "calls_per_s": metric(len(cal_calls) / sum(cal_calls), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "final_max_minus_avg": metric(float(np.mean(discrepancies)), "tokens"),
    }
    raw_ms = [c * 1e3 for c in call_s]
    tail_pct, _ = tail(call_ms)
    info = {
        "calls": len(call_s),
        "setups": len(setups),
        "tail_rule_supports": f"p{tail_pct:g}" if tail_pct else "no percentile",
        "raw_setup_s": once + median(setups),
        "raw_call_ms_p50": median(raw_ms),
        "raw_call_ms_p90": percentile(raw_ms, 90.0),
        "raw_replica_rounds_per_s": replica_rounds / sum(call_s),
        "probe_ms_p50": median(call_probe),
        "probe_ref_ms": PROBE_REF_MS,
        "calibrated": wl.calibrated,
    }
    return metrics, info
