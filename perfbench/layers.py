"""The traced pass: per-layer metrics, measured from outside.

Every number here comes from a span the benchmark opens around a call into
a module's public function (``graphs``, ``engines.batched``, ``kernels``,
``engines.pool``/``engines.sharded``, ``engines.staleness``,
``core.churn``, ``core.dynamic``, ``core.records``); nothing is traced
inside ``src/``.  Where the fused ``run_batch`` loop hides the layers, the
pass drives the ``prepare``/``arrive``/``step``/``metrics`` protocol
instead.  That protocol also computes ``step()``'s per-round info and
copies, so the traced wall time (``trace.wall_s``) is reported next to the
same run through the fused loop (``trace.untraced_wall_s``).

Each traced run emits every per-layer metric.  A layer the workload
exercises is measured on the workload's own shape; the others on the
shape of the workload that exercises them (the pool layers on the
``sweep-pool`` call, staleness/churn/arrivals on the ``realism-ladder``
configs, the batched and kernel layers on the 32x32 torus unless the
workload is the 1000x1000 one).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Callable, Dict, List

import numpy as np

from repro import torus_2d
from repro.core.churn import resolve_churn
from repro.engines import (
    ShardedWorkerPool,
    make_engine,
    merge_record_batches,
    plan_shards,
    resolve_replica_params,
)
from repro.kernels import ensure_warm, get_provider

from stats import median, metric, percentile
from spans import Tracer, duration, self_time
from workloads import (
    CHURN,
    CHURN_SEED,
    RealismLadder,
    SweepPool,
    Torus1000ExcessCffi,
    Torus32Excess,
    call_seed,
    compare_results,
    conservation,
    dynamic_ledger,
)

#: Provider entry points whose calls are timed (as children of the step).
KERNEL_METHODS = ("round_edges", "excess_counts", "excess_dispatch", "apply_flows")
#: Warm pool calls (each paired with its shards re-run in process) and
#: per-call sharded calls.
POOL_CALLS = {"full": 30, "tiny": 3}
PERCALL_CALLS = {"full": 3, "tiny": 1}
VALIDATE_REPS = 200
#: Protocol rounds of the floor/identity variants of the batched step.
VARIANT_ROUNDS = {
    ("full", Torus32Excess.name): 100,
    ("full", Torus1000ExcessCffi.name): 4,
}


def _ms(spans) -> List[float]:
    return [duration(s) * 1e3 for s in spans]


class _Ops:
    """Counts the traced pass's engine calls and checks as ops."""

    def __init__(self, report: Callable[[Dict], None]):
        self.report = report

    def done(self, name: str, problem=None, engine_calls: int = 1) -> None:
        self.report(
            {
                "op": name,
                "ok": problem is None,
                "engine_calls": engine_calls,
                "detail": problem or "",
            }
        )


def _shm() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
def trace_pool(tr: Tracer, ops: _Ops, sp: SweepPool) -> Dict:
    """engines.pool / engines.sharded / core.records on the sweep call."""
    sp.inputs()
    topo, loads, B = sp.topo, sp.loads, sp.B
    cfg = sp.cfg(sp.seed)
    sharded = make_engine("sharded")
    batched = make_engine("batched")
    bounds = plan_shards(B, max(1, min(sp.workers, B // 2)))
    before = _shm()
    pool = ShardedWorkerPool(sp.workers)
    overhead, slowest, merges = [], [], []
    try:
        with tr.span("pool.cold_call"):
            sharded.run(topo, replace(cfg, pool=pool), loads)
        for i in range(POOL_CALLS[sp.scale]):
            c = replace(sp.cfg(call_seed(sp.seed, i)), pool=pool)
            with tr.span("pool.call"):
                with tr.span("pool.run_batch") as call:
                    batch = pool.run_batch(topo, c, loads)
                with tr.span("records.results"):
                    results = batch.results()
            finals = np.array([r.final_state.load for r in results])
            ops.done(f"pool-call-{i}", conservation(sp.totals, finals))
            # The same call's shards re-run in process with their replica
            # keys (what each worker computes), then the parent's merge;
            # paired with the call so both see the same machine.
            params = resolve_replica_params(c.replica_params, B)
            shards, times = [], []
            for lo, hi in bounds:
                shard_cfg = replace(
                    c,
                    pool=None,
                    replica_keys=list(range(lo, hi)),
                    replica_params=params.shard(lo, hi),
                )
                with tr.span("pool.shard_compute") as s:
                    shards.append(batched.run_batch(topo, shard_cfg, loads[lo:hi]))
                times.append(duration(s) * 1e3)
            with tr.span("pool.merge") as s:
                merged = merge_record_batches(shards)
            slowest.append(max(times))
            merges.append(duration(s) * 1e3)
            overhead.append(duration(call) * 1e3 - slowest[-1] - merges[-1])
        ops.done("pool-vs-inprocess-shards", compare_results(results, merged.results()))
        calls_served = pool.calls_served
    finally:
        pool.close()
    leaked = len(_shm() - before)

    for i in range(PERCALL_CALLS[sp.scale]):
        with tr.span("sharded.percall_call"):
            sharded.run(topo, replace(cfg, workers=sp.workers), loads)
        ops.done(f"sharded-percall-{i}")

    val = []
    with tr.span("config.validate"):
        for _ in range(VALIDATE_REPS):
            t0 = time.perf_counter()
            c.validate()
            resolve_replica_params(c.replica_params, B)
            val.append((time.perf_counter() - t0) * 1e6)

    return {
        "pool.cold_call_s": metric(duration(tr.named("pool.cold_call")[0]), "s"),
        "sharded.percall_call_ms": metric(median(_ms(tr.named("sharded.percall_call"))), "ms"),
        "pool.call_ms_p50": metric(median(_ms(tr.named("pool.call"))), "ms"),
        "pool.shard_compute_ms": metric(median(slowest), "ms"),
        "pool.merge_ms": metric(median(merges), "ms"),
        "pool.overhead_ms": metric(median(overhead), "ms"),
        "records.results_ms": metric(median(_ms(tr.named("records.results"))), "ms"),
        "config.validate_us": metric(median(val), "us"),
        "pool.calls_served": metric(calls_served, "count"),
        "pool.shm_leaked": metric(leaked, "count"),
    }


def _protocol_steps(tr: Tracer, engine, handle, rounds: int, name: str) -> None:
    for _ in range(rounds):
        with tr.span(name):
            engine.step(handle)


def trace_staleness(tr: Tracer, ops: _Ops, rl: RealismLadder) -> Dict:
    """engines.staleness at latency 0 and 2, against batched on the same shape."""
    rl.inputs()
    topo, loads = rl.topo, rl.loads
    out = {}
    for latency, key in ((0, "lat0"), ("fixed:2", "lat2")):
        cfg = rl.stale(rl.seed, latency)
        with tr.span(f"staleness.prepare.{key}"):
            h = rl.staleness.prepare(topo, cfg, loads)
        _protocol_steps(tr, rl.staleness, h, cfg.rounds, f"staleness.step.{key}")
        with tr.span("staleness.metrics"):
            rl.staleness.metrics(h)
        got = h.core.total_load()
        ops.done(
            f"staleness-{key}-ledger",
            None if np.array_equal(got, rl.totals) else f"{got.tolist()} != {rl.totals.tolist()}",
        )
        out[f"staleness.step_ms_p50.{key}"] = metric(
            median(_ms(tr.named(f"staleness.step.{key}"))), "ms"
        )
    cfg = rl.sos(rl.seed)
    h = rl.batched.prepare(topo, cfg, loads)
    _protocol_steps(tr, rl.batched, h, cfg.rounds, "batched.step.realism")
    ops.done("batched-realism-shape", conservation(rl.totals, rl.batched.metrics(h).final_loads))
    batched_ms = median(_ms(tr.named("batched.step.realism")))
    out["staleness.prepare_s"] = metric(duration(tr.named("staleness.prepare.lat0")[0]), "s")
    out["staleness.lat0_over_batched"] = metric(
        out["staleness.step_ms_p50.lat0"]["value"] / batched_ms, "ratio"
    )
    return out


def trace_churn(tr: Tracer, ops: _Ops, rl: RealismLadder) -> Dict:
    """core.churn planning and patch rounds, core.dynamic arrivals."""
    topo, loads = rl.topo, rl.loads
    with tr.span("churn.resolve"):
        plan = resolve_churn(topo, rl.dyn(CHURN_SEED, CHURN))
    cfg = rl.dyn(rl.seed, plan)
    h = rl.batched.prepare(topo, cfg, loads)
    tokens = 0.0
    for r in range(cfg.rounds):
        # a patch scheduled for round r + 1 is applied by arrive()
        with tr.span("churn.round", patch=plan.patch_at(r + 1) is not None):
            with tr.span("arrivals.arrive"):
                arrivals = rl.batched.arrive(h)
            with tr.span("batched.step.dynamic"):
                rl.batched.step(h)
        tokens += float(arrivals.arrived.sum())
    ops.done("churn-arrivals-ledger", dynamic_ledger(rl.totals, rl.batched.metrics(h)))

    rounds = tr.named("churn.round")
    plain = [s for s in rounds if not s["patch"]]
    patched = [s for s in rounds if s["patch"]]
    arrive = [
        duration(a) * 1e3
        for s in plain
        for a in tr.children(s)
        if a["name"] == "arrivals.arrive"
    ]
    return {
        "churn.resolve_s": metric(duration(tr.named("churn.resolve")[0]), "s"),
        "churn.patches": metric(len(plan.patches), "count"),
        "churn.step_ms_p50": metric(median(_ms(plain)), "ms"),
        "churn.patch_step_ms_p50": metric(median(_ms(patched)) if patched else 0.0, "ms"),
        "arrivals.arrive_ms_p50": metric(median(arrive), "ms"),
        "arrivals.tokens": metric(tokens, "count"),
    }


def trace_kernels(tr: Tracer, ops: _Ops, wl, topo) -> Dict:
    """The cffi provider's entry points, wrapped on the memoised instance.

    The fused ``run_batch`` loop is traced here, not the protocol: only the
    fused loop applies flows through the provider (``step()`` computes the
    round's info on the numpy side).  Every round opens with exactly one
    ``round_edges`` call, so the provider spans split the run into rounds;
    a round's host time is its length minus the provider calls in it.
    """
    with tr.span("kernels.load_warm"):
        provider = get_provider("cffi")
        if provider is None:
            raise RuntimeError("the cffi kernel provider is unavailable")
        ensure_warm(provider)
    tokens, nbytes = [], []

    def wrap(name, fn):
        def timed(*args):
            if name == "round_edges":
                tokens.append(0)
                nbytes.append(0)
            with tr.span(f"kernels.{name}"):
                out = fn(*args)
            nbytes[-1] += sum(a.nbytes for a in args if isinstance(a, np.ndarray))
            if name == "excess_counts":
                tokens[-1] += int(args[6].sum())  # the per-replica totals
            return out

        return timed

    for name in KERNEL_METHODS:
        setattr(provider, name, wrap(name, getattr(provider, name)))
    try:
        cfg = wl.cfg(wl.seed, kernel="cffi", record_every=wl.p["rounds"])
        with tr.span("kernels.run_batch") as run:
            batch = make_engine("batched").run_batch(topo, cfg, wl.loads)
        ops.done("kernels-traced-run", conservation(wl.totals, batch.final_loads))
        del batch
    finally:
        for name in KERNEL_METHODS:
            delattr(provider, name)  # back to the class's methods

    calls = sorted(tr.children(run), key=lambda c: c["start"])
    opens = [c["start"] for c in calls if c["name"] == "kernels.round_edges"]
    # every round but the last, which also records and seals the run
    rounds = list(zip(opens[:-1], opens[1:]))
    per_method = {name: [] for name in KERNEL_METHODS}
    host = []
    for lo, hi in rounds:
        inside = [c for c in calls if lo <= c["start"] < hi]
        host.append(self_time(lo, hi, [(c["start"], c["end"]) for c in inside]) * 1e3)
        for name in KERNEL_METHODS:
            per_method[name].append(
                sum(duration(c) for c in inside if c["name"] == f"kernels.{name}") * 1e3
            )
    out = {
        "kernels.load_warm_s": metric(duration(tr.named("kernels.load_warm")[0]), "s"),
        "kernels.host_ms": metric(median(host), "ms"),
        "kernels.tokens_per_round": metric(float(np.mean(tokens)), "count"),
        "kernels.bytes_per_round_computed": metric(float(np.mean(nbytes)), "bytes"),
    }
    for name in KERNEL_METHODS:
        out[f"kernels.{name}_ms"] = metric(median(per_method[name]), "ms")
    return out


def trace_batched(tr: Tracer, ops: _Ops, wl, topo) -> Dict:
    """engines.batched through the protocol, its rounding variants, and the
    same run through the fused loop for the tracing-overhead comparison."""
    engine = make_engine("batched")
    cfg = wl.cfg(wl.seed)
    with tr.span("trace.protocol"):
        with tr.span("batched.prepare"):
            h = engine.prepare(topo, cfg, wl.loads)
        _protocol_steps(tr, engine, h, cfg.rounds, "batched.step")
        with tr.span("batched.metrics"):
            batch = engine.metrics(h)
    del h
    ops.done("batched-traced-run", conservation(wl.totals, batch.final_loads))
    del batch
    t0 = time.perf_counter()
    batch = engine.run_batch(topo, cfg, wl.loads)
    untraced = time.perf_counter() - t0
    ops.done("batched-fused-run", conservation(wl.totals, batch.final_loads))
    del batch

    rounds = VARIANT_ROUNDS.get((wl.scale, wl.name), 3)
    variants = {
        "floor": replace(cfg, rounding="floor"),
        # edge-wise identity: no rounding at all, on the numpy tier
        "identity": replace(cfg, rounding="identity", kernel="numpy", fast_path="never"),
    }
    for key, vcfg in variants.items():
        h = engine.prepare(topo, vcfg, wl.loads)
        _protocol_steps(tr, engine, h, rounds, f"batched.step.{key}")
        del h
        ops.done(f"batched-{key}-variant")

    steps = _ms(tr.named("batched.step"))
    floor_ms = median(_ms(tr.named("batched.step.floor")))
    return {
        "graphs.build_s": metric(duration(tr.named("graphs.build")[0]), "s"),
        "batched.prepare_s": metric(duration(tr.named("batched.prepare")[0]), "s"),
        "batched.step_ms_p50": metric(median(steps), "ms"),
        "batched.step_ms_p99": metric(percentile(steps, 99.0), "ms"),
        "batched.step_ms_p50.floor": metric(floor_ms, "ms"),
        "batched.step_ms_p50.identity": metric(
            median(_ms(tr.named("batched.step.identity"))), "ms"
        ),
        "batched.excess_share": metric(1.0 - floor_ms / median(steps), "ratio"),
        "batched.metrics_ms": metric(duration(tr.named("batched.metrics")[0]) * 1e3, "ms"),
        "trace.wall_s": metric(duration(tr.named("trace.protocol")[0]), "s"),
        "trace.untraced_wall_s": metric(untraced, "s"),
    }


def traced_pass(wl, report: Callable[[Dict], None]):
    """Run every layer probe for workload ``wl``; return the per-layer
    metrics, a few counts, and the tracer holding every span."""
    tr = Tracer(wl.name)
    ops = _Ops(report)
    metrics: Dict = {}
    # Worker processes are forked before this process loads the cffi
    # kernels: a fork after the OpenMP runtime started deadlocks the
    # workers (a known defect of the program, which the sweep-pool
    # workload does not exercise either).
    metrics.update(trace_pool(tr, ops, SweepPool(wl.scale, wl.seed)))
    realism = RealismLadder(wl.scale, wl.seed)
    metrics.update(trace_staleness(tr, ops, realism))
    metrics.update(trace_churn(tr, ops, realism))

    main = wl if isinstance(wl, Torus1000ExcessCffi) else Torus32Excess(wl.scale, wl.seed)
    main.inputs()
    with tr.span("graphs.build"):
        topo = torus_2d(main.side, main.side)
    metrics.update(trace_kernels(tr, ops, main, topo))
    metrics.update(trace_batched(tr, ops, main, topo))
    return metrics, {"spans": len(tr.spans)}, tr
