"""Multiprocess sharded engine: column shards of one replica batch.

After the closed-form fast paths of PR 3 the batched engine is bound by a
single core; the remaining multiplicative speedup for seed-averaged
ensembles is process parallelism.  :class:`ShardedEngine` splits a
``(B, n)`` replica batch into contiguous *column shards*, runs one
:class:`~repro.engines.batched.BatchedVectorEngine` per worker process,
and merges the per-shard record batches
(:func:`~repro.engines.base.merge_record_batches`) into the exact batch a
single-process run would have produced.

Bit-identity contract
---------------------
The merge is **bit-identical** to the single-process batched engine for
every rounding, static and dynamic, any worker count, because no random
stream and no float expression ever crosses a replica boundary:

* rounding randomness comes from per-replica spawned streams
  (:func:`~repro.engines.base.rounding_stream`), keyed by the replica's
  *global* batch index — the shard passes ``replica_keys=range(lo, hi)``
  so replica ``b`` draws the same stream in any shard;
* arrival randomness is already per-replica
  (:func:`~repro.core.dynamic.arrival_stream`); the shard pins
  ``arrival_seeds`` the same way.  ``arrival_sampling="batch"`` draws the
  whole batch from one shared stream and therefore cannot shard
  bit-identically — the engine rejects it;
* every kernel of the batched engine is column-independent (CSR matvecs,
  reductions, clamping, switching all act per replica column), so a
  shard's columns equal the same columns of the full-batch run.  One
  subtlety: numpy reduces a *single*-column plane through a different
  (contiguous pairwise) kernel than any wider plane, so shard plans keep
  at least two columns per shard whenever the batch has two — otherwise
  the fractional reductions (continuous ``identity`` runs, the dynamic
  potential, plateau switching) would only agree to accumulation
  accuracy.

Topology churn shards too: the parent compiles the deterministic
:class:`~repro.core.churn.ChurnPlan` exactly once (the random schedule
draw happens before any shard exists) and broadcasts the plan in every
shard config, so workers replay identical patches at identical rounds
and the merge stays bit-identical to the batched engine under churn.

Worker lifecycle
----------------
Every multi-shard call runs on a
:class:`~repro.engines.pool.ShardedWorkerPool` — the one transport.  With
``EngineConfig.pool=None`` (the default) the call opens an *ephemeral*
pool with exactly one worker per shard and closes it when the call
returns; ``pool=True``/``"auto"`` (the process-wide default) or an
explicit pool instance keeps the workers, their warm imports and the
prepared operators alive across calls.  Either way the shard plan, the
merge and the results are the same, bit for bit.  A single-shard plan
(one worker, or ``B <= 3`` — the >= 2-column shard floor caps the shard
count at ``B // 2``) runs inline in the parent through the same
:func:`_run_shard` entry point the workers use; no process starts.

Workers start with ``fork`` where available (no interpreter restart),
except when this process has loaded a threaded compiled runtime (the
cffi provider's OpenMP pool): a fork after OpenMP started deadlocks the
child's first parallel region, so :func:`_start_method` resolves
``spawn`` instead.  The ``REPRO_SHARDED_START`` environment variable
(``spawn`` / ``forkserver`` / ``fork``) overrides the decision.

The engine implements the fused :meth:`run` / :meth:`run_dynamic` surface
only; the ``prepare()``/``step()`` protocol would need one IPC round trip
per simulated round and is deliberately refused (use the batched engine
for step-level access — the traces are identical).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.churn import resolve_churn
from ..exceptions import ConfigurationError
from ..graphs.topology import Topology
from ..kernels import threaded_runtime_loaded

from .base import (
    Engine,
    EngineConfig,
    RecordBatch,
    as_load_batch,
    check_supported,
    plan_shards,
    register_engine,
    resolve_arrival_keys,
    resolve_arrival_models,
    resolve_replica_keys,
    resolve_replica_params,
    resolve_workers,
)
from .batched import BatchedVectorEngine
from .staleness import StalenessEngine

__all__ = ["ShardedEngine"]


def _wants_staleness(config: EngineConfig) -> bool:
    """Route a shard to the staleness engine when the config asks for the
    bounded-staleness regime (latency buckets, skew gate, or faults) —
    its delayed planes slice by column exactly like the batched kernels,
    so the shard/merge contract carries over unchanged."""
    return (
        config.latency_model is not None
        or config.max_skew is not None
        or config.faults is not None
        or config.latency_buckets != "ceil"
    )


def _start_method() -> str:
    """The worker start method: ``fork`` where available unless a
    threaded compiled runtime is live in this process, then ``spawn``
    (``REPRO_SHARDED_START`` overrides)."""
    known = multiprocessing.get_all_start_methods()
    method = os.environ.get("REPRO_SHARDED_START")
    if method is None:
        fork_safe = "fork" in known and not threaded_runtime_loaded()
        method = "fork" if fork_safe else "spawn"
    if method not in known:
        raise ConfigurationError(
            f"REPRO_SHARDED_START={method!r} is not available here; "
            f"known: {known}"
        )
    return method


def _run_shard(
    payload: Tuple[Topology, EngineConfig, np.ndarray, bool],
    operator_cache: Optional[dict] = None,
) -> RecordBatch:
    """Run one column shard through a fresh round-core engine.

    The worker body of every pool task, and the inline path of
    single-shard plans — the code path is identical either way.  The
    shard config already carries the global ``replica_keys`` /
    ``arrival_seeds``, so the returned :class:`RecordBatch` holds exactly
    the full-batch run's columns for this shard's replicas.  A batched
    shard fills and reuses ``operator_cache`` (a pool worker's per-graph
    CSR operators) when one is given.
    """
    topo, config, loads, dynamic = payload
    if _wants_staleness(config):
        engine = StalenessEngine()
    else:
        engine = BatchedVectorEngine()
        engine.operator_cache = operator_cache
    if dynamic:
        return engine.run_dynamic_batch(topo, config, loads)
    return engine.run_batch(topo, config, loads)


@register_engine
class ShardedEngine(Engine):
    """Column shards of a replica batch across worker processes."""

    name = "sharded"
    #: What the worker engine honours, plus the multiprocess plan, minus
    #: batch-wide arrival sampling (one shared stream cannot split across
    #: workers bit-identically).  A config is checked against the set of
    #: the worker engine it routes to (:meth:`worker_supports`); this
    #: class-level set is the union over both routes.
    _PLAN = frozenset({"workers", "pool"})
    supports = (
        BatchedVectorEngine.supports | StalenessEngine.supports | _PLAN
    ) - {"arrival_sampling"}

    @classmethod
    def worker_supports(cls, config: EngineConfig) -> frozenset:
        """The features a sharded run of ``config`` honours."""
        worker = StalenessEngine if _wants_staleness(config) else BatchedVectorEngine
        return (worker.supports | cls._PLAN) - {"arrival_sampling"}

    # ------------------------------------------------------------------
    def _refuse_protocol(self, what: str):
        raise ConfigurationError(
            f"the sharded engine does not expose {what}; it runs whole "
            "batches through run()/run_dynamic() (per-round IPC would cost "
            "more than it parallelises — use the batched engine for "
            "step-level access, the traces are identical)"
        )

    def prepare(self, topo, config, initial_loads):
        self._refuse_protocol("prepare()")

    def step(self, handle):
        self._refuse_protocol("step()")

    def arrive(self, handle):
        self._refuse_protocol("arrive()")

    def metrics(self, handle):
        self._refuse_protocol("metrics()")

    # ------------------------------------------------------------------
    def _shard_payloads(
        self,
        topo: Topology,
        config: EngineConfig,
        loads: np.ndarray,
        dynamic: bool,
    ) -> List[Tuple[Topology, EngineConfig, np.ndarray, bool]]:
        """Validate the config and slice the batch into shard payloads."""
        name = "sharded/staleness" if _wants_staleness(config) else "sharded"
        check_supported(config, name, self.worker_supports(config))
        # Churn shards bit-identically once every worker replays the *same*
        # compiled plan: the random schedule draw happens exactly once, here
        # in the parent (resolve_churn seeds its own stream), and the
        # resulting ChurnPlan is broadcast in the shard configs — workers
        # re-validate it via the ChurnPlan passthrough in parse_churn_spec
        # and apply identical patches at identical rounds.  The patch
        # machinery (handoffs, flow remap, operator rebuild) acts per
        # replica column, so the column-independence argument above holds
        # under churn too.  The heterogeneous-speeds guard (and the rest of
        # the churn compatibility matrix) lives in config.validate() and
        # still applies unchanged.
        churn_plan = resolve_churn(topo, config)
        B = loads.shape[0]
        replica_keys = resolve_replica_keys(config, B)
        params = resolve_replica_params(config.replica_params, B)
        arrival_seeds: Optional[Sequence[int]] = None
        arrival_models: Optional[Sequence] = None
        if config.arrivals is not None:
            arrival_models = resolve_arrival_models(config.arrivals, B)
            arrival_seeds = resolve_arrival_keys(config, B)
        # Shards keep >= 2 columns whenever the batch has >= 2: numpy sums a
        # single-column plane through its contiguous pairwise kernel, whose
        # *fractional* reductions differ at the ulp level from the strided
        # row-pairwise kernel every width >= 2 goes through — a width-1
        # shard of a wider batch would break bit-identity for the continuous
        # identity process and the fractional dynamic/plateau reductions.
        n_shards = max(1, min(resolve_workers(config.workers, B), B // 2 or 1))
        payloads = []
        for lo, hi in plan_shards(B, n_shards):
            shard_config = replace(
                config,
                workers=None,  # the worker-side batched engine runs alone
                pool=None,  # pooling is a parent-side routing decision
                churn=churn_plan,  # precompiled plan, identical per shard
                replica_keys=replica_keys[lo:hi],
                arrival_seeds=(
                    arrival_seeds[lo:hi]
                    if arrival_seeds is not None
                    else None
                ),
                arrivals=(
                    list(arrival_models[lo:hi])
                    if arrival_models is not None
                    else None
                ),
                # The parameter planes shard with their columns: replica b
                # carries the same plane entries in any shard assignment,
                # so the merge stays bit-identical to the batched run.
                replica_params=(
                    params.shard(lo, hi) if params is not None else None
                ),
            )
            payloads.append((topo, shard_config, loads[lo:hi], dynamic))
        return payloads

    def _resolve_pool(self, config: EngineConfig):
        """Map ``config.pool`` to a live pool, or ``None`` for an
        ephemeral per-call pool.  ``True``/``"auto"`` route to the
        process-wide default
        :class:`~repro.engines.pool.ShardedWorkerPool`; an explicit pool
        instance is used as-is (callers own its lifecycle)."""
        spec = config.pool
        if spec is None or spec is False:
            return None
        if spec is True or spec == "auto":
            from .pool import default_pool  # lazy: pool imports sharded

            return default_pool()
        return spec

    def _run(self, topo, config, initial_loads, dynamic: bool) -> RecordBatch:
        """Execute the shard plan and return the merged record batch."""
        loads = as_load_batch(initial_loads, topo.n)
        pool = self._resolve_pool(config)
        if pool is not None:
            return pool.run_batch(topo, config, loads, dynamic=dynamic)
        payloads = self._shard_payloads(topo, config, loads, dynamic)
        if len(payloads) == 1:
            return _run_shard(payloads[0])
        from .pool import ShardedWorkerPool  # lazy: pool imports sharded

        with ShardedWorkerPool(len(payloads)) as pool:
            return pool.run_payloads(topo, config, loads, payloads, dynamic)

    # ------------------------------------------------------------------
    def run(self, topo, config, initial_loads):
        """Shard the batch across workers; one ``SimulationResult`` per
        replica, bit-identical to the batched engine for any worker count.
        """
        if config.arrivals is not None:
            raise ConfigurationError(
                "config has arrival models; dynamic workloads run through "
                "run_dynamic()"
            )
        return self._run(topo, config, initial_loads, dynamic=False).results()

    def run_dynamic(self, topo, config, initial_loads):
        """Shard a dynamic batch across workers; one ``DynamicResult`` per
        replica, bit-identical to the batched engine (stream sampling).
        """
        if config.arrivals is None:
            raise ConfigurationError(
                "run_dynamic() needs arrival models (set config.arrivals)"
            )
        return self._run(topo, config, initial_loads, dynamic=True).dynamic_results()
