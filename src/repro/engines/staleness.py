"""Vectorised bounded-staleness engine: the async regime without the event
queue.

:class:`StalenessEngine` replays the event-driven
:class:`~repro.network.async_engine.AsyncNetwork` as a *round-synchronous*
vectorised process.  Per-link latencies are quantised into integer round
buckets (:func:`quantize_link_latency`), and the whole ``(n, B)`` replica
ensemble advances with delayed-view planes: a circular ring of the last
``D + 1`` announce planes (``D`` = deepest bucket), gathered per *arc* so
each node computes on neighbour loads exactly ``d`` rounds stale; shipped
tokens ride a second ring of bucketed shipment planes and land ``d``
rounds later; dropped shipments ride a third (bounce) ring back to their
sender after ``2 d`` rounds.  The ``max_skew`` gate becomes a vectorised
clamp on bucket depth (``d_eff = min(d, max_skew + 1)``), which is what
the gate enforces on view staleness in the event-driven engine.

Bit-identity contract
---------------------
The engine is **bit-identical to** :class:`AsyncNetwork` — same recorded
trajectories, flows, staleness statistics and conservation ledger — when
the event queue itself stays in per-round lockstep:

* every per-link latency is a non-negative **integer** number of rounds
  (so quantisation is a no-op — ``latency_buckets="exact"`` asserts it),
* ``max_skew`` is ``None``, or every bucket is ``<= max_skew`` (the gate
  then never fires, because a node has always heard round ``r - d`` from
  a ``d``-bucket neighbour by the end of round ``r``),
* the rounding is deterministic (``floor`` / ``nearest`` / ``ceil``).
  The stochastic roundings consume per-replica streams
  (:func:`~repro.engines.base.rounding_stream` — the batched engine's
  layout) instead of the per-node streams the network engines use, so
  they agree in distribution, not bit for bit.

Under those conditions every event of the queue lands at an integer
timestamp whose phase ordering this engine replays plane for plane:
announce (ring snapshot), compute (delayed-view gather + rounding),
deliver (shipment/bounce ring reads *after* the compute, matching the
event queue's ``PH_DELIVER > PH_COMPUTE`` phase order), finish (zeroing
remembered flows on quiet incoming arcs).  Fractional latencies or
buckets beyond the gate bound leave lockstep — there the engine is the
documented quantised approximation (``mean_staleness`` /
``max_staleness`` still track the bucket depths, and
``max_staleness <= max_skew + 1`` always holds).

Faults compose: per-message drops are applied as masks on the bucketed
shipment planes, consuming each replica's fault stream
(``default_rng([seed + key_b, FAULT_STREAM_KEY])``) in exactly the event
queue's arc order, so fault schedules match the async engine message for
message.  Token conservation is exact under any schedule:
``loads.sum() + in_flight_amount`` is constant (static) or moves only by
the injected arrival/departure totals (dynamic).

The engine accepts ``tile_size`` (bounding the excess-token dispatch
scratch exactly like the batched engine — tiled runs are bit-identical
to dense runs) and ``replica_keys`` (pinning fault/rounding streams to
replica identities), which is what lets the sharded engine split a
staleness batch into column shards bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..core.dynamic import ArrivalModel, DynamicResult, ScaledArrivals
from ..core.records import DynamicRecordTable, RecordTable
from ..core.simulator import SimulationResult, record_round
from ..core.state import LoadState, transient_loads
from ..core.metrics import (
    max_local_difference,
    max_minus_average,
    normalized_potential,
    target_loads,
)
from ..graphs.speeds import uniform_speeds, validate_speeds
from ..graphs.topology import Topology
from ..network.engine import FAULT_STREAM_KEY
from ..network.faults import LinkOutage, NoFaults, RandomLinkDrop
from ..network.messages import TokenTransfer

from .async_net import resolve_link_latency
from .base import (
    ArrivalBatch,
    Engine,
    EngineConfig,
    RecordBatch,
    StepBatch,
    apply_load_scales,
    as_load_batch,
    check_supported,
    parse_faults_spec,
    register_engine,
    replica_beta,
    resolve_arrival_models,
    resolve_arrival_rngs,
    resolve_replica_keys,
    resolve_replica_params,
    resolve_rounding_rngs,
    resolve_tile_size,
    scheme_name,
)
from .batched import (
    _excess_moves,
    _replica_major_slots,
    _tiles,
    _UniformBuffer,
)

__all__ = ["StalenessEngine", "quantize_link_latency"]

#: Fractional-surplus tolerance of the excess-token rounding — the same
#: constant as ``repro.network.node._FRAC_TOL`` and the batched engine.
_FRAC_TOL = 1e-9

_STOCHASTIC_ROUNDINGS = ("unbiased-edge", "randomized-excess")
_KNOWN_ROUNDINGS = (
    "identity",
    "floor",
    "nearest",
    "ceil",
    "unbiased-edge",
    "randomized-excess",
)


def _rows(a: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a[idx]`` along axis 0, written into ``out``.  ``mode="clip"``
    only skips the range check's temporary: every index is in range."""
    return np.take(a, idx, axis=0, out=out, mode="clip")


def quantize_link_latency(latency, policy: str, m_edges: int) -> np.ndarray:
    """Quantise per-edge latencies into integer round buckets.

    ``latency`` is ``None`` (zero latency everywhere), a scalar or an
    ``(m_edges,)`` array of non-negative rounds.  ``policy`` maps
    fractional latencies onto buckets: ``"ceil"`` (first round the
    message is fully delivered — the event queue's first-usable round),
    ``"floor"``, ``"nearest"``, or ``"exact"`` (refuse fractional
    latencies outright: the bit-identity contract vs the async engine
    only holds where quantisation is a no-op).  Returns an int64 bucket
    array.
    """
    if latency is None:
        return np.zeros(m_edges, dtype=np.int64)
    arr = np.broadcast_to(np.asarray(latency, dtype=np.float64), (m_edges,))
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("link latency must be finite")
    if arr.size and np.any(arr < 0.0):
        raise ConfigurationError("link latency must be >= 0")
    if policy == "exact":
        buckets = np.rint(arr)
        if np.any(arr != buckets):
            raise ConfigurationError(
                "latency_buckets='exact' requires integer link latencies "
                "(the bit-identity regime); got fractional values — use "
                "'ceil', 'floor' or 'nearest' to quantise them"
            )
    elif policy == "ceil":
        buckets = np.ceil(arr)
    elif policy == "floor":
        buckets = np.floor(arr)
    elif policy == "nearest":
        buckets = np.rint(arr)
    else:
        raise ConfigurationError(
            "latency_buckets must be 'ceil', 'floor', 'nearest' or "
            f"'exact', got {policy!r}"
        )
    return buckets.astype(np.int64)


class _StalenessCore:
    """The ``(n, B)`` delayed-plane state machine (one step per round).

    All arrays are arc-major: arc ``a`` is the directed half-edge
    ``arc_src[a] -> arc_dst[a]``, sorted by ``(src, dst)`` (the CSR
    order), which is exactly the order the event queue processes
    per-node neighbour work in — node-ascending computes, sorted
    neighbours within each node.
    """

    def __init__(
        self,
        topo: Topology,
        speeds: np.ndarray,
        loads: np.ndarray,  # (n, B) float64, C-contiguous, owned
        scheme: str,
        betas: np.ndarray,  # (B,)
        switch_rounds: np.ndarray,  # (B,) int64, -1 = never
        rounding: str,
        d_edge: np.ndarray,  # (m,) int64 buckets, already skew-clamped
        fault_models: Optional[List] = None,
        rngs: Optional[List[np.random.Generator]] = None,
        tile: Optional[int] = None,
    ):
        if rounding not in _KNOWN_ROUNDINGS:
            raise ConfigurationError(f"unknown rounding {rounding!r}")
        self.topo = topo
        self.n = topo.n
        self.m = topo.m_edges
        self.B = loads.shape[1]
        self.speeds = np.asarray(speeds, dtype=np.float64)
        self.loads = loads
        self.scheme = scheme
        self.betas = np.asarray(betas, dtype=np.float64)
        self.bm1 = self.betas - 1.0
        self.switch_rounds = np.asarray(switch_rounds, dtype=np.int64)
        self.rounding = rounding
        self.fault_models = fault_models
        self.rngs = rngs
        self.tile = tile

        # -- arc structure out of the CSR adjacency --------------------
        n, B = self.n, self.B
        degrees = np.asarray(topo.degrees, dtype=np.int64)
        self.indptr = np.asarray(topo.adj_indptr, dtype=np.int64)
        self.arc_src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        self.arc_dst = np.asarray(topo.adj_indices, dtype=np.int64)
        self.arc_edge = np.asarray(topo.adj_edge_ids, dtype=np.int64)
        self.n_arcs = int(self.arc_src.shape[0])
        na = self.n_arcs
        # Reverse-arc permutation: the arc with the k-th smallest
        # (dst, src) pair is the reverse of arc k, so one lexsort is the
        # whole involution.
        self.rev = np.lexsort((self.arc_src, self.arc_dst))
        # Per-edge arc ids for the engine-side flow record: the lower
        # endpoint's arc writes first, the higher endpoint's compute runs
        # later in node order and overwrites (the event queue's seq
        # ordering at one timestamp).
        is_lo = self.arc_src < self.arc_dst
        self.arc_of_lo = np.empty(self.m, dtype=np.int64)
        self.arc_of_hi = np.empty(self.m, dtype=np.int64)
        self.arc_of_lo[self.arc_edge[is_lo]] = np.flatnonzero(is_lo)
        self.arc_of_hi[self.arc_edge[~is_lo]] = np.flatnonzero(~is_lo)
        # The diffusion weight per arc — matches BalancerNode.receive_hello.
        self.alpha_arc = np.minimum(
            self.speeds[self.arc_src], self.speeds[self.arc_dst]
        ) / (np.maximum(degrees[self.arc_src], degrees[self.arc_dst]) + 1.0)

        # -- delay buckets and modular slot tables ---------------------
        self.d_edge = np.asarray(d_edge, dtype=np.int64)
        self.d_arc = self.d_edge[self.arc_edge] if na else np.zeros(0, np.int64)
        self.D = int(self.d_arc.max()) if na else 0
        La = self.D + 1
        Lb = 2 * self.D + 1
        self.La = La
        rows_a = np.arange(La, dtype=np.int64)[:, None]
        # Flat (La, n_arcs) row tables into the rings viewed as
        # (La * rows, B) planes, so a round's view gather and shipment
        # scatter are each one axis-0 take/put.
        self._view_rows = ((rows_a - self.d_arc) % La) * n + self.arc_dst
        self._ship_rows = ((rows_a + self.d_arc) % La) * na + np.arange(na)
        rows_b = np.arange(Lb, dtype=np.int64)[:, None]
        self.bounce_slot = (rows_b + 2 * self.d_arc[None, :]) % Lb

        # -- state planes ----------------------------------------------
        #: Announce ring: A[r % La] is round r's normalised-load plane.
        #: Every slot starts as the construction-time view (the setup
        #: Hello exchange); slot ``(r - d) % La`` is first written at round
        #: ``r - d``, so a node that has not yet heard a d-bucket neighbour
        #: computes on the bootstrap view, like the event engine.
        self.A = np.empty((La, n, B), dtype=np.float64)
        self.A[:] = self.loads / self.speeds[:, None]
        self._A_flat = self.A.reshape(La * n, B)
        #: Shipment ring: S[r % La, a] holds the tokens arriving on arc
        #: ``a`` at round r (written once per arc per round — slots are
        #: provably consumed and zeroed before reuse).  With every bucket
        #: at 0 a round's shipments are its deliveries: the ring stays
        #: empty and untouched.
        self.S = np.zeros((La, na, B), dtype=np.float64)
        self._S_flat = self.S.reshape(La * na, B)
        #: Bounce ring (faulted shipments, 2d round trip); only faults
        #: populate it, so fault-free runs skip the allocation.
        self.bounce = (
            np.zeros((Lb, na, B), dtype=np.float64)
            if fault_models is not None
            else None
        )
        #: Per-arc remembered flow — BalancerNode.prev_flow, arc-major.
        self.P = np.zeros((na, B), dtype=np.float64)
        #: Engine-side per-edge flow record (edge_u -> edge_v positive).
        self.E = np.zeros((self.m, B), dtype=np.float64)

        self.round_index = 0
        # Conservation ledger + observability counters (per replica).
        self.in_flight_amount = np.zeros(B, dtype=np.float64)
        self.in_flight_messages = np.zeros(B, dtype=np.int64)
        self.delivered_count = np.zeros(B, dtype=np.int64)
        self.bounced_count = np.zeros(B, dtype=np.int64)
        # Staleness statistics are replica-independent under lockstep
        # (s = min(d, r + 1)), so scalars suffice and equal every
        # replica's event-engine counters.
        self._stale_sum = 0
        self._stale_count = 0
        self.max_staleness = 0

        # -- per-round scratch, allocated once: every round op writes
        # into these with out= ----------------------------------------
        #: Delayed views; later the SOS momentum term, the unbiased-edge
        #: uniforms and the reverse-arc deliveries.
        self._view = np.empty((na, B), dtype=np.float64)
        #: Gradient, then the schedule F (and rounding scratch once the
        #: sign masks below hold all that is left of F).
        self._sched = np.empty((na, B), dtype=np.float64)
        #: Positive part of F, rounded in place into the shipped amounts.
        self._amt = np.empty((na, B), dtype=np.float64)
        self._gt = np.empty((na, B), dtype=bool)  # F > 0
        self._eq = np.empty((na, B), dtype=bool)  # F == 0
        self._lt = np.empty((na, B), dtype=bool)  # F < 0
        self._mask = np.empty((na, B), dtype=bool)
        self._edge_amt = np.empty((self.m, B), dtype=np.float64)
        self._edge_mask = np.empty((self.m, B), dtype=bool)
        self._node_sum = np.empty((n, B), dtype=np.float64)

        # -- segment-sum plumbing (arc -> source-node reduction) -------
        if na:
            self._red_idx = np.minimum(self.indptr[:-1], na - 1)
            empty = np.flatnonzero(degrees == 0)
            self._empty_rows = empty if empty.size else None
        # -- excess-token dispatch tables ------------------------------
        if rounding == "randomized-excess" and na:
            self.dmax = int(degrees.max())
            j_rows = np.arange(self.dmax, dtype=np.int64)[:, None]
            # Node-local slot j -> arc id, with a zero sentinel row (na)
            # for slots beyond the node's degree.
            self.slot_take = np.where(
                j_rows < degrees[None, :], self.indptr[:-1][None, :] + j_rows, na
            )
            self._frac_ext = np.zeros((na + 1, B), dtype=np.float64)
            self.node_tiles = _tiles(n, tile) if tile else [(0, n)]
            rows = min(tile, n) if tile else n
            self._planes = np.empty((self.dmax, rows, B), dtype=np.float64)
            self._budget = np.empty((rows, B), dtype=np.float64)
            self.slot_ids = _replica_major_slots(rows, B)
            self.uniforms = _UniformBuffer(np.float64)
        # Per-replica LinkOutage arc masks, built lazily per model.
        self._outage_masks: dict = {}

    # ------------------------------------------------------------------
    def _segment_sum(self, x: np.ndarray) -> np.ndarray:
        """Sum arc values into their source node: ``out[i] = sum over
        node i's outgoing arcs`` — a sequential within-segment fold, the
        node-order accumulation of the per-node engines (exact for the
        integral amounts every deterministic rounding produces).  Writes
        into, and returns, the persistent ``(n, B)`` node plane."""
        out = np.add.reduceat(x, self._red_idx, axis=0, out=self._node_sum)
        if self._empty_rows is not None:
            out[self._empty_rows] = 0.0
        return out

    # ------------------------------------------------------------------
    def _round_positive(self, F: np.ndarray) -> np.ndarray:
        """Round the positive scheduled flows to shipped amounts.

        Returns the ``(n_arcs, B)`` amount plane, which is ``+0.0``
        wherever ``F <= 0`` (only the positive endpoint of an arc is a
        sender).  The deterministic branches are bit-identical to the
        node-local ``math.floor``/``np.rint``/``math.ceil`` on positive
        floats.  Expects ``self._gt == (F > 0)``; uses the view and
        schedule planes as scratch, so ``F`` is dead afterwards.
        """
        pos = self._amt
        pos.fill(0.0)
        np.copyto(pos, F, where=self._gt)
        if self.rounding == "identity":
            return pos
        if self.rounding == "floor":
            return np.floor(pos, out=pos)
        if self.rounding == "nearest":
            return np.rint(pos, out=pos)
        if self.rounding == "ceil":
            return np.ceil(pos, out=pos)
        if self.rounding == "unbiased-edge":
            base = np.floor(pos, out=self._sched)
            frac = np.subtract(pos, base, out=pos)
            # One contiguous draw of n_arcs uniforms per replica.
            u = self._view.reshape(self.B, self.n_arcs)
            for b, rng in enumerate(self.rngs):
                rng.random(out=u[b])
            return np.add(base, np.less(u.T, frac, out=self._mask), out=pos)
        return self._randomized_excess(pos)

    def _randomized_excess(self, pos: np.ndarray) -> np.ndarray:
        """The paper's excess-token rounding over the outgoing arcs, in
        place on ``pos``.

        Floor every positive flow, pool each sender's fractional parts
        ``r``, dispatch ``ceil(r - tol)`` tokens, each landing on
        outgoing arc ``j`` with probability ``{Yhat_j} / c`` and staying
        home otherwise — the batched engine's padded-adjacency dispatch
        (:func:`~repro.engines.batched._excess_moves`) re-indexed onto
        arcs.  Tokens are enumerated replica-major, each replica's uniforms
        one contiguous draw in node-ascending order, so tiled and dense
        dispatches are bit-identical for any tile size.
        """
        if self.n_arcs == 0:
            return np.floor(pos, out=pos)
        frac = self._frac_ext[: self.n_arcs]
        np.subtract(pos, np.floor(pos, out=frac), out=frac)
        base = np.floor(pos, out=pos)
        flat = base.reshape(-1)
        for node, col, arc_pos in _excess_moves(
            self._frac_ext, self.slot_take, self.node_tiles,
            self._planes, self._budget, _FRAC_TOL,
            self.rngs, self.slot_ids, self.uniforms,
        ):
            # One +1 per token onto integral floors: exact, so the add
            # order cannot matter.
            np.add.at(flat, (self.indptr[node] + arc_pos) * self.B + col, 1.0)
        return base

    # ------------------------------------------------------------------
    def _outage_arc_mask(self, model: LinkOutage) -> np.ndarray:
        mask = self._outage_masks.get(id(model))
        if mask is None:
            mask = np.fromiter(
                (
                    (
                        min(int(u), int(v)),
                        max(int(u), int(v)),
                    )
                    in model.links
                    for u, v in zip(self.arc_src, self.arc_dst)
                ),
                dtype=bool,
                count=self.n_arcs,
            )
            self._outage_masks[id(model)] = mask
        return mask

    def _fault_dropped(
        self, r: int, amt: np.ndarray, emitted: np.ndarray
    ) -> np.ndarray:
        """(n_arcs, B) drop mask, consuming each replica's fault stream
        in the event queue's per-message order (senders ascending,
        neighbours ascending within each sender)."""
        dropped = np.zeros_like(emitted)
        for b, model in enumerate(self.fault_models):
            if isinstance(model, NoFaults):
                continue
            col = emitted[:, b]
            if isinstance(model, RandomLinkDrop):
                if model.p == 0.0:
                    continue
                idx = np.flatnonzero(col)
                if idx.size:
                    dropped[idx, b] = model.rng.random(idx.size) < model.p
            elif isinstance(model, LinkOutage):
                if model._active(r):
                    dropped[:, b] = col & self._outage_arc_mask(model)
            else:
                for a in np.flatnonzero(col):
                    msg = TokenTransfer(
                        sender=int(self.arc_src[a]),
                        receiver=int(self.arc_dst[a]),
                        round_index=r,
                        amount=float(amt[a, b]),
                    )
                    if model.drops(msg, r):
                        dropped[a, b] = True
        return dropped

    # ------------------------------------------------------------------
    def inject(self, deltas: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply per-node workload deltas (dynamic regime), clamped at
        each node's available non-negative load — the elementwise tree of
        ``BalancerNode.receive_work``.  Returns per-replica
        ``(arrived, departed, clamped)`` totals."""
        pos = np.maximum(deltas, 0.0)
        want = np.maximum(-deltas, 0.0)
        consumed = np.minimum(want, np.maximum(self.loads, 0.0))
        np.add(self.loads, pos, out=self.loads)
        np.subtract(self.loads, consumed, out=self.loads)
        arrived = pos.sum(axis=0)
        departed = consumed.sum(axis=0)
        clamped = want.sum(axis=0) - departed
        return arrived, departed, clamped

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One global round, phase for phase with the lockstep event
        queue: announce snapshot, delayed-view compute, send deduction,
        faults onto the shipment/bounce rings, then the round's bounce
        and shipment deliveries (*after* the computes — the queue's
        ``PH_DELIVER > PH_COMPUTE``), then finish.

        Fault-free rounds allocate no plane: every op writes into the
        scratch planes built at construction (token-dispatch arrays and
        ufunc buffers are the only transient allocations)."""
        r = self.round_index
        na = self.n_arcs
        slot = r % self.La

        # Phase 0 — announce: snapshot this round's normalised loads.
        xn = np.divide(self.loads, self.speeds[:, None], out=self.A[slot])

        if na == 0:
            self.round_index = r + 1
            return

        # Phase 2 — compute, on views exactly d rounds stale.
        V = _rows(self._A_flat, self._view_rows[slot], self._view)
        s = np.minimum(self.d_arc, r + 1)
        self._stale_sum += int(s.sum())
        self._stale_count += na
        mx = int(s.max())
        if mx > self.max_staleness:
            self.max_staleness = mx

        F = _rows(xn, self.arc_src, self._sched)
        np.subtract(F, V, out=F)
        np.multiply(F, self.alpha_arc[:, None], out=F)  # the gradient G
        if self.scheme == "sos" and r > 0:
            sos_cols = (self.switch_rounds < 0) | (r < self.switch_rounds)
            if sos_cols.any():
                # F = (beta - 1) P + beta G on the SOS columns only; the
                # switched columns keep G whole (never blend with a beta
                # of 1.0 — 0.0 * P + G can flip signed zeros).
                cols = True if sos_cols.all() else sos_cols
                momentum = np.multiply(self.P, self.bm1, out=V)
                np.multiply(F, self.betas, out=F, where=cols)
                np.add(momentum, F, out=F, where=cols)

        gt = np.greater(F, 0.0, out=self._gt)
        eq = np.equal(F, 0.0, out=self._eq)
        lt = np.less(F, 0.0, out=self._lt)
        amt = self._round_positive(F)

        # Compute-side prev_flow writes: senders remember the rounded
        # amount (even a zero one), exact-zero schedules reset the slot,
        # negative schedules wait for the transfer (or its absence).
        np.copyto(self.P, amt, where=gt)
        np.copyto(self.P, 0.0, where=eq)

        # Engine-side per-edge flow record; the higher endpoint computes
        # later in node order, so its write wins.  ``amt`` is +0.0 where
        # F <= 0, so the lower endpoint writes ``amt`` wherever F >= 0.
        e_amt, e_mask = self._edge_amt, self._edge_mask
        lo, hi = self.arc_of_lo, self.arc_of_hi
        ge = np.logical_or(gt, eq, out=self._mask)
        np.copyto(self.E, _rows(amt, lo, e_amt), where=_rows(ge, lo, e_mask))
        np.negative(_rows(amt, hi, e_amt), out=e_amt)
        np.copyto(self.E, e_amt, where=_rows(gt, hi, e_mask))
        np.copyto(self.E, 0.0, where=_rows(eq, hi, e_mask))

        # Send phase: each sender deducts its round total in one subtract.
        np.subtract(self.loads, self._segment_sum(amt), out=self.loads)

        # Faults: dropped shipments leave the shipment ring for the
        # bounce ring (a 2d round trip back to the sender).
        self.in_flight_amount += amt.sum(axis=0)
        emitted = np.not_equal(amt, 0.0, out=self._mask)
        self.in_flight_messages += np.count_nonzero(emitted, axis=0)
        if self.fault_models is not None:
            dropped = self._fault_dropped(r, amt, emitted)
            if dropped.any():
                rows, cols = np.nonzero(dropped)
                self.bounce[
                    self.bounce_slot[r % self.bounce.shape[0], rows], rows, cols
                ] = amt[rows, cols]
                np.copyto(amt, 0.0, where=dropped)

        # Ship: each arc's tokens land d rounds out (d = 0 lands in this
        # round's slot, read below — after the computes, like the queue).
        # With every bucket at 0 the round's shipments are its deliveries.
        if self.D == 0:
            arr = amt
        else:
            self._S_flat[self._ship_rows[slot]] = amt
            arr = self.S[slot]

        # Phase 3 — deliveries due this round.
        if self.bounce is not None:
            bn = self.bounce[r % self.bounce.shape[0]]
            if bn.any():
                # Bounces first: they were pushed in earlier rounds, so
                # they carry earlier event seqs than this round's
                # deliveries (a same-edge reverse delivery overwrites the
                # bounce's zero below, matching the queue).
                back = np.not_equal(bn, 0.0, out=self._mask)
                np.add(self.loads, self._segment_sum(bn), out=self.loads)
                np.copyto(self.P, 0.0, where=back)
                rows, cols = np.nonzero(back)
                self.E[self.arc_edge[rows], cols] = 0.0
                counts = np.count_nonzero(back, axis=0)
                self.bounced_count += counts
                self.in_flight_messages -= counts
                self.in_flight_amount -= bn.sum(axis=0)
                bn.fill(0.0)

        if arr.any():
            # Delivery: arc (j -> i) credits i — which is the source of
            # the reverse arc — and i remembers the edge's flow as
            # negative-received.
            arr_rev = _rows(arr, self.rev, self._view)
            np.add(self.loads, self._segment_sum(arr_rev), out=self.loads)
            got = np.not_equal(arr_rev, 0.0, out=self._mask)
            counts = np.count_nonzero(got, axis=0)
            self.delivered_count += counts
            self.in_flight_messages -= counts
            self.in_flight_amount -= arr.sum(axis=0)
            np.copyto(self.P, np.negative(arr_rev, out=arr_rev), where=got)
            # Phase 4 — finish: zero remembered flows on quiet incoming
            # arcs.
            np.copyto(
                self.P, 0.0,
                where=np.logical_and(lt, np.logical_not(got, out=got), out=got),
            )
        else:
            # Phase 4 with nothing delivered: every incoming arc is quiet.
            np.copyto(self.P, 0.0, where=lt)
        if self.D:
            arr.fill(0.0)  # the ring slot is consumed
        self.round_index = r + 1

    # ------------------------------------------------------------------
    def total_load(self) -> np.ndarray:
        """Per-replica total including in-flight tokens (conserved)."""
        return self.loads.sum(axis=0) + self.in_flight_amount

    @property
    def mean_staleness(self) -> float:
        """Mean age, in rounds, of the neighbour views used by computes —
        every replica's event-engine counter under lockstep."""
        if self._stale_count == 0:
            return 0.0
        return self._stale_sum / self._stale_count


@dataclass
class _StalenessHandle:
    topo: Topology
    config: EngineConfig
    core: _StalenessCore
    tables: List[RecordTable]
    targets: List[Optional[np.ndarray]]
    loads_histories: List[Optional[List[np.ndarray]]]
    switch_rounds: List[Optional[int]]
    last_min_transient: np.ndarray
    last_traffic: np.ndarray


@dataclass
class _DynamicStalenessHandle:
    topo: Topology
    config: EngineConfig
    core: _StalenessCore
    models: List[ArrivalModel]
    rngs: List[np.random.Generator]
    tables: List[DynamicRecordTable]
    last_min_transient: np.ndarray
    last_traffic: np.ndarray
    pending: Tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.zeros(0), np.zeros(0), np.zeros(0))
    )
    injected: bool = False


@register_engine
class StalenessEngine(Engine):
    """Delay-bucketed vectorised replay of the bounded-staleness regime."""

    name = "staleness"
    #: The delayed-view ring planes assume a fixed topology (no churn) and
    #: the network nodes' default alphas and agreed-round switch; the
    #: batched-only record and kernel knobs stay with the batched engine.
    supports = frozenset(
        {"replica_params", "tile_size", "replica_keys", "latency_model",
         "max_skew", "latency_buckets", "faults"}
    )

    # ------------------------------------------------------------------
    def prepare(self, topo, config, initial_loads):
        check_supported(config, self.name, self.supports)
        loads = as_load_batch(initial_loads, topo.n)
        B = loads.shape[0]
        params = resolve_replica_params(config.replica_params, B)
        loads = apply_load_scales(loads, params)
        if topo.link_bandwidth is not None:
            raise ConfigurationError(
                "the staleness engine does not support stamped "
                "link_bandwidth: size-dependent delivery delays cannot be "
                "quantised into fixed round buckets (use the async engine)"
            )
        speeds = validate_speeds(
            np.asarray(config.speeds, dtype=np.float64)
            if config.speeds is not None
            else uniform_speeds(topo.n),
            topo.n,
        )

        latency = resolve_link_latency(topo, config)
        if latency is None:
            latency = topo.link_latency
        d_edge = quantize_link_latency(
            latency, config.latency_buckets, topo.m_edges
        )
        if config.max_skew is not None:
            # The gate clamp: a view can never be more than
            # max_skew + 1 rounds stale.
            np.minimum(d_edge, config.max_skew + 1, out=d_edge)

        switch_round: Optional[int] = None
        if config.switch is not None:
            switch_round = int(config.switch[1])

        betas = np.empty(B, dtype=np.float64)
        switch_plane = np.full(B, -1, dtype=np.int64)
        switch_list: List[Optional[int]] = []
        for b in range(B):
            betas[b] = replica_beta(config, params, b)
            sw = switch_round
            if params is not None and params.switch_rounds is not None:
                round_b = int(params.switch_rounds[b])
                sw = round_b if round_b >= 0 else None
            switch_list.append(sw)
            switch_plane[b] = -1 if sw is None else sw

        parsed = parse_faults_spec(config.faults)
        fault_models = None
        if parsed is not None and not isinstance(parsed, NoFaults):
            fault_models = [
                parsed.with_rng(
                    np.random.default_rng(
                        [config.seed + key, FAULT_STREAM_KEY]
                    )
                )
                for key in resolve_replica_keys(config, B)
            ]

        rngs = (
            resolve_rounding_rngs(config, B)
            if config.rounding in _STOCHASTIC_ROUNDINGS
            else None
        )
        planes = (
            int(np.asarray(topo.degrees).max())
            if topo.n and config.rounding == "randomized-excess"
            else 0
        )
        tile = resolve_tile_size(config, topo.n, B, 8, planes=planes)

        core = _StalenessCore(
            topo,
            speeds,
            # Always a fresh C-order copy: a (1, n) batch's transpose is
            # already contiguous, and the core mutates its loads in place.
            loads.T.copy(),
            scheme=config.scheme,
            betas=betas,
            switch_rounds=switch_plane,
            rounding=config.rounding,
            d_edge=d_edge,
            fault_models=fault_models,
            rngs=rngs,
            tile=tile,
        )

        if config.arrivals is not None:
            models = resolve_arrival_models(config.arrivals, B)
            if params is not None and params.arrival_scales is not None:
                models = [
                    ScaledArrivals(m, float(params.arrival_scales[b]))
                    for b, m in enumerate(models)
                ]
            return _DynamicStalenessHandle(
                topo=topo,
                config=config,
                core=core,
                models=models,
                rngs=resolve_arrival_rngs(config, B),
                tables=[
                    DynamicRecordTable(max(config.rounds, 1) + 1)
                    for _ in range(B)
                ],
                last_min_transient=np.empty(B, dtype=np.float64),
                last_traffic=np.empty(B, dtype=np.float64),
            )

        scheme0 = (
            "FirstOrderScheme" if config.scheme == "fos" else "SecondOrderScheme"
        )
        tables: List[RecordTable] = []
        targets_list: List[Optional[np.ndarray]] = []
        histories: List[Optional[List[np.ndarray]]] = []
        last_min = np.empty(B, dtype=np.float64)
        last_traffic = np.zeros(B, dtype=np.float64)
        handle = _StalenessHandle(
            topo=topo,
            config=config,
            core=core,
            tables=tables,
            targets=targets_list,
            loads_histories=histories,
            switch_rounds=switch_list,
            last_min_transient=last_min,
            last_traffic=last_traffic,
        )
        zero_flows = np.zeros(topo.m_edges, dtype=np.float64)
        for b in range(B):
            load_b = np.ascontiguousarray(core.loads[:, b])
            targets = (
                config.targets
                if config.targets is not None
                else target_loads(float(load_b.sum()), speeds)
            )
            tables.append(RecordTable(config.rounds // config.record_every + 2))
            targets_list.append(targets)
            histories.append([] if config.keep_loads else None)
            last_min[b] = float(load_b.min())
            self._record(handle, b, load_b, zero_flows, 0, scheme0)
        return handle

    # ------------------------------------------------------------------
    def _record(
        self,
        handle: _StalenessHandle,
        b: int,
        load: np.ndarray,
        flows: np.ndarray,
        round_index: int,
        scheme_name: str,
    ) -> None:
        record_round(
            handle.tables[b],
            handle.topo,
            LoadState(load=load, flows=flows, round_index=round_index),
            handle.targets[b],
            scheme_name,
            float(handle.last_min_transient[b]),
            float(handle.last_traffic[b]),
        )
        if handle.loads_histories[b] is not None:
            handle.loads_histories[b].append(load.copy())

    # ------------------------------------------------------------------
    def _inject(self, handle: _DynamicStalenessHandle):
        if handle.injected:
            raise SimulationError(
                f"arrivals already applied for round {handle.core.round_index}"
            )
        core = handle.core
        deltas = np.empty((handle.topo.n, core.B), dtype=np.float64)
        for b, (model, rng) in enumerate(zip(handle.models, handle.rngs)):
            deltas[:, b] = model.deltas(handle.topo, core.round_index, rng)
        handle.pending = core.inject(deltas)
        handle.injected = True
        return handle.pending

    def arrive(self, handle) -> ArrivalBatch:
        if not isinstance(handle, _DynamicStalenessHandle):
            raise ConfigurationError(
                "arrive() needs a dynamic run (config.arrivals was None)"
            )
        arrived, departed, clamped = self._inject(handle)
        return ArrivalBatch(
            round_index=handle.core.round_index,
            arrived=arrived,
            departed=departed,
            clamped=clamped,
        )

    # ------------------------------------------------------------------
    def _advance(self, handle, want_info: bool) -> None:
        """One round for every replica, then its records.

        ``want_info`` additionally computes the round's per-replica
        transient minima and traffic into the handle (needed on record
        rounds, the final round and protocol-level ``step()`` calls);
        the whole-batch loops skip them elsewhere, like the batched
        engine.  Dynamic records carry neither.
        """
        dynamic = isinstance(handle, _DynamicStalenessHandle)
        if dynamic and not handle.injected:
            self._inject(handle)
        core = handle.core
        topo = handle.topo
        before = core.loads.copy() if want_info else None
        core.step()
        r = core.round_index
        if want_info:
            for b in range(core.B):
                flows_b = np.ascontiguousarray(core.E[:, b])
                transients = transient_loads(
                    topo, np.ascontiguousarray(before[:, b]), flows_b
                )
                handle.last_min_transient[b] = float(transients.min())
                handle.last_traffic[b] = float(np.abs(flows_b).sum())
        if dynamic:
            arrived, departed, clamped = handle.pending
            for b in range(core.B):
                loads_b = np.ascontiguousarray(core.loads[:, b])
                handle.tables[b].append(
                    round_index=r,
                    total_load=float(loads_b.sum()),
                    arrived=float(arrived[b]),
                    departed=float(departed[b]),
                    clamped=float(clamped[b]),
                    max_minus_avg=max_minus_average(loads_b),
                    max_local_diff=max_local_difference(topo, loads_b),
                    potential_per_node=normalized_potential(loads_b),
                )
            handle.injected = False
        elif r % handle.config.record_every == 0:
            for b in range(core.B):
                self._record(
                    handle,
                    b,
                    np.ascontiguousarray(core.loads[:, b]),
                    np.ascontiguousarray(core.E[:, b]),
                    r,
                    scheme_name(
                        handle.config, handle.switch_rounds[b], r
                    ),
                )

    def step(self, handle) -> StepBatch:
        self._advance(handle, want_info=True)
        core = handle.core
        r = core.round_index
        if isinstance(handle, _DynamicStalenessHandle):
            switched = np.zeros(core.B, dtype=bool)
        else:
            switched = np.array(
                [
                    sw == r and handle.config.scheme == "sos"
                    for sw in handle.switch_rounds
                ],
                dtype=bool,
            )
        return StepBatch(
            round_index=r,
            loads=core.loads.T.copy(),
            flows=core.E.T.copy(),
            min_transient=handle.last_min_transient.copy(),
            traffic=handle.last_traffic.copy(),
            switched=switched,
        )

    # ------------------------------------------------------------------
    def metrics(self, handle) -> RecordBatch:
        core = handle.core
        if isinstance(handle, _DynamicStalenessHandle):
            return RecordBatch(
                prebuilt_dynamic=[
                    DynamicResult(
                        table=handle.tables[b],
                        final_state=LoadState(
                            load=np.ascontiguousarray(core.loads[:, b]),
                            flows=np.ascontiguousarray(core.E[:, b]),
                            round_index=core.round_index,
                        ),
                    )
                    for b in range(core.B)
                ]
            )
        results: List[SimulationResult] = []
        round_index = core.round_index
        for b in range(core.B):
            load_b = np.ascontiguousarray(core.loads[:, b])
            flows_b = np.ascontiguousarray(core.E[:, b])
            if handle.tables[b].column("round_index")[-1] != round_index:
                self._record(
                    handle,
                    b,
                    load_b,
                    flows_b,
                    round_index,
                    scheme_name(
                        handle.config, handle.switch_rounds[b], round_index
                    ),
                )
            switched = (
                handle.switch_rounds[b]
                if handle.config.scheme == "sos"
                and handle.switch_rounds[b] is not None
                and handle.switch_rounds[b] <= round_index
                else None
            )
            results.append(
                SimulationResult(
                    table=handle.tables[b],
                    final_state=LoadState(
                        load=load_b,
                        flows=flows_b,
                        round_index=round_index,
                    ),
                    switched_at=switched,
                    loads_history=handle.loads_histories[b],
                )
            )
        return RecordBatch(prebuilt=results)

    # ------------------------------------------------------------------
    # Whole-batch entry points for the sharded engine's column shards.
    def run_batch(self, topo, config, loads) -> RecordBatch:
        handle = self.prepare(topo, config, loads)
        for r in range(1, config.rounds + 1):
            self._advance(
                handle,
                want_info=r % config.record_every == 0 or r == config.rounds,
            )
        return self.metrics(handle)

    def run_dynamic_batch(self, topo, config, loads) -> RecordBatch:
        if config.arrivals is None:
            raise ConfigurationError(
                "run_dynamic() needs arrival models (set config.arrivals)"
            )
        handle = self.prepare(topo, config, loads)
        for _ in range(config.rounds):
            self._advance(handle, want_info=False)
        return self.metrics(handle)
