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
    parse_faults_spec,
    register_engine,
    reject_sharded_only,
    resolve_arrival_models,
    resolve_arrival_rngs,
    resolve_replica_params,
    resolve_rounding_rngs,
    resolve_tile_size,
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
        self.view_idx = (rows_a - self.d_arc[None, :]) % La
        self.ship_slot = (rows_a + self.d_arc[None, :]) % La
        rows_b = np.arange(Lb, dtype=np.int64)[:, None]
        self.bounce_slot = (rows_b + 2 * self.d_arc[None, :]) % Lb
        self._arc_ids = np.arange(na, dtype=np.int64)

        # -- state planes ----------------------------------------------
        #: Announce ring: A[r % La] is round r's normalised-load plane.
        self.A = np.zeros((La, n, B), dtype=np.float64)
        #: Construction-time bootstrap view (the setup Hello exchange):
        #: a node that has not yet heard a d-bucket neighbour computes on
        #: this, exactly like the event engine's view bootstrap.
        self.A_init = self.loads / self.speeds[:, None]
        #: Shipment ring: S[r % La, a] holds the tokens arriving on arc
        #: ``a`` at round r (written once per arc per round — slots are
        #: provably consumed and zeroed before reuse).
        self.S = np.zeros((La, na, B), dtype=np.float64)
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
        integral amounts every deterministic rounding produces)."""
        if self.n_arcs == 0:
            return np.zeros((self.n, x.shape[1]), dtype=np.float64)
        out = np.add.reduceat(x, self._red_idx, axis=0)
        if self._empty_rows is not None:
            out[self._empty_rows] = 0.0
        return out

    # ------------------------------------------------------------------
    def _round_positive(self, F: np.ndarray) -> np.ndarray:
        """Round the positive scheduled flows to shipped amounts.

        Returns an ``(n_arcs, B)`` plane that is zero wherever
        ``F <= 0`` (only the positive endpoint of an arc is a sender).
        The deterministic branches are bit-identical to the node-local
        ``math.floor``/``np.rint``/``math.ceil`` on positive floats.
        """
        pos = np.where(F > 0.0, F, 0.0)
        if self.rounding == "identity":
            return pos
        if self.rounding == "floor":
            return np.floor(pos)
        if self.rounding == "nearest":
            return np.rint(pos)
        if self.rounding == "ceil":
            return np.ceil(pos)
        if self.rounding == "unbiased-edge":
            base = np.floor(pos)
            frac = pos - base
            u = np.empty_like(pos)
            for b, rng in enumerate(self.rngs):
                u[:, b] = rng.random(self.n_arcs)
            return np.add(base, u < frac, out=base)
        return self._randomized_excess(pos)

    def _randomized_excess(self, pos: np.ndarray) -> np.ndarray:
        """The paper's excess-token rounding over the outgoing arcs.

        Floor every positive flow, pool each sender's fractional parts
        ``r``, dispatch ``ceil(r - tol)`` tokens, each landing on
        outgoing arc ``j`` with probability ``{Yhat_j} / c`` and staying
        home otherwise — the batched engine's padded-adjacency dispatch
        (:func:`~repro.engines.batched._excess_moves`) re-indexed onto
        arcs.  Tokens are enumerated replica-major, each replica's uniforms
        one contiguous draw in node-ascending order, so tiled and dense
        dispatches are bit-identical for any tile size.
        """
        base = np.floor(pos)
        if self.n_arcs == 0:
            return base
        B, na = self.B, self.n_arcs
        np.subtract(pos, base, out=self._frac_ext[:na])
        tok_cols = [
            (self.indptr[node] + arc_pos) * B + col
            for node, col, arc_pos in _excess_moves(
                self._frac_ext, self.slot_take, self.node_tiles,
                self._planes, self._budget, _FRAC_TOL,
                self.rngs, self.slot_ids, self.uniforms,
            )
        ]
        if tok_cols:
            extra = np.bincount(np.concatenate(tok_cols), minlength=na * B)
            np.add(base, extra.reshape(na, B), out=base)
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
        ``PH_DELIVER > PH_COMPUTE``), then finish."""
        r = self.round_index
        n, B, na = self.n, self.B, self.n_arcs
        slot = r % self.La

        # Phase 0 — announce: snapshot this round's normalised loads.
        xn = self.loads / self.speeds[:, None]
        self.A[slot] = xn

        if na == 0:
            self.round_index = r + 1
            return

        # Phase 2 — compute, on views exactly d rounds stale.
        V = self.A[self.view_idx[slot], self.arc_dst]
        if r < self.D:
            boot = self.d_arc > r
            if boot.any():
                V[boot] = self.A_init[self.arc_dst[boot]]
        s = np.minimum(self.d_arc, r + 1)
        self._stale_sum += int(s.sum())
        self._stale_count += na
        mx = int(s.max())
        if mx > self.max_staleness:
            self.max_staleness = mx

        G = self.alpha_arc[:, None] * (xn[self.arc_src] - V)
        if self.scheme == "sos" and r > 0:
            sos_cols = (self.switch_rounds < 0) | (r < self.switch_rounds)
            if sos_cols.all():
                F = self.bm1[None, :] * self.P + self.betas[None, :] * G
            elif sos_cols.any():
                # Select whole expressions per column (never blend with a
                # beta of 1.0 — 0.0 * P + G can flip signed zeros).
                F = np.where(
                    sos_cols[None, :],
                    self.bm1[None, :] * self.P + self.betas[None, :] * G,
                    G,
                )
            else:
                F = G
        else:
            F = G

        amt = self._round_positive(F)
        emitted = (F > 0.0) & (amt != 0.0)

        # Compute-side prev_flow writes: senders remember the rounded
        # amount (even a zero one), exact-zero schedules reset the slot,
        # negative schedules wait for the transfer (or its absence).
        np.copyto(self.P, amt, where=F > 0.0)
        np.copyto(self.P, 0.0, where=F == 0.0)

        # Engine-side per-edge flow record; the higher endpoint computes
        # later in node order, so its write wins.
        F_lo, F_hi = F[self.arc_of_lo], F[self.arc_of_hi]
        np.copyto(
            self.E,
            np.where(F_lo > 0.0, amt[self.arc_of_lo], 0.0),
            where=F_lo >= 0.0,
        )
        np.copyto(
            self.E,
            np.where(F_hi > 0.0, -amt[self.arc_of_hi], 0.0),
            where=F_hi >= 0.0,
        )

        # Send phase: each sender deducts its round total in one subtract.
        np.subtract(self.loads, self._segment_sum(amt), out=self.loads)

        # Faults: dropped shipments leave the shipment ring for the
        # bounce ring (a 2d round trip back to the sender).
        self.in_flight_amount += amt.sum(axis=0)
        self.in_flight_messages += emitted.sum(axis=0)
        ship = amt
        if self.fault_models is not None:
            dropped = self._fault_dropped(r, amt, emitted)
            if dropped.any():
                ship = np.where(dropped, 0.0, amt)
                rows, cols = np.nonzero(dropped)
                self.bounce[
                    self.bounce_slot[r % self.bounce.shape[0], rows], rows, cols
                ] = amt[rows, cols]

        # Ship: each arc's tokens land d rounds out (d = 0 lands in this
        # round's slot, read below — after the computes, like the queue).
        self.S[self.ship_slot[slot], self._arc_ids] = ship

        # Phase 3 — deliveries due this round.
        arr = self.S[slot].copy()
        self.S[slot] = 0.0

        if self.bounce is not None:
            slot_b = r % self.bounce.shape[0]
            bn = self.bounce[slot_b].copy()
            self.bounce[slot_b] = 0.0
            if bn.any():
                # Bounces first: they were pushed in earlier rounds, so
                # they carry earlier event seqs than this round's
                # deliveries (a same-edge reverse delivery overwrites the
                # bounce's zero below, matching the queue).
                np.add(self.loads, self._segment_sum(bn), out=self.loads)
                np.copyto(self.P, 0.0, where=bn != 0.0)
                rows, cols = np.nonzero(bn)
                self.E[self.arc_edge[rows], cols] = 0.0
                counts = (bn != 0.0).sum(axis=0)
                self.bounced_count += counts
                self.in_flight_messages -= counts
                self.in_flight_amount -= bn.sum(axis=0)

        arr_rev = arr[self.rev]
        has_arr = arr.any()
        if has_arr:
            # Delivery: arc (j -> i) credits i — which is the source of
            # the reverse arc — and i remembers the edge's flow as
            # negative-received.
            np.add(self.loads, self._segment_sum(arr_rev), out=self.loads)
            np.copyto(self.P, -arr_rev, where=arr_rev != 0.0)
            counts = (arr != 0.0).sum(axis=0)
            self.delivered_count += counts
            self.in_flight_messages -= counts
            self.in_flight_amount -= arr.sum(axis=0)

        # Phase 4 — finish: zero remembered flows on quiet incoming arcs.
        np.copyto(self.P, 0.0, where=(F < 0.0) & (arr_rev == 0.0))
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
    pending: Tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.zeros(0), np.zeros(0), np.zeros(0))
    )
    injected: bool = False


@register_engine
class StalenessEngine(Engine):
    """Delay-bucketed vectorised replay of the bounded-staleness regime."""

    name = "staleness"

    # ------------------------------------------------------------------
    def _reject(self, config: EngineConfig) -> None:
        offending = []
        if config.arrival_sampling != "stream":
            offending.append(f"arrival_sampling={config.arrival_sampling!r}")
        if config.record_mode != "table":
            offending.append(f"record_mode={config.record_mode!r}")
        if config.record_fields is not None:
            offending.append("record_fields")
        if config.fast_path in ("matmul", "spectral"):
            offending.append(f"fast_path={config.fast_path!r}")
        if config.kernel not in ("numpy", "auto"):
            offending.append(f"kernel={config.kernel!r}")
        if offending:
            raise ConfigurationError(
                "the staleness engine does not support "
                + ", ".join(offending)
                + " (batched/sharded engines only)"
            )
        reject_sharded_only(config, "staleness")
        if config.churn is not None:
            raise ConfigurationError(
                "the staleness engine does not support churn schedules: "
                "its delayed-view ring planes assume a fixed topology; use "
                "the network or async engine for churn"
            )
        if config.precision != "float64":
            raise ConfigurationError(
                "the staleness engine only supports precision='float64'"
            )

    @staticmethod
    def _replica_beta(config, params, b: int) -> float:
        if config.scheme != "sos":
            return 1.0
        if params is not None and params.betas is not None:
            return float(params.betas[b])
        return config.beta

    def _replica_keys(self, config: EngineConfig, B: int) -> List[int]:
        if config.replica_keys is None:
            return list(range(B))
        keys = [int(k) for k in config.replica_keys]
        if len(keys) != B:
            raise ConfigurationError(
                f"{len(keys)} replica_keys for {B} replicas"
            )
        return keys

    # ------------------------------------------------------------------
    def prepare(self, topo, config, initial_loads):
        config.validate()
        self._reject(config)
        loads = as_load_batch(initial_loads, topo.n)
        B = loads.shape[0]
        params = resolve_replica_params(config.replica_params, B)
        if params is not None and params.alpha_scales is not None:
            raise ConfigurationError(
                "the staleness engine does not support "
                "replica_params.alpha_scales (use the reference or batched "
                "engine for alpha-scale sweeps)"
            )
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
            if not (
                isinstance(config.switch, (tuple, list))
                and len(config.switch) == 2
                and config.switch[0] == "fixed"
            ):
                raise ConfigurationError(
                    "the staleness engine only supports the "
                    f"('fixed', round) switch spec, got {config.switch!r}"
                )
            switch_round = int(config.switch[1])

        betas = np.empty(B, dtype=np.float64)
        switch_plane = np.full(B, -1, dtype=np.int64)
        switch_list: List[Optional[int]] = []
        for b in range(B):
            betas[b] = self._replica_beta(config, params, b)
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
                for key in self._replica_keys(config, B)
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
    def _scheme_name(
        self,
        config: EngineConfig,
        switch_round: Optional[int],
        round_index: int,
    ) -> str:
        if config.scheme == "fos":
            return "FirstOrderScheme"
        if switch_round is not None and round_index > switch_round:
            return "FirstOrderScheme"
        return "SecondOrderScheme"

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
    def step(self, handle) -> StepBatch:
        if isinstance(handle, _DynamicStalenessHandle):
            return self._step_dynamic(handle)
        core = handle.core
        topo = handle.topo
        before = core.loads.copy()
        core.step()
        r = core.round_index
        record = r % handle.config.record_every == 0
        switched = np.empty(core.B, dtype=bool)
        for b in range(core.B):
            flows_b = np.ascontiguousarray(core.E[:, b])
            transients = transient_loads(
                topo, np.ascontiguousarray(before[:, b]), flows_b
            )
            handle.last_min_transient[b] = float(transients.min())
            handle.last_traffic[b] = float(np.abs(flows_b).sum())
            switched[b] = (
                handle.switch_rounds[b] == r and handle.config.scheme == "sos"
            )
            if record:
                self._record(
                    handle,
                    b,
                    np.ascontiguousarray(core.loads[:, b]),
                    flows_b,
                    r,
                    self._scheme_name(
                        handle.config, handle.switch_rounds[b], r
                    ),
                )
        return StepBatch(
            round_index=r,
            loads=core.loads.T.copy(),
            flows=core.E.T.copy(),
            min_transient=handle.last_min_transient.copy(),
            traffic=handle.last_traffic.copy(),
            switched=switched,
        )

    def _step_dynamic(self, handle: _DynamicStalenessHandle) -> StepBatch:
        if not handle.injected:
            self._inject(handle)
        core = handle.core
        topo = handle.topo
        before = core.loads.copy()
        core.step()
        r = core.round_index
        arrived, departed, clamped = handle.pending
        min_transient = np.empty(core.B, dtype=np.float64)
        traffic = np.empty(core.B, dtype=np.float64)
        for b in range(core.B):
            flows_b = np.ascontiguousarray(core.E[:, b])
            transients = transient_loads(
                topo, np.ascontiguousarray(before[:, b]), flows_b
            )
            min_transient[b] = float(transients.min())
            traffic[b] = float(np.abs(flows_b).sum())
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
        return StepBatch(
            round_index=r,
            loads=core.loads.T.copy(),
            flows=core.E.T.copy(),
            min_transient=min_transient,
            traffic=traffic,
            switched=np.zeros(core.B, dtype=bool),
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
                    self._scheme_name(
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
        for _ in range(config.rounds):
            self.step(handle)
        return self.metrics(handle)

    def run_dynamic_batch(self, topo, config, loads) -> RecordBatch:
        handle = self.prepare(topo, config, loads)
        for _ in range(config.rounds):
            self.arrive(handle)
            self.step(handle)
        return self.metrics(handle)
