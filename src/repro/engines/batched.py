"""Vectorised batched-replica engine: ``B`` independent runs per numpy step.

The engine keeps the whole ensemble as two matrices — loads ``(n, B)`` and
oriented edge flows ``(m, B)``, one replica per column — and advances every
replica simultaneously with CSR edge-wise kernels:

* the per-edge load difference ``x_u - x_v`` is one sparse matmul
  ``E @ load`` with ``E[k] = +1 at edge_u[k], -1 at edge_v[k]`` (bit-exact
  with the gather/subtract formulation because ``edge_u < edge_v`` keeps the
  CSR accumulation in the same order),
* applying flows is ``load += D @ act`` with ``D = +1 at (edge_v, k),
  -1 at (edge_u, k)``,
* per-node outgoing totals (negative-load tracking, Section V) come from the
  identity ``outgoing = (W @ |act| - D @ act) / 2`` with ``W`` the unsigned
  incidence operator — no extra scatter pass.

FOS, SOS, rounding, per-replica hybrid switching and the Section VI metrics
are all vectorised across the batch.  Hybrid switching uses the algebraic
fact that FOS is SOS with ``beta = 1`` (``(1-1)*y + 1*gradient`` is exactly
the gradient in IEEE arithmetic), so a per-replica beta row vector lets
individual replicas switch mid-run without masking.

For the deterministic roundings (floor / nearest / ceil) every elementwise
operation reproduces the reference engine's expression tree, so integral
traces agree *bit for bit* — the cross-engine equivalence suite enforces
this.  Randomised roundings draw from the same distributions (Observation 1
of the paper) but consume per-replica spawned streams
(:func:`~repro.engines.base.rounding_stream`, keyed by the replica's
``replica_keys`` identity, default its global batch index), so they match
the reference statistically, not stream for stream — while every replica's
trajectory is independent of the batch composition, which is what lets the
sharded engine split a batch across worker processes bit-identically.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..exceptions import ConfigurationError, SchemeError, SimulationError
from ..core.alphas import resolve_alphas
from ..core.churn import (
    apply_handoffs,
    masked_dynamic_values,
    masked_static_values,
    remap_flows,
    resolve_churn,
)
from ..core.records import (
    DYNAMIC_FLOAT_FIELDS,
    FLOAT_FIELDS,
    StreamingStats,
)
from ..core.rounding import make_rounding
from ..core.spectral import (
    fwht,
    hypercube_wht_eigenvalues,
    torus_rfft_eigenvalues,
)
from ..graphs.speeds import uniform_speeds, validate_speeds
from ..graphs.topology import Topology
from ..kernels import ROUNDING_CODES, ensure_warm, resolve_kernel

from .base import (
    ArrivalBatch,
    Engine,
    EngineConfig,
    RecordBatch,
    ResolvedReplicaParams,
    StepBatch,
    apply_load_scales,
    as_load_batch,
    register_engine,
    reject_async_only,
    reject_network_only,
    reject_sharded_only,
    resolve_arrival_models,
    resolve_arrival_rngs,
    resolve_record_fields,
    resolve_replica_params,
    resolve_rounding_rngs,
    resolve_tile_size,
    uniform_plane_value,
)

__all__ = ["BatchedVectorEngine"]

logger = logging.getLogger(__name__)

#: Fields whose per-round computation needs the full transient/traffic pass.
_INFO_FIELDS = ("min_transient", "round_traffic")


def _tiles(total: int, tile: int) -> List[tuple]:
    """Half-open ``[a, b)`` ranges covering ``0..total`` in ``tile`` steps."""
    return [(a, min(a + tile, total)) for a in range(0, max(total, 0), tile)]


class _UniformBuffer:
    """Persistent per-token uniforms: :meth:`draw` fills ``counts[b]``
    uniforms from ``rngs[b]`` into consecutive slices (replica 0 first)
    and returns the filled prefix, regrowing only when it is too small.
    Other replicas never touch stream ``b``, so its consumption does not
    depend on the batch composition."""

    def __init__(self, dtype):
        self.dtype = dtype
        self.buf = np.empty(0, dtype=dtype)

    def draw(self, rngs: List[np.random.Generator], counts: np.ndarray) -> np.ndarray:
        total = int(counts.sum())
        if self.buf.size < total:
            self.buf = np.empty(total + total // 4 + 64, dtype=self.dtype)
        off = 0
        for rng, cnt in zip(rngs, counts.tolist()):
            if cnt:
                rng.random(dtype=self.dtype, out=self.buf[off : off + cnt])
                off += cnt
        return self.buf[:total]


def _replica_major_slots(rows: int, B: int) -> np.ndarray:
    """``(B, rows)`` table of flat ``(rows, B)`` slot ids, node-ascending."""
    return np.arange(rows * B).reshape(rows, B).T.copy()


def _padded_adjacency(topo: Topology) -> tuple:
    """``(dmax, adj_edges, slot_dirs)``: node ``i``'s ``j``-th incident edge
    id (``m`` padding beyond its degree) and its direction, ``+1`` when
    ``i`` is the edge's u endpoint, ``-1`` when v, ``0`` on padding."""
    n, m = topo.n, topo.m_edges
    dmax = int(topo.degrees.max())
    adj_edges = np.full((n, dmax), m, dtype=np.int64)
    slot_dirs = np.zeros((n, dmax))
    idx_node = np.repeat(np.arange(n), topo.degrees)
    pos_in_row = np.arange(idx_node.size) - topo.adj_indptr[idx_node]
    adj_edges[idx_node, pos_in_row] = topo.adj_edge_ids
    slot_dirs[idx_node, pos_in_row] = np.where(
        idx_node < topo.adj_indices, 1.0, -1.0
    )
    return dmax, adj_edges, slot_dirs


def _slot_take(adj_edges: np.ndarray, slot_dirs: np.ndarray, m: int) -> list:
    """Outgoing-fraction gather indices per slot plane: a slot routes to
    the P block (positive fsg) when the node is the edge's u endpoint, to
    the N block (negative fsg) when it is v, and to the always-zero
    padding row otherwise."""
    return [
        np.where(
            slot_dirs[:, j] > 0,
            adj_edges[:, j],
            np.where(slot_dirs[:, j] < 0, adj_edges[:, j] + (m + 1), m),
        )
        for j in range(adj_edges.shape[1])
    ]


def _excess_moves(
    src: np.ndarray,
    slot_take,
    tiles: List[tuple],
    planes: np.ndarray,
    budget: np.ndarray,
    tol: float,
    rngs: List[np.random.Generator],
    slot_ids: np.ndarray,
    uniforms: _UniformBuffer,
):
    """Dispatch every sender's excess tokens, one node tile at a time.

    ``slot_take[j]`` maps each node's ``j``-th slot to its row of outgoing
    fractions in ``src``; the cumulative planes over the slots end in the
    surplus ``r``, and each sender emits ``c = ceil(r - tol)`` tokens.
    Tokens are enumerated replica-major (``slot_ids``): replica ``b``'s are
    contiguous and node-ascending, so they take one draw from ``rngs[b]``
    and consecutive tiles continue each stream — no sorting, and every
    tile split consumes the streams identically.  A uniform scaled to
    ``[0, c)`` finds its slot against the planes (a zero-width slot never
    strictly contains a draw; position ``dmax`` stays home).

    Yields ``(node, replica, position)`` of the tokens that move, per tile.
    """
    dmax = planes.shape[0]
    B = planes.shape[2]
    for a, b in tiles:
        k = b - a
        pl = planes[:, :k]
        np.take(src, slot_take[0][a:b], axis=0, out=pl[0])
        for j in range(1, dmax):
            np.take(src, slot_take[j][a:b], axis=0, out=pl[j])
            np.add(pl[j], pl[j - 1], out=pl[j])
        # exactly 0 (well, -0.0) for senders with no fractional surplus
        c = np.subtract(pl[dmax - 1], tol, out=budget[:k])
        np.ceil(c, out=c)
        counts = c.T.astype(np.int64, order="C")  # (B, k), replica-major
        tok_slot = np.repeat(slot_ids[:, :k], counts.ravel())
        if tok_slot.size == 0:
            continue
        target = uniforms.draw(rngs, counts.sum(axis=1))
        np.multiply(target, c.ravel()[tok_slot], out=target)
        pl_flat = pl.reshape(dmax, -1)
        pos = (pl_flat[0][tok_slot] <= target).view(np.uint8).astype(np.int64)
        for j in range(1, dmax):
            pos += pl_flat[j][tok_slot] <= target
        moved = np.flatnonzero(pos < dmax)
        if moved.size:
            tok = tok_slot[moved]
            node = tok // B
            yield node + a, tok - node * B, pos[moved]


def _tiled_mld(
    load: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_tiles: List[tuple],
    s1: np.ndarray,
    s2: np.ndarray,
) -> np.ndarray:
    """Max local load difference via per-edge-tile gathers.

    Bit-identical to ``max |E @ load|``: the CSR row for edge ``k`` computes
    ``(+1 * x_u) + (-1 * x_v)``, which IEEE arithmetic makes exactly the
    gathered subtraction, and max is tile-decomposable exactly.
    """
    mx = np.full(load.shape[1], -np.inf, dtype=load.dtype)
    for a, b in edge_tiles:
        k = b - a
        xu = np.take(load, edge_u[a:b], axis=0, out=s1[:k])
        xv = np.take(load, edge_v[a:b], axis=0, out=s2[:k])
        np.subtract(xu, xv, out=xu)
        np.abs(xu, out=xu)
        np.maximum(mx, xu.max(axis=0), out=mx)
    return mx


def _node_metrics(
    load: np.ndarray,
    targets: np.ndarray,
    fields,
    scratch: np.ndarray,
    node_tiles: Optional[List[tuple]],
) -> tuple:
    """Requested node-space record metrics plus the per-replica totals.

    ``node_tiles=None`` runs the dense whole-plane expressions (the exact
    op sequence the engine always used); otherwise the same reductions
    stream over node tiles with ``scratch`` bounded to ``(tile, B)``.
    Min/max reductions decompose over tiles exactly; sums accumulate per
    tile, which is exact whenever the summed values are integral (every
    discrete rounding) and accumulation-accurate for the continuous
    ``identity`` process.  Totals are always computed — they feed the
    conservation check — but stored only when requested.
    """
    n = load.shape[0]
    values: Dict[str, np.ndarray] = {}
    if node_tiles is None:
        dev = np.subtract(load, targets, out=scratch)
        if "max_minus_avg" in fields:
            values["max_minus_avg"] = dev.max(axis=0)
        if "min_minus_avg" in fields:
            values["min_minus_avg"] = dev.min(axis=0)
        if "potential_per_node" in fields:
            np.multiply(dev, dev, out=dev)
            values["potential_per_node"] = dev.sum(axis=0) / n
        if "min_load" in fields:
            values["min_load"] = load.min(axis=0)
        totals = load.sum(axis=0)
        if "total_load" in fields:
            values["total_load"] = totals
        return values, totals

    B = load.shape[1]
    dtype = load.dtype
    broadcast_targets = targets.shape[0] != n
    mx = np.full(B, -np.inf, dtype=dtype)
    mn = np.full(B, np.inf, dtype=dtype)
    pot = np.zeros(B, dtype=dtype)
    mload = np.full(B, np.inf, dtype=dtype)
    totals = np.zeros(B, dtype=dtype)
    want_dev = any(
        f in fields for f in ("max_minus_avg", "min_minus_avg", "potential_per_node")
    )
    for a, b in node_tiles:
        k = b - a
        tile_load = load[a:b]
        if want_dev:
            t = targets if broadcast_targets else targets[a:b]
            dev = np.subtract(tile_load, t, out=scratch[:k])
            if "max_minus_avg" in fields:
                np.maximum(mx, dev.max(axis=0), out=mx)
            if "min_minus_avg" in fields:
                np.minimum(mn, dev.min(axis=0), out=mn)
            if "potential_per_node" in fields:
                np.multiply(dev, dev, out=dev)
                pot += dev.sum(axis=0)
        if "min_load" in fields:
            np.minimum(mload, tile_load.min(axis=0), out=mload)
        totals += tile_load.sum(axis=0)
    if "max_minus_avg" in fields:
        values["max_minus_avg"] = mx
    if "min_minus_avg" in fields:
        values["min_minus_avg"] = mn
    if "potential_per_node" in fields:
        values["potential_per_node"] = pot / n
    if "min_load" in fields:
        values["min_load"] = mload
    if "total_load" in fields:
        values["total_load"] = totals
    return values, totals

_FRAC_TOL = 1e-9  # matches repro.core.rounding

try:  # pragma: no cover - exercised implicitly by every batched run
    from scipy.sparse import _sparsetools as _st

    def _csr_dot(
        matrix: sp.csr_matrix,
        x: np.ndarray,
        out: np.ndarray,
        accumulate: bool = False,
    ) -> np.ndarray:
        """``out [+]= matrix @ x`` without allocating the result."""
        if not accumulate:
            out.fill(0.0)
        _st.csr_matvecs(
            matrix.shape[0],
            matrix.shape[1],
            x.shape[1],
            matrix.indptr,
            matrix.indices,
            matrix.data,
            x.ravel(),
            out.ravel(),
        )
        return out

except Exception:  # pragma: no cover - scipy internals moved

    def _csr_dot(
        matrix: sp.csr_matrix,
        x: np.ndarray,
        out: np.ndarray,
        accumulate: bool = False,
    ) -> np.ndarray:
        if accumulate:
            out += matrix @ x
        else:
            out[...] = matrix @ x
        return out


def _assemble_diffusion(
    topo: Topology, alphas: np.ndarray, speeds: np.ndarray, dtype,
    with_identity: bool,
) -> sp.csr_matrix:
    """Shared CSR assembly of the diffusion operator family.

    Off-diagonal ``+alpha_uv/s_v`` per neighbour; diagonal
    ``with_identity - sum(alpha_k)/s_u`` over incident edges — ``1`` for
    the folded diffusion matrix ``M``, ``0`` for the increment operator
    ``K = M - I``.
    """
    n, m = topo.n, topo.m_edges
    eu, ev = topo.edge_u, topo.edge_v
    alpha_edge = np.asarray(alphas, dtype=np.float64)
    if alpha_edge.ndim == 0:
        alpha_edge = np.full(m, float(alpha_edge))
    incident = np.bincount(eu, weights=alpha_edge, minlength=n) + np.bincount(
        ev, weights=alpha_edge, minlength=n
    )
    diag = (1.0 if with_identity else 0.0) - incident / speeds
    rows = np.concatenate([eu, ev, np.arange(n)])
    cols = np.concatenate([ev, eu, np.arange(n)])
    data = np.concatenate([alpha_edge / speeds[ev], alpha_edge / speeds[eu], diag])
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sort_indices()
    return matrix.astype(dtype)


def _diffusion_matrix(
    topo: Topology, alphas: np.ndarray, speeds: np.ndarray, dtype
) -> sp.csr_matrix:
    """The folded diffusion matrix ``M = I + D A E S^{-1}`` as one CSR —
    the whole identity-rounding round ``x <- x + D @ (A E S^{-1} x)`` is
    a single ``(n, B)`` matmul."""
    return _assemble_diffusion(topo, alphas, speeds, dtype, with_identity=True)


def _gradient_matrix(
    topo: Topology, alphas: np.ndarray, speeds: np.ndarray, dtype
) -> sp.csr_matrix:
    """The balancing increment operator ``K = D A E S^{-1}`` as one CSR.

    ``K x`` is the per-round load *delta* of the continuous process
    (``M = I + K``), which is what lets per-replica alpha scales blend
    ``x + c_b * (K x)`` with a single shared matmul instead of one folded
    diffusion matrix per replica.
    """
    return _assemble_diffusion(topo, alphas, speeds, dtype, with_identity=False)


class _FastRecorder:
    """Record storage of a closed-form fast-path run.

    Owns the tile-aware metric reductions (no edge-space state exists on
    the fast path, so the local-difference metric gathers endpoint loads in
    bounded edge chunks), the table/summary storage, the conservation
    check, and the final :class:`RecordBatch`.
    """

    #: edge-gather chunk when the run is not node-tiled (bounds the mld
    #: scratch without affecting results — gathers tile exactly)
    EDGE_CHUNK = 1 << 16

    def __init__(self, topo, config, x0, speeds, dtype):
        n, B = x0.shape
        self.topo = topo
        self.config = config
        self.n_replicas = B
        self.dtype = dtype
        self.fields = resolve_record_fields(config.record_fields)
        self.tile = resolve_tile_size(config, n, B, np.dtype(dtype).itemsize)
        self.node_tiles = _tiles(n, self.tile) if self.tile else None
        totals = x0.sum(axis=0)
        speeds_col = speeds[:, None].astype(dtype)
        if config.targets is not None:
            self.targets = np.asarray(config.targets, dtype=dtype)[:, None]
        elif np.all(speeds == speeds[0]):
            self.targets = (
                (totals[None, :] * speeds_col[:1]) / speeds.sum()
            ).astype(dtype, copy=False)
        else:
            self.targets = (
                (totals[None, :] * speeds_col) / speeds.sum()
            ).astype(dtype, copy=False)
        self.totals0 = totals.copy()
        self.conserve_tol = 1e-6 if dtype == np.float64 else 1e-4
        scratch_rows = self.tile if self.tile else n
        self.scratch = np.empty((scratch_rows, B), dtype=dtype)
        if "max_local_diff" in self.fields and topo.m_edges:
            chunk = self.tile if self.tile else min(topo.m_edges, self.EDGE_CHUNK)
            self.edge_tiles = _tiles(topo.m_edges, chunk)
            self.es1 = np.empty((chunk, B), dtype=dtype)
            self.es2 = np.empty((chunk, B), dtype=dtype)
        self.scheme_code = 1 if config.scheme == "sos" else 0
        self.stats: Optional[StreamingStats] = None
        if config.record_mode == "summary":
            self.stats = StreamingStats(self.fields, B)
        else:
            capacity = config.rounds // config.record_every + 2
            self.rec_round = np.empty(capacity, dtype=np.int64)
            self.rec_cols: Dict[str, np.ndarray] = {}
            for name in FLOAT_FIELDS:
                col = np.empty((capacity, B))
                if name not in self.fields:
                    col.fill(np.nan)
                self.rec_cols[name] = col
        self.rec_count = 0
        self.loads_history: Optional[List[np.ndarray]] = (
            [] if config.keep_loads else None
        )

    def record(self, round_index: int, x: np.ndarray) -> None:
        values, totals = _node_metrics(
            x, self.targets, self.fields, self.scratch, self.node_tiles
        )
        if "max_local_diff" in self.fields:
            if self.topo.m_edges:
                values["max_local_diff"] = _tiled_mld(
                    x, self.topo.edge_u, self.topo.edge_v, self.edge_tiles,
                    self.es1, self.es2,
                )
            else:
                values["max_local_diff"] = np.zeros(self.n_replicas)
        if self.stats is not None:
            self.stats.update(round_index, values)
        else:
            i = self.rec_count
            for name, value in values.items():
                self.rec_cols[name][i] = value
            self.rec_round[i] = round_index
        self.rec_count += 1
        if self.loads_history is not None:
            self.loads_history.append(x.T.copy())
        drift = np.abs(totals - self.totals0)
        bad = drift > self.conserve_tol * np.maximum(1.0, np.abs(self.totals0))
        if bad.any():
            b = int(np.argmax(bad))
            raise SimulationError(
                f"load not conserved in replica {b} by round {round_index}: "
                f"{self.totals0[b]} -> {totals[b]}"
            )

    def batch(self, final_x: np.ndarray) -> RecordBatch:
        B = self.n_replicas
        final_flows = np.broadcast_to(
            np.zeros(self.topo.m_edges), (B, self.topo.m_edges)
        )
        common = dict(
            final_loads=final_x.T.astype(np.float64, copy=True),
            final_flows=final_flows,
            switched_at=np.full(B, -1, dtype=np.int64),
            loads_history=self.loads_history,
        )
        if self.stats is not None:
            return RecordBatch(
                summary_stats=self.stats,
                scheme_last=np.full(B, self.scheme_code, dtype=np.uint8),
                **common,
            )
        count = self.rec_count
        return RecordBatch(
            round_index=self.rec_round[:count].copy(),
            scheme_codes=np.full((count, B), self.scheme_code, dtype=np.uint8),
            columns={k: v[:count].copy() for k, v in self.rec_cols.items()},
            **common,
        )


@dataclass
class _SwitchState:
    """Vectorised hybrid-switch policy state."""

    kind: Optional[str] = None
    args: tuple = ()
    phi_hist: Optional[np.ndarray] = None  # (window, B) ring buffer
    phi_count: int = 0


class _BatchedHandle:
    """All state of one batched run: replicas, operators, scratch buffers."""

    def __init__(
        self,
        topo: Topology,
        config: EngineConfig,
        loads: np.ndarray,
        params: Optional[ResolvedReplicaParams] = None,
        churn_plan=None,
        op_cache: Optional[Dict] = None,
    ):
        n, m = topo.n, topo.m_edges
        # Pool workers hand in a per-topology operator cache so repeated
        # calls on the same graph skip the CSR/adjacency builds.  The
        # cached operators are never written to after construction; churn
        # runs rebuild operators mid-run and skip the cache entirely.
        if churn_plan is not None:
            op_cache = None
        B = loads.shape[0]
        self.topo = topo
        self.config = config
        self.params = params
        self.n_replicas = B
        self.round_index = 0
        dtype = np.float32 if config.precision == "float32" else np.float64
        self.dtype = dtype
        #: churn run state: the resolved plan, the live-node mask of the
        #: current topology segment, and the last round whose patch lookup
        #: already happened (patches apply before that round's arrivals).
        self.churn_plan = churn_plan
        if churn_plan is not None:
            self.churn_active = churn_plan.active0
            self.churn_active_idx = churn_plan.active0_idx
            self.churn_patched_through = 0
        #: fuzz tolerance for the excess-token machinery, precision-scaled
        self.frac_tol = _FRAC_TOL if dtype == np.float64 else 1e-5
        #: relative conservation tolerance (float32 accumulates more drift)
        self.conserve_tol = 1e-6 if dtype == np.float64 else 1e-4
        #: compiled kernel provider of the discrete hot loop (None = the
        #: numpy tier); warmed here so JIT/compile cost lands in prepare(),
        #: never inside a measured round.  Churn runs pin the numpy tier:
        #: the compiled providers bake the edge arrays in at warm time.
        if churn_plan is not None:
            if config.kernel == "auto" and resolve_kernel(config, m) is not None:
                logger.info(
                    "churn: compiled kernel tier cannot patch its edge "
                    "buffers mid-run; using the numpy tier"
                )
            self.kernel = None
        else:
            self.kernel = resolve_kernel(config, m)
        if self.kernel is not None:
            ensure_warm(self.kernel)
        #: static record columns actually computed (dynamic runs ignore this)
        self.fields = resolve_record_fields(config.record_fields)
        #: whether any record round needs the transient/traffic pass
        self.info_fields = any(f in self.fields for f in _INFO_FIELDS)
        #: node-tile width of the streaming kernels (None = dense scratch)
        excess_planes = (
            int(topo.degrees.max()) if config.rounding == "randomized-excess" and m
            else 0
        )
        self.tile = resolve_tile_size(
            config, n, B, np.dtype(dtype).itemsize, planes=excess_planes
        )
        self.node_tiles = _tiles(n, self.tile) if self.tile else []
        self.edge_tiles = _tiles(m, self.tile) if self.tile else []
        # Unconditional copy: for B=1 a transposed (n, 1) view is still
        # flagged contiguous, and the engine must never mutate caller data.
        self.load = np.asarray(loads.T, dtype=dtype).copy(order="C")  # (n, B)
        self.flows = np.zeros((m, B), dtype=dtype)

        # -- substrate -------------------------------------------------
        speeds = validate_speeds(
            config.speeds if config.speeds is not None else uniform_speeds(n), n
        )
        self.speeds_col = speeds[:, None].astype(dtype)
        self.uniform_speeds = bool(np.all(speeds == 1.0))
        alphas = resolve_alphas(config.alphas, topo, speeds)
        if m == 0 or np.all(alphas == alphas[0]):
            self.alphas = float(alphas[0]) if m else 1.0
        else:
            self.alphas = alphas[:, None].astype(dtype)
        # -- per-replica parameter planes --------------------------------
        alpha_scales = params.alpha_scales if params is not None else None
        betas = params.betas if params is not None else None
        switch_rounds = params.switch_rounds if params is not None else None
        if alpha_scales is not None and m:
            # Fold the per-replica scale into an alpha row/plane: the float64
            # product ``alpha_k * scale_b`` is exactly what the reference
            # engine's per-replica scheme computes, and multiplication
            # commutes bit for bit, so ``diff * (alpha * scale)`` matches
            # ``(alpha * scale) * diff`` replica for replica.
            if np.isscalar(self.alphas):
                self.alphas = (self.alphas * alpha_scales[None, :]).astype(dtype)
            else:
                self.alphas = (alphas[:, None] * alpha_scales[None, :]).astype(
                    dtype
                )
        self.scalar_beta = (
            config.switch is None
            and switch_rounds is None
            and (betas is None or bool(np.all(betas == betas[0])))
        )
        if betas is not None:
            self.beta_row = betas[None, :].astype(dtype).copy()
        else:
            self.beta_row = np.full(
                (1, B), config.beta if config.scheme == "sos" else 1.0,
                dtype=dtype,
            )
        self.sos_active = np.full(B, config.scheme == "sos")
        self.switched_at = np.full(B, -1, dtype=np.int64)
        self.last_switched = np.zeros(B, dtype=bool)

        # -- CSR operators ---------------------------------------------
        eu, ev = topo.edge_u, topo.edge_v
        csr_key = ("csr", np.dtype(dtype).char)
        cached_csr = op_cache.get(csr_key) if op_cache is not None else None
        if cached_csr is not None:
            self.E, self.D, self.W = cached_csr
        else:
            ar = np.arange(m)
            # E: per-edge difference, entries ordered (+1 @ eu, -1 @ ev).
            self.E = sp.csr_matrix(
                (
                    np.tile(np.array([1.0, -1.0], dtype=dtype), m),
                    np.column_stack([eu, ev]).ravel() if m else np.empty(0, np.int64),
                    2 * np.arange(m + 1),
                ),
                shape=(m, n),
            )
            inc_rows = np.concatenate([eu, ev])
            inc_cols = np.concatenate([ar, ar])
            self.D = sp.coo_matrix(
                (
                    np.concatenate([-np.ones(m), np.ones(m)]).astype(dtype),
                    (inc_rows, inc_cols),
                ),
                shape=(n, m),
            ).tocsr()
            self.W = sp.coo_matrix(
                (np.ones(2 * m, dtype=dtype), (inc_rows, inc_cols)), shape=(n, m)
            ).tocsr()
            if op_cache is not None:
                op_cache[csr_key] = (self.E, self.D, self.W)
        if self.kernel is not None:
            # Flat buffers of the compiled provider: edge endpoints, the
            # incidence CSR (captured before tiling drops self.D — the
            # compiled apply replays csr_matvecs' per-row accumulation
            # order), per-node speeds, and the dtype-pinned constants
            # [0, 1, frac_tol] so no float literal enters the kernels at a
            # foreign precision.
            self.kern_eu = np.ascontiguousarray(eu, dtype=np.int32)
            self.kern_ev = np.ascontiguousarray(ev, dtype=np.int32)
            self.inc_indptr = np.ascontiguousarray(self.D.indptr, dtype=np.int64)
            self.inc_edges = np.ascontiguousarray(self.D.indices, dtype=np.int32)
            self.inc_signs = np.ascontiguousarray(self.D.data)
            self.kern_speeds = (
                None if self.uniform_speeds
                else np.ascontiguousarray(self.speeds_col.ravel())
            )
            self.kern_consts = np.array([0.0, 1.0, self.frac_tol], dtype=dtype)
            self.kern_beta = np.ones(B, dtype=dtype)
            self.kern_bm1 = np.zeros(B, dtype=dtype)
            if np.isscalar(self.alphas):
                self.kern_alpha = (np.full(1, self.alphas, dtype=dtype), 0, 0)
            else:
                # alphas is (m, 1), (1, B) or (m, B); element strides mirror
                # the numpy broadcast: alpha[e, b] = flat[e * ar + b * ac].
                rows, cols = self.alphas.shape
                flat = np.ascontiguousarray(self.alphas, dtype=dtype).ravel()
                self.kern_alpha = (
                    flat, cols if rows > 1 else 0, 1 if cols > 1 else 0
                )
            # Unbiased-edge pre-draw plane, replica-major so each stream
            # fills one contiguous row (rng.random(out=...) — no strided
            # copy); the kernels index it as uni[b * m + e].
            self.kern_uni = (
                np.empty((B, m), dtype=dtype)
                if config.rounding == "unbiased-edge"
                else None
            )
        if self.tile:
            # Row blocks of the incidence operators: CSR row slicing keeps
            # each row's accumulation untouched, so the tiled apply/transient
            # loops reproduce the dense matvecs bit for bit.
            self.D_tiles = [self.D[a:b] for a, b in self.node_tiles]
            self.W_tiles = [self.W[a:b] for a, b in self.node_tiles]
            self.D = self.W = None  # the full operators are never used tiled
        # Fused gradient operators with the edge weights folded into the CSR
        # data — a float-reassociation shortcut, used only where bitwise
        # fidelity to the reference is not part of the contract (statistical
        # roundings, the continuous identity process, and float32 mode).
        self.fused_sched = m > 0 and alpha_scales is None and (
            dtype == np.float32
            or config.rounding in ("randomized-excess", "unbiased-edge", "identity")
        )
        if self.fused_sched:
            alpha_edge = (
                np.full(m, self.alphas)
                if np.isscalar(self.alphas)
                else np.asarray(alphas, dtype=np.float64)
            )
            beta_scale = float(self.beta_row[0, 0])

            def _scaled_e(scale):
                data = np.repeat(alpha_edge * scale, 2).astype(dtype)
                data[1::2] *= -1.0
                return sp.csr_matrix(
                    (data, self.E.indices.copy(), self.E.indptr.copy()),
                    shape=(m, n),
                )

            self.E_alpha = _scaled_e(1.0)
            self.E_alpha_beta = _scaled_e(beta_scale)

        # -- padded adjacency for the excess-token machinery ------------
        if config.rounding == "randomized-excess" and m:
            cached_adj = op_cache.get("adj") if op_cache is not None else None
            if cached_adj is not None:
                dmax, adj_edges, slot_dirs = cached_adj
            else:
                dmax, adj_edges, slot_dirs = _padded_adjacency(topo)
                if op_cache is not None:
                    op_cache["adj"] = (dmax, adj_edges, slot_dirs)
            self.dmax = dmax
            self.adj_edges_flat = adj_edges.ravel()
            self.uniforms = _UniformBuffer(dtype)
            if self.kernel is not None:
                # Compiled excess path: int8 slot signs plus the token-count
                # and uniform-offset buffers replace the numpy tier's P/N
                # blocks and cumulative planes — the dominant scratch
                # allocation of large-n discrete runs disappears entirely.
                self.kern_adj_edges = self.adj_edges_flat.astype(np.int32)
                self.kern_adj_signs = slot_dirs.ravel().astype(np.int8)
                self.kern_counts = np.empty((n, B), dtype=np.int64)
                self.kern_totals = np.empty(B, dtype=np.int64)
                self.kern_uoff = np.zeros(B + 1, dtype=np.int64)  # [0] stays 0
            else:
                self.slot_dirs_flat = slot_dirs.ravel().astype(dtype, copy=False)
                cached_take = (
                    op_cache.get("slot_take") if op_cache is not None else None
                )
                if cached_take is not None:
                    self.slot_take = cached_take
                else:
                    self.slot_take = _slot_take(adj_edges, slot_dirs, m)
                    if op_cache is not None:
                        op_cache["slot_take"] = self.slot_take
                # P/N blocks: rows [0, m) positive parts, row m zero padding,
                # rows [m+1, 2m+1) negative parts, row 2m+1 zero padding.
                self.pn = np.zeros((2 * (m + 1), B), dtype=dtype)
                # cumulative outgoing fractions per slot plane: (dmax, n, B)
                # dense, or lazily (dmax, tile, B) when the run is tiled —
                # the dominant scratch allocation of large-n discrete runs.
                plane_rows = self.tile if self.tile else n
                self.cum_planes = np.empty((dmax, plane_rows, B), dtype=dtype)
                self.slot_ids = _replica_major_slots(plane_rows, B)

        # -- targets ----------------------------------------------------
        if config.targets is not None:
            self.targets = np.asarray(config.targets, dtype=dtype)[:, None]
        elif self.uniform_speeds:
            # One shared row: with uniform speeds every node's target is the
            # replica average, and ``totals * s / sum(s)`` is bitwise the
            # same number for every node — no need for an (n, B) plane.
            totals = self.load.sum(axis=0)  # (B,)
            self.targets = (
                (totals[None, :] * self.speeds_col[:1]) / speeds.sum()
            ).astype(dtype, copy=False)
        else:
            totals = self.load.sum(axis=0)  # (B,)
            self.targets = (
                (totals[None, :] * self.speeds_col) / speeds.sum()
            ).astype(dtype, copy=False)
        self.totals0 = self.load.sum(axis=0)

        # -- switch policy ----------------------------------------------
        self.switch = _SwitchState()
        if config.switch is not None:
            kind, *args = config.switch
            self.switch = _SwitchState(kind=kind, args=tuple(args))
            if kind == "plateau":
                window = int(args[0]) if args else 50
                self.switch.phi_hist = np.zeros((window, B))
        elif switch_rounds is not None:
            # Per-replica fixed switch rounds: one column vector joining the
            # beta row — replica b compares its own round threshold (< 0
            # means "never"), exactly a per-column FixedRoundSwitch.
            self.switch = _SwitchState(kind="fixed-vec", args=(switch_rounds,))

        # -- record storage (static runs only: dynamic runs record into
        #    the dyn_* columns below and never touch these) ---------------
        self.rec_stats: Optional[StreamingStats] = None
        if config.arrivals is None:
            if config.record_mode == "summary":
                self.rec_stats = StreamingStats(self.fields, B)
            else:
                capacity = config.rounds // config.record_every + 2
                self.rec_round = np.empty(capacity, dtype=np.int64)
                self.rec_scheme = np.empty((capacity, B), dtype=np.uint8)
                self.rec_cols: Dict[str, np.ndarray] = {}
                for name in FLOAT_FIELDS:
                    col = np.empty((capacity, B))
                    if name not in self.fields:
                        col.fill(np.nan)  # excluded columns stay NaN
                    self.rec_cols[name] = col
        self.rec_count = 0
        self.last_recorded_round = -1
        self.loads_history: Optional[List[np.ndarray]] = (
            [] if config.keep_loads else None
        )

        # -- scratch buffers --------------------------------------------
        # Edge-space scratch is inherent state of the discrete process (the
        # flow history and per-edge actuals); node-space scratch is dense
        # (nb1..nb4) or a bounded (tile, B) bank in tiled mode.
        self.mb1 = np.empty((m, B), dtype=dtype)
        self.mb2 = np.empty((m, B), dtype=dtype)
        self.mb3 = np.empty((m, B), dtype=dtype)
        self.act = np.empty((m, B), dtype=dtype)
        if self.tile:
            self.ts1 = np.empty((self.tile, B), dtype=dtype)
            self.ts2 = np.empty((self.tile, B), dtype=dtype)
            self.ts3 = np.empty((self.tile, B), dtype=dtype)
            # Full-width node scratch only where a kernel is not tileable:
            # the speed-normalised gradient input and the plateau policy.
            need_nb1 = not self.uniform_speeds or (
                config.switch is not None and config.switch[0] == "plateau"
            )
            self.nb1 = np.empty((n, B), dtype=dtype) if need_nb1 else None
            self.nb2 = self.nb3 = self.nb4 = None
        else:
            self.nb1 = np.empty((n, B), dtype=dtype)
            self.nb2 = np.empty((n, B), dtype=dtype)
            self.nb3 = np.empty((n, B), dtype=dtype)
            self.nb4 = np.empty((n, B), dtype=dtype)
        # One spawned rounding stream per replica, keyed by the replica's
        # identity (config.replica_keys, default its global batch index) —
        # trajectories never depend on the batch composition.
        self.rngs = resolve_rounding_rngs(config, B)

        self.last_min_transient = (
            self.load[churn_plan.active0_idx].min(axis=0)
            if churn_plan is not None
            else self.load.min(axis=0)
        )
        self.last_traffic = np.zeros(B)
        self.last_mld: Optional[np.ndarray] = None

        # -- dynamic workload (per-round arrival hook) -------------------
        self.arrival_models = resolve_arrival_models(config.arrivals, B)
        self.dyn_stats: Optional[StreamingStats] = None
        #: per-replica arrival-rate scale row ((1, B), or None): multiplies
        #: the sampled delta plane before clamping — the same elementwise
        #: product the per-replica backends apply via ScaledArrivals.
        self.arrival_scale_row: Optional[np.ndarray] = None
        if params is not None and params.arrival_scales is not None:
            self.arrival_scale_row = params.arrival_scales[None, :].astype(dtype)
        if self.arrival_models is not None:
            if config.arrival_sampling == "batch":
                from ..core.dynamic import batch_arrival_stream

                if any(m_ is not self.arrival_models[0] for m_ in self.arrival_models):
                    raise ConfigurationError(
                        "arrival_sampling='batch' needs one shared arrival "
                        "model (per-replica model sequences sample per "
                        "replica by definition)"
                    )
                if config.arrival_seeds is not None:
                    raise ConfigurationError(
                        "arrival_seeds pin per-replica streams, which "
                        "arrival_sampling='batch' replaces with one shared "
                        "batch stream"
                    )
                self.arrival_rngs = None
                self.arrival_batch_rng = batch_arrival_stream(config.seed)
            else:
                self.arrival_rngs = resolve_arrival_rngs(config, B)
                self.arrival_batch_rng = None
            self.arrivals_applied = False
            self.last_arrival: Optional[ArrivalBatch] = None
            #: exact expected totals, advanced by every arrival application
            #: (token counts are integral, so float64 sums stay exact)
            self.expected_totals = self.load.sum(axis=0, dtype=np.float64)
            if config.record_mode == "summary":
                self.dyn_stats = StreamingStats(DYNAMIC_FLOAT_FIELDS, B)
            else:
                self.dyn_round = np.empty(config.rounds, dtype=np.int64)
                self.dyn_cols: Dict[str, np.ndarray] = {
                    name: np.empty((config.rounds, B))
                    for name in DYNAMIC_FLOAT_FIELDS
                }
            self.dyn_count = 0
            # arrival scratch: the sampled deltas stay a full (n, B) plane
            # (the model API fills whole columns); the clamping scratch is
            # the tile bank in tiled mode, dense planes otherwise.
            self.arr_deltas = np.empty((n, B), dtype=dtype)
            if not self.tile:
                self.arr_pos = np.empty((n, B), dtype=dtype)
                self.arr_want = np.empty((n, B), dtype=dtype)
                self.arr_actual = np.empty((n, B), dtype=dtype)


@register_engine
class BatchedVectorEngine(Engine):
    """All replicas at once through CSR edge-wise numpy kernels."""

    name = "batched"

    #: Optional per-topology operator cache shared across prepare() calls.
    #: Pool workers set this (an ordinary dict) on their engine instance so
    #: repeated calls on the same graph reuse the CSR operators instead of
    #: rebuilding them; ``None`` (the default) disables caching entirely.
    operator_cache: Optional[Dict] = None

    def prepare(self, topo, config, initial_loads) -> _BatchedHandle:
        config.validate()
        reject_sharded_only(config, "batched")
        reject_async_only(config, "batched")
        reject_network_only(config, "batched")
        if config.scheme == "sos" and not 0.0 < config.beta < 2.0:
            raise SchemeError(f"beta must be in (0, 2), got {config.beta}")
        make_rounding(config.rounding)  # validate the key early
        if config.fast_path in ("matmul", "spectral"):
            # The closed-form tiers live in the fused run() loop; a forced
            # fast path through the step-by-step protocol would silently run
            # edge-wise, so refuse it here (fast_path="auto" steps edge-wise
            # by design).
            raise ConfigurationError(
                f"fast_path={config.fast_path!r} runs through engine.run(); "
                "the prepare()/step() protocol is always edge-wise"
            )
        loads = as_load_batch(initial_loads, topo.n)
        params = resolve_replica_params(config.replica_params, loads.shape[0])
        loads = apply_load_scales(loads, params)
        plan = resolve_churn(topo, config)
        if plan is not None:
            if config.kernel not in ("auto", "numpy"):
                raise ConfigurationError(
                    f"kernel={config.kernel!r} does not support churn (the "
                    "compiled providers bake the edge arrays in at warm "
                    "time); use kernel='auto' or 'numpy'"
                )
            loads_univ = np.zeros((loads.shape[0], plan.n_univ))
            loads_univ[:, : topo.n] = loads
            h = _BatchedHandle(
                plan.topo0, config, loads_univ, None, churn_plan=plan
            )
        else:
            h = _BatchedHandle(
                topo, config, loads, params, op_cache=self.operator_cache
            )
        if h.arrival_models is None:
            self._record_current(h)
        return h

    # ==================================================================
    # topology churn
    # ==================================================================
    def _maybe_churn(self, h: _BatchedHandle) -> None:
        """Apply the pending topology patch for the upcoming round, once.

        Mirrors the reference engine exactly: handoffs first (still on the
        outgoing topology's node set), then the flow remap (new edges start
        with zero flow memory), then the operator rebuild against the new
        live topology.  Idempotent per round — ``arrive()`` and the
        advance loop may both call it.
        """
        plan = h.churn_plan
        if plan is None:
            return
        r = h.round_index + 1
        if h.churn_patched_through >= r:
            return
        h.churn_patched_through = r
        patch = plan.patch_at(r)
        if patch is None:
            return
        apply_handoffs(h.load, patch.handoffs)
        h.flows = remap_flows(h.flows, patch.edge_map)
        h.churn_active = patch.active
        h.churn_active_idx = patch.active_idx
        self._rebuild_churn_ops(h, patch.topo)

    def _rebuild_churn_ops(self, h: _BatchedHandle, topo: Topology) -> None:
        """Rebuild the edge-space operators and scratch for a new segment.

        Churn runs are pinned to the dense float64 numpy tier (no compiled
        kernel, no tiling, uniform speeds, no replica planes — enforced by
        ``EngineConfig.validate``), so only the topology-shaped state needs
        rebuilding; the node-space planes keep their fixed universe size.
        """
        config = h.config
        n, m = topo.n, topo.m_edges
        B = h.n_replicas
        dtype = h.dtype
        h.topo = topo
        speeds = uniform_speeds(n)
        alphas = resolve_alphas(config.alphas, topo, speeds)
        if m == 0 or np.all(alphas == alphas[0]):
            h.alphas = float(alphas[0]) if m else 1.0
        else:
            h.alphas = alphas[:, None].astype(dtype)
        eu, ev = topo.edge_u, topo.edge_v
        ar = np.arange(m)
        h.E = sp.csr_matrix(
            (
                np.tile(np.array([1.0, -1.0], dtype=dtype), m),
                np.column_stack([eu, ev]).ravel() if m else np.empty(0, np.int64),
                2 * np.arange(m + 1),
            ),
            shape=(m, n),
        )
        inc_rows = np.concatenate([eu, ev])
        inc_cols = np.concatenate([ar, ar])
        h.D = sp.coo_matrix(
            (
                np.concatenate([-np.ones(m), np.ones(m)]).astype(dtype),
                (inc_rows, inc_cols),
            ),
            shape=(n, m),
        ).tocsr()
        h.W = sp.coo_matrix(
            (np.ones(2 * m, dtype=dtype), (inc_rows, inc_cols)), shape=(n, m)
        ).tocsr()
        h.fused_sched = m > 0 and config.rounding in (
            "randomized-excess", "unbiased-edge", "identity"
        )
        if h.fused_sched:
            alpha_edge = (
                np.full(m, h.alphas)
                if np.isscalar(h.alphas)
                else np.asarray(alphas, dtype=np.float64)
            )
            beta_scale = float(h.beta_row[0, 0])

            def _scaled_e(scale):
                data = np.repeat(alpha_edge * scale, 2).astype(dtype)
                data[1::2] *= -1.0
                return sp.csr_matrix(
                    (data, h.E.indices.copy(), h.E.indptr.copy()),
                    shape=(m, n),
                )

            h.E_alpha = _scaled_e(1.0)
            h.E_alpha_beta = _scaled_e(beta_scale)
        if config.rounding == "randomized-excess" and m:
            dmax, adj_edges, slot_dirs = _padded_adjacency(topo)
            h.dmax = dmax
            h.adj_edges_flat = adj_edges.ravel()
            h.slot_dirs_flat = slot_dirs.ravel().astype(dtype, copy=False)
            h.slot_take = _slot_take(adj_edges, slot_dirs, m)
            h.pn = np.zeros((2 * (m + 1), B), dtype=dtype)
            h.cum_planes = np.empty((dmax, n, B), dtype=dtype)
            h.slot_ids = _replica_major_slots(n, B)
            h.uniforms = _UniformBuffer(dtype)
        h.mb1 = np.empty((m, B), dtype=dtype)
        h.mb2 = np.empty((m, B), dtype=dtype)
        h.mb3 = np.empty((m, B), dtype=dtype)
        h.act = np.empty((m, B), dtype=dtype)

    # ==================================================================
    # per-round kernel
    # ==================================================================
    def _advance(self, h: _BatchedHandle, want_info: bool) -> None:
        """One synchronous round for every replica.

        ``want_info`` additionally computes the round's per-replica transient
        minima and traffic (needed on record rounds, the final round, and
        protocol-level ``step()`` calls); the fused ensemble loop skips them
        elsewhere, exactly like the classic simulator discards unrecorded
        step info.
        """
        config = h.config
        self._maybe_churn(h)
        load, flows = h.load, h.flows

        # -- dynamic arrivals (auto-applied when the hook wasn't called) ---
        if h.arrival_models is not None and not h.arrivals_applied:
            self._apply_arrivals(h)

        # -- scheduled flows (Yhat) + rounding -----------------------------
        if h.kernel is not None:
            # Compiled tier: one fused pass does schedule + rounding without
            # materialising the intermediate (m, B) planes; bit-identical to
            # the numpy branches below (see _kernel_round).
            act = self._kernel_round(h)
        else:
            if h.uniform_speeds:
                norm = load
            else:
                norm = np.divide(load, h.speeds_col, out=h.nb1)
            if h.fused_sched and (h.round_index == 0 or h.scalar_beta):
                # Fused form: scale flows in place, then accumulate the
                # weighted gradient straight out of the CSR operator.
                # Bitwise this reorders the float products, which only
                # statistical roundings may do; round 0 uses the
                # plain-alpha operator (FOS opener).
                if h.round_index == 0:
                    _csr_dot(h.E_alpha, norm, flows, accumulate=True)
                else:
                    beta = float(h.beta_row[0, 0])
                    np.multiply(flows, beta - 1.0, out=flows)
                    _csr_dot(h.E_alpha_beta, norm, flows, accumulate=True)
                sched = flows
            else:
                diff = _csr_dot(h.E, norm, h.mb1)  # x_u/s_u - x_v/s_v per edge
                np.multiply(diff, h.alphas, out=diff)  # gradient
                if h.round_index == 0:
                    # Both schemes open with a plain FOS round.
                    sched = diff
                elif h.scalar_beta:
                    beta = float(h.beta_row[0, 0])
                    np.multiply(diff, beta, out=diff)
                    np.multiply(flows, beta - 1.0, out=flows)
                    np.add(flows, diff, out=flows)
                    sched = flows
                else:
                    np.multiply(diff, h.beta_row, out=diff)
                    np.multiply(flows, h.beta_row - 1.0, out=flows)
                    np.add(flows, diff, out=flows)
                    sched = flows

            # -- rounding --------------------------------------------------
            act = self._round_flows(h, sched)

        # -- step info (transients / traffic), then apply ------------------
        if want_info:
            if h.tile:
                absf = np.abs(act, out=h.mb2)
                h.last_traffic = absf.sum(axis=0)
                mins = np.full(h.n_replicas, np.inf, dtype=h.dtype)
                for (a, b), d_t, w_t in zip(h.node_tiles, h.D_tiles, h.W_tiles):
                    k = b - a
                    delta = _csr_dot(d_t, act, h.ts1[:k])
                    outgoing = _csr_dot(w_t, absf, h.ts2[:k])
                    np.subtract(outgoing, delta, out=outgoing)
                    np.multiply(outgoing, 0.5, out=outgoing)
                    np.subtract(load[a:b], outgoing, out=outgoing)  # transient
                    np.minimum(mins, outgoing.min(axis=0), out=mins)
                    np.add(load[a:b], delta, out=load[a:b])
                h.last_min_transient = mins
            else:
                delta = _csr_dot(h.D, act, h.nb2)
                absf = np.abs(act, out=h.mb2)
                outgoing = _csr_dot(h.W, absf, h.nb3)
                np.subtract(outgoing, delta, out=outgoing)
                np.multiply(outgoing, 0.5, out=outgoing)
                transient = np.subtract(load, outgoing, out=h.nb4)
                h.last_min_transient = (
                    transient[h.churn_active_idx].min(axis=0)
                    if h.churn_plan is not None
                    else transient.min(axis=0)
                )
                h.last_traffic = absf.sum(axis=0)
                np.add(load, delta, out=load)
        elif h.kernel is not None:
            # Compiled apply: the same per-row sequential accumulation as
            # csr_matvecs over D's CSR structure — bit-identical, without
            # scipy's per-call overhead.
            h.kernel.apply_flows(
                h.inc_indptr, h.inc_edges, h.inc_signs, act, load
            )
        elif h.tile:
            for (a, b), d_t in zip(h.node_tiles, h.D_tiles):
                _csr_dot(d_t, act, load[a:b], accumulate=True)
        else:
            _csr_dot(h.D, act, load, accumulate=True)
        h.round_index += 1
        if act is h.act:
            h.flows, h.act = h.act, h.flows
        # (identity rounding leaves act aliased to sched == flows: no swap)

        # -- record --------------------------------------------------------
        if h.arrival_models is not None:
            self._record_dynamic(h)
            h.arrivals_applied = False
        elif h.round_index % config.record_every == 0:
            self._record_current(h)

        # -- hybrid switch (checked after recording, like the simulator) ---
        if h.switch.kind is not None:
            self._check_switch(h)

    def _kernel_round(self, h: _BatchedHandle) -> np.ndarray:
        """One fused schedule + rounding pass through the compiled provider.

        Resolves the round's schedule mode and coefficient strides exactly
        like the numpy branches in :meth:`_advance` (fused-operator form,
        scalar/vector beta, the round-0 FOS opener), pre-draws any
        stochastic uniforms from the same per-replica streams in the same
        order, and hands flat buffers to the provider — bit-identical to
        the numpy tier by construction.  Reads ``h.flows`` without writing
        it; the actuals land in ``h.act`` and the caller's swap makes them
        the next round's flow state, exactly like the numpy path (whose
        in-place ``flows`` writes are discarded scratch after the swap).
        """
        kern = h.kernel
        B = h.n_replicas
        m = h.topo.m_edges
        rounding = ROUNDING_CODES[h.config.rounding]
        if h.fused_sched and (h.round_index == 0 or h.scalar_beta):
            # Fused-operator schedule: per-edge coefficients straight from
            # the interleaved E_alpha[_beta].data (+c at even slots), with
            # flows scaled by beta-1 (round 0: by 1 — the flows are +0.0,
            # matching the accumulate-into-zeros opener bit for bit).
            mode = 2
            if h.round_index == 0:
                alpha = h.E_alpha.data
                h.kern_bm1[0] = 1.0
            else:
                alpha = h.E_alpha_beta.data
                h.kern_bm1[0] = float(h.beta_row[0, 0]) - 1.0
            ar, ac, bs = 2, 0, 0
        else:
            alpha, ar, ac = h.kern_alpha
            if h.round_index == 0:
                mode, bs = 0, 0  # plain FOS opener: beta/bm1 unused
            elif h.scalar_beta:
                mode, bs = 1, 0
                beta = float(h.beta_row[0, 0])
                h.kern_beta[0] = beta
                h.kern_bm1[0] = beta - 1.0
            else:
                mode, bs = 1, 1
                np.copyto(h.kern_beta, h.beta_row[0])
                np.subtract(h.beta_row[0], 1.0, out=h.kern_bm1)
        uni = None
        fsg = None
        if rounding == 3:  # unbiased-edge: pre-draw the per-edge uniforms
            uni = h.kern_uni
            for b, rng in enumerate(h.rngs):
                rng.random(dtype=h.dtype, out=uni[b])
        elif rounding == 4:  # randomized-excess: fractional-part plane
            fsg = h.mb3
        kern.round_edges(
            h.kern_eu, h.kern_ev, h.load, h.kern_speeds, h.flows, h.act,
            fsg, uni, alpha, ar, ac, h.kern_beta, h.kern_bm1, bs,
            mode, rounding, h.kern_consts,
        )
        if rounding == 4:
            # Token budgets first, then exactly as many uniforms as there
            # are tokens, drawn replica-major / node-ascending from the
            # per-replica streams — the numpy tier's consumption order.
            kern.excess_counts(
                h.kern_adj_edges, h.kern_adj_signs, h.dmax, m, fsg,
                h.kern_counts, h.kern_totals, h.kern_consts,
            )
            np.cumsum(h.kern_totals, out=h.kern_uoff[1:])
            if h.kern_uoff[B]:
                # The numpy tier's replica-major draw (_excess_moves), so
                # both tiers consume the streams identically.
                uni_flat = h.uniforms.draw(h.rngs, h.kern_totals)
                kern.excess_dispatch(
                    h.kern_adj_edges, h.kern_adj_signs, h.dmax, m, fsg,
                    h.kern_counts, uni_flat, h.kern_uoff, h.act,
                    h.kern_consts,
                )
        return h.act

    def _round_flows(self, h: _BatchedHandle, sched: np.ndarray) -> np.ndarray:
        """Vectorised rounding of the scheduled flows; returns the actuals."""
        rounding = h.config.rounding
        act = h.act
        if rounding == "identity":
            # The actual flows *are* the scheduled ones; keep them as the
            # new flow state (round 0 schedules out of a scratch buffer).
            if sched is not h.flows:
                np.copyto(h.flows, sched)
            return h.flows
        if rounding == "floor":
            return np.trunc(sched, out=act)
        if rounding == "nearest":
            # rint is symmetric, so rint(x) == sign(x) * rint(|x|) bit for bit
            return np.rint(sched, out=act)
        if rounding == "ceil":
            absf = np.abs(sched, out=h.mb2)
            np.ceil(absf, out=absf)
            return np.copysign(absf, sched, out=act)
        if rounding == "unbiased-edge":
            absf = np.abs(sched, out=h.mb2)
            np.floor(absf, out=act)
            np.subtract(absf, act, out=absf)  # fractional parts
            m = sched.shape[0]
            u = h.mb3
            for b, rng in enumerate(h.rngs):  # one stream per replica
                u[:, b] = rng.random(m, dtype=h.dtype)
            up = u < absf
            np.add(act, up, out=act)
            return np.copysign(act, sched, out=act)
        if rounding == "randomized-excess":
            return self._randomized_excess(h, sched)
        raise ConfigurationError(f"unsupported rounding {rounding!r}")

    def _randomized_excess(self, h: _BatchedHandle, sched: np.ndarray) -> np.ndarray:
        """The paper's excess-token rounding, vectorised across the batch.

        Floor every flow, pool each sender's fractional parts ``r``, then
        dispatch ``ceil(r)`` excess tokens, each landing on outgoing edge
        ``j`` with probability ``{Yhat_j} / ceil(r)`` and staying home
        otherwise (Observation 1).  No per-round sorting: the signed
        fractional parts are routed through the topology's fixed padded
        adjacency into ``max_degree`` cumulative planes, and the tokens are
        enumerated replica-major so each replica's uniforms are one
        contiguous draw from its stream (:func:`_excess_moves`); ``c``
        uses the same tolerance as the reference rounding.

        The joint token-count distribution is the reference scheme's
        multinomial exactly; only the generator's consumption order differs.
        """
        act = h.act
        m = h.topo.m_edges
        if m == 0:
            return np.multiply(sched, 1.0, out=act)
        # Signed base and fractional parts in two passes:
        # trunc(x) == sign(x) * floor(|x|), and fsg = sched - trunc(sched).
        np.trunc(sched, out=act)
        fsg = np.subtract(sched, act, out=h.mb3)
        # Split into positive / negative outgoing-fraction blocks so a slot's
        # outgoing fraction is a single gather: P = max(fsg, 0), N = P - fsg.
        pn = h.pn
        p_block = pn[:m]
        np.maximum(fsg, 0.0, out=p_block)
        np.subtract(p_block, fsg, out=pn[m + 1 : 2 * m + 1])
        return self._excess_tokens(h, act)

    def _excess_tokens(self, h: _BatchedHandle, act: np.ndarray) -> np.ndarray:
        """Token dispatch over the cumulative outgoing-fraction planes, one
        node tile at a time (a dense run is the single tile ``(0, n)``), so
        the dominant ``(max_degree, n, B)`` scratch is bounded to
        ``(max_degree, tile, B)`` in tiled mode; every tile split
        dispatches bit-identically (:func:`_excess_moves`).
        """
        B = h.n_replicas
        planes = h.cum_planes
        tiles, scratch = (
            (h.node_tiles, h.ts1) if h.tile else ([(0, planes.shape[1])], h.nb3)
        )
        act_flat = act.reshape(-1)
        for node, col, pos in _excess_moves(
            h.pn, h.slot_take, tiles, planes, scratch, h.frac_tol,
            h.rngs, h.slot_ids, h.uniforms,
        ):
            flat_slot = node * h.dmax + pos
            # One +-1 per token onto integral actuals, in the engine dtype
            # like the compiled providers' scatter: exact (below 2**24 in
            # float32), so the add order cannot matter.
            np.add.at(
                act_flat,
                h.adj_edges_flat[flat_slot] * B + col,
                h.slot_dirs_flat[flat_slot],
            )
        return act

    # ------------------------------------------------------------------
    # dynamic workloads
    # ------------------------------------------------------------------
    def _apply_arrivals(self, h: _BatchedHandle) -> ArrivalBatch:
        """Sample and apply one round of per-replica workload deltas.

        Counts are drawn per replica from its own spawned stream (the price
        of bit-exactness with the reference engine and ``DynamicSimulator``);
        clamping and application are vectorised across the whole ``(n, B)``
        batch.  The elementwise expression tree mirrors
        ``DynamicSimulator.inject`` exactly, so B=1 float64 runs agree bit
        for bit for deterministic roundings.
        """
        if h.arrivals_applied:
            raise SimulationError(
                f"arrivals already applied for round {h.round_index}"
            )
        topo, t = h.topo, h.round_index
        deltas = h.arr_deltas
        if h.arrival_batch_rng is not None:
            # Batch-wide sampling: one vectorised draw for every replica from
            # the shared batch stream (the opt-out of stream-for-stream
            # cross-engine exactness; counts keep the exact per-replica
            # distribution).
            deltas[...] = h.arrival_models[0].batch_deltas(
                topo, t, h.arrival_batch_rng, h.n_replicas
            )
        else:
            for b, (model, rng) in enumerate(
                zip(h.arrival_models, h.arrival_rngs)
            ):
                deltas[:, b] = model.deltas(topo, t, rng)
        if h.arrival_scale_row is not None:
            # Per-replica arrival-rate scale, applied to the sampled plane
            # before clamping.  Sampling above consumed exactly the unscaled
            # streams, so scaled replicas stay stream-compatible with their
            # unscaled selves; the elementwise product matches the
            # per-replica backends' ScaledArrivals wrapper bit for bit.
            np.multiply(deltas, h.arrival_scale_row, out=deltas)
        if h.churn_plan is not None:
            # Dead and unborn nodes take no workload: zero their rows after
            # sampling, so the streams consume exactly the no-churn draws
            # (the reference engine masks the same way).
            deltas[~h.churn_active] = 0.0
        if not deltas.any():
            # Quiet round (e.g. a burst model between bursts): the RNG
            # streams were already consumed above, and applying all-zero
            # deltas is the identity, so skip the clamping passes.
            zeros = np.zeros(h.n_replicas)
            h.arrivals_applied = True
            h.last_arrival = ArrivalBatch(
                round_index=t, arrived=zeros, departed=zeros.copy(),
                clamped=zeros.copy(),
            )
            return h.last_arrival
        if h.tile:
            arrived = np.zeros(h.n_replicas)
            departed = np.zeros(h.n_replicas)
            clamped = np.zeros(h.n_replicas)
            for a, b in h.node_tiles:
                k = b - a
                d_t = deltas[a:b]
                pos = np.maximum(d_t, 0.0, out=h.ts1[:k])
                want = np.negative(d_t, out=h.ts2[:k])
                np.maximum(want, 0.0, out=want)
                relu_load = np.maximum(h.load[a:b], 0.0, out=h.ts3[:k])
                actual = np.minimum(want, relu_load, out=relu_load)
                np.add(h.load[a:b], pos, out=h.load[a:b])
                np.subtract(h.load[a:b], actual, out=h.load[a:b])
                arrived += pos.sum(axis=0, dtype=np.float64)
                departed += actual.sum(axis=0, dtype=np.float64)
                np.subtract(want, actual, out=want)
                clamped += want.sum(axis=0, dtype=np.float64)
        else:
            pos = np.maximum(deltas, 0.0, out=h.arr_pos)
            want = np.negative(deltas, out=h.arr_want)
            np.maximum(want, 0.0, out=want)
            # Consume at most the non-negative part of the current load
            # (reuse the deltas buffer — pos/want already extracted).
            relu_load = np.maximum(h.load, 0.0, out=deltas)
            actual = np.minimum(want, relu_load, out=h.arr_actual)
            np.add(h.load, pos, out=h.load)
            np.subtract(h.load, actual, out=h.load)
            arrived = pos.sum(axis=0, dtype=np.float64)
            departed = actual.sum(axis=0, dtype=np.float64)
            np.subtract(want, actual, out=want)
            clamped = want.sum(axis=0, dtype=np.float64)
        h.expected_totals += arrived
        h.expected_totals -= departed
        h.arrivals_applied = True
        h.last_arrival = ArrivalBatch(
            round_index=t, arrived=arrived, departed=departed, clamped=clamped
        )
        return h.last_arrival

    def _record_dynamic_churn(self, h: _BatchedHandle) -> None:
        """Churn variant: per-replica masked reductions over the live set.

        Loops over replicas so each column's metrics run through the exact
        masked expressions of :func:`~repro.core.churn.masked_dynamic_values`
        on a contiguous copy — the same operations, on the same memory
        layout, as the reference engine's per-replica loop, keeping the
        deterministic-rounding traces bit-identical.
        """
        arrival = h.last_arrival
        i = h.dyn_count
        B = h.n_replicas
        totals = np.empty(B)
        for b in range(B):
            col = np.ascontiguousarray(h.load[:, b])
            vals = masked_dynamic_values(h.topo, col, h.churn_active_idx)
            totals[b] = vals["total_load"]
            for name, value in vals.items():
                h.dyn_cols[name][i, b] = value
        h.dyn_cols["arrived"][i] = arrival.arrived
        h.dyn_cols["departed"][i] = arrival.departed
        h.dyn_cols["clamped"][i] = arrival.clamped
        h.dyn_round[i] = h.round_index
        h.dyn_count += 1
        drift = np.abs(totals - h.expected_totals)
        bad = drift > h.conserve_tol * np.maximum(1.0, np.abs(h.expected_totals))
        if bad.any():
            b = int(np.argmax(bad))
            raise SimulationError(
                f"load not conserved in replica {b} by round {h.round_index}: "
                f"expected {h.expected_totals[b]}, got {totals[b]}"
            )

    def _record_dynamic(self, h: _BatchedHandle) -> None:
        """Append this round's dynamic metrics (targets move with the total)."""
        if h.churn_plan is not None:
            self._record_dynamic_churn(h)
            return
        load = h.load
        arrival = h.last_arrival
        values: Dict[str, np.ndarray] = {
            "arrived": arrival.arrived,
            "departed": arrival.departed,
            "clamped": arrival.clamped,
        }
        if h.tile:
            B = h.n_replicas
            totals = np.zeros(B)
            maxs = np.full(B, -np.inf, dtype=h.dtype)
            for a, b in h.node_tiles:
                totals += load[a:b].sum(axis=0, dtype=np.float64)
                np.maximum(maxs, load[a:b].max(axis=0), out=maxs)
            mean = totals / h.topo.n
            mean_t = mean.astype(h.dtype, copy=False)
            pot = np.zeros(B)
            for a, b in h.node_tiles:
                k = b - a
                dev = np.subtract(load[a:b], mean_t, out=h.ts1[:k])
                np.multiply(dev, dev, out=dev)
                pot += dev.sum(axis=0, dtype=np.float64)
            values["max_minus_avg"] = maxs - mean
            values["potential_per_node"] = pot / h.topo.n
        else:
            totals = load.sum(axis=0, dtype=np.float64)
            mean = totals / h.topo.n
            values["max_minus_avg"] = load.max(axis=0) - mean
            dev = np.subtract(load, mean.astype(h.dtype, copy=False), out=h.nb1)
            np.multiply(dev, dev, out=dev)
            values["potential_per_node"] = (
                dev.sum(axis=0, dtype=np.float64) / h.topo.n
            )
        values["total_load"] = totals
        values["max_local_diff"] = self._mld(h)
        if h.dyn_stats is not None:
            h.dyn_stats.update(h.round_index, values)
        else:
            i = h.dyn_count
            for name, value in values.items():
                h.dyn_cols[name][i] = value
            h.dyn_round[i] = h.round_index
        h.dyn_count += 1
        drift = np.abs(totals - h.expected_totals)
        bad = drift > h.conserve_tol * np.maximum(1.0, np.abs(h.expected_totals))
        if bad.any():
            b = int(np.argmax(bad))
            raise SimulationError(
                f"load not conserved in replica {b} by round {h.round_index}: "
                f"expected {h.expected_totals[b]}, got {totals[b]}"
            )

    def arrive(self, h: _BatchedHandle) -> ArrivalBatch:
        if h.arrival_models is None:
            raise ConfigurationError(
                "arrive() needs a dynamic run (config.arrivals was None)"
            )
        self._maybe_churn(h)
        return self._apply_arrivals(h)

    # ------------------------------------------------------------------
    def _mld(self, h: _BatchedHandle) -> np.ndarray:
        """Per-replica max local load difference of the current loads."""
        if h.topo.m_edges == 0:
            return np.zeros(h.n_replicas)
        if h.tile:
            return _tiled_mld(
                h.load, h.topo.edge_u, h.topo.edge_v, h.edge_tiles,
                h.ts1, h.ts2,
            )
        ediff = _csr_dot(h.E, h.load, h.mb3)
        np.abs(ediff, out=ediff)
        return ediff.max(axis=0)

    def _record_current_churn(self, h: _BatchedHandle) -> None:
        """Churn variant of :meth:`_record_current`: masked, per replica.

        Churn runs reject ``record_mode='summary'`` and trimmed
        ``record_fields``, so this always fills every dense column.
        """
        i = h.rec_count
        totals = np.empty(h.n_replicas)
        for b in range(h.n_replicas):
            col = np.ascontiguousarray(h.load[:, b])
            vals = masked_static_values(h.topo, col, h.churn_active_idx)
            totals[b] = vals["total_load"]
            for name, value in vals.items():
                h.rec_cols[name][i, b] = value
        h.rec_cols["min_transient"][i] = h.last_min_transient
        h.rec_cols["round_traffic"][i] = h.last_traffic
        h.rec_round[i] = h.round_index
        h.rec_scheme[i] = h.sos_active
        h.rec_count += 1
        h.last_recorded_round = h.round_index
        if h.loads_history is not None:
            h.loads_history.append(h.load.T.copy())
        drift = np.abs(totals - h.totals0)
        bad = drift > h.conserve_tol * np.maximum(1.0, np.abs(h.totals0))
        if bad.any():
            b = int(np.argmax(bad))
            raise SimulationError(
                f"load not conserved in replica {b} by round {h.round_index}: "
                f"{h.totals0[b]} -> {totals[b]}"
            )

    def _record_current(self, h: _BatchedHandle) -> None:
        """Append the requested Section VI metrics of the current state."""
        if h.churn_plan is not None:
            self._record_current_churn(h)
            return
        load = h.load
        fields = h.fields
        scratch = h.ts1 if h.tile else h.nb1
        values, totals = _node_metrics(
            load, h.targets, fields, scratch, h.node_tiles if h.tile else None
        )
        if "min_transient" in fields:
            values["min_transient"] = h.last_min_transient
        if "round_traffic" in fields:
            values["round_traffic"] = h.last_traffic
        if "max_local_diff" in fields:
            h.last_mld = self._mld(h)
            values["max_local_diff"] = h.last_mld
        if h.rec_stats is not None:
            h.rec_stats.update(h.round_index, values)
        else:
            i = h.rec_count
            if i == h.rec_round.shape[0]:  # defensive; sized exactly in prepare
                h.rec_round = np.resize(h.rec_round, i * 2)
                h.rec_scheme = np.resize(h.rec_scheme, (i * 2, h.n_replicas))
                h.rec_cols = {
                    k: np.resize(v, (i * 2, h.n_replicas))
                    for k, v in h.rec_cols.items()
                }
            for name, value in values.items():
                h.rec_cols[name][i] = value
            h.rec_round[i] = h.round_index
            h.rec_scheme[i] = h.sos_active
        h.rec_count += 1
        h.last_recorded_round = h.round_index
        if h.loads_history is not None:
            h.loads_history.append(load.T.copy())
        drift = np.abs(totals - h.totals0)
        bad = drift > h.conserve_tol * np.maximum(1.0, np.abs(h.totals0))
        if bad.any():
            b = int(np.argmax(bad))
            raise SimulationError(
                f"load not conserved in replica {b} by round {h.round_index}: "
                f"{h.totals0[b]} -> {totals[b]}"
            )

    # ------------------------------------------------------------------
    def _check_switch(self, h: _BatchedHandle) -> None:
        """Vectorised hybrid SOS -> FOS policies (per replica)."""
        sw = h.switch
        t = h.round_index
        none = None
        if sw.kind == "fixed":
            newly = h.sos_active & (t >= int(sw.args[0]))
        elif sw.kind == "fixed-vec":
            # Per-replica fixed rounds (replica_params.switch_rounds):
            # column b fires at its own round; negative entries never do.
            rounds_vec = sw.args[0]
            newly = h.sos_active & (rounds_vec >= 0) & (t >= rounds_vec)
        elif sw.kind == "local-diff":
            threshold = float(sw.args[0]) if sw.args else 10.0
            min_rounds = int(sw.args[1]) if len(sw.args) > 1 else 1
            if t < min_rounds:
                newly = none
            else:
                fresh = (
                    h.last_recorded_round == t
                    and "max_local_diff" in h.fields
                )
                mld = h.last_mld if fresh else self._mld(h)
                newly = h.sos_active & (mld <= threshold)
        elif sw.kind == "plateau":
            window = int(sw.args[0]) if sw.args else 50
            min_drop = float(sw.args[1]) if len(sw.args) > 1 else 0.2
            min_rounds = int(sw.args[2]) if len(sw.args) > 2 else 10
            mean = h.load.mean(axis=0)
            dev = np.subtract(h.load, mean, out=h.nb1)
            np.multiply(dev, dev, out=dev)
            phi = dev.sum(axis=0)
            hist = sw.phi_hist
            hist[sw.phi_count % window] = phi
            sw.phi_count += 1
            if t < min_rounds or sw.phi_count < window:
                newly = none
            else:
                oldest = hist[sw.phi_count % window]
                plateaued = (oldest <= 0.0) | (phi > (1.0 - min_drop) * oldest)
                newly = h.sos_active & plateaued
        else:
            raise ConfigurationError(f"unknown switch kind {sw.kind!r}")
        if newly is none:
            h.last_switched = np.zeros(h.n_replicas, dtype=bool)
            return
        h.last_switched = newly
        if newly.any():
            h.beta_row[0, newly] = 1.0
            h.sos_active[newly] = False
            h.switched_at[newly] = t

    # ==================================================================
    # protocol surface
    # ==================================================================
    def step(self, h: _BatchedHandle) -> StepBatch:
        self._advance(h, want_info=True)
        return StepBatch(
            round_index=h.round_index,
            loads=h.load.T.copy(),
            flows=h.flows.T.copy(),
            min_transient=h.last_min_transient.copy(),
            traffic=h.last_traffic.copy(),
            switched=h.last_switched.copy(),
        )

    def metrics(self, h: _BatchedHandle) -> RecordBatch:
        if h.arrival_models is not None:
            if h.dyn_stats is not None:
                return RecordBatch(
                    dynamic_summary_stats=h.dyn_stats,
                    final_loads=h.load.T.copy(),
                    final_flows=h.flows.T.copy(),
                    switched_at=h.switched_at.copy(),
                )
            count = h.dyn_count
            return RecordBatch(
                dynamic_round_index=h.dyn_round[:count].copy(),
                dynamic_columns={
                    k: v[:count].copy() for k, v in h.dyn_cols.items()
                },
                final_loads=h.load.T.copy(),
                final_flows=h.flows.T.copy(),
                switched_at=h.switched_at.copy(),
            )
        if h.last_recorded_round != h.round_index:
            self._record_current(h)
        if h.rec_stats is not None:
            return RecordBatch(
                summary_stats=h.rec_stats,
                scheme_last=h.sos_active.astype(np.uint8),
                final_loads=h.load.T.copy(),
                final_flows=h.flows.T.copy(),
                switched_at=h.switched_at.copy(),
                loads_history=h.loads_history,
            )
        count = h.rec_count
        return RecordBatch(
            round_index=h.rec_round[:count].copy(),
            scheme_codes=h.rec_scheme[:count].copy(),
            columns={k: v[:count].copy() for k, v in h.rec_cols.items()},
            final_loads=h.load.T.copy(),
            final_flows=h.flows.T.copy(),
            switched_at=h.switched_at.copy(),
            loads_history=h.loads_history,
        )

    def run(self, topo, config, initial_loads):
        """Fused ensemble loop — :meth:`run_batch` sliced into per-replica
        :class:`~repro.core.simulator.SimulationResult` objects."""
        return self.run_batch(topo, config, initial_loads).results()

    def run_batch(self, topo, config, initial_loads) -> RecordBatch:
        """Fused ensemble loop returning the whole columnar record batch.

        Transient/traffic info is computed only where recorded *and*
        requested; dispatches to the closed-form continuous fast path when
        the config is eligible (see :meth:`_fast_path_mode`).  The sharded
        engine calls this per worker so shards stay columnar until the
        final merge; :meth:`run` is the per-replica wrapper.
        """
        if config.arrivals is not None:
            raise ConfigurationError(
                "config has arrival models; dynamic workloads run through "
                "run_dynamic()"
            )
        config.validate()
        # The guards run here as well as in prepare(): the closed-form
        # fast path never reaches prepare(), and silently ignoring an
        # async/fault knob there would lie about what ran.
        reject_async_only(config, "batched")
        reject_network_only(config, "batched")
        if config.scheme == "sos" and not 0.0 < config.beta < 2.0:
            # prepare() enforces this for the edge-wise path; the fast path
            # never reaches prepare(), and a beta outside (0, 2) makes the
            # recurrence divergent rather than merely wrong.
            raise SchemeError(f"beta must be in (0, 2), got {config.beta}")
        if config.kernel not in ("numpy", "auto"):
            # A forced kernel provider must be resolvable (and discrete)
            # even when the closed-form fast path would bypass the
            # edge-wise loop entirely — silently ignoring it would lie
            # about what ran.
            resolve_kernel(config, topo.m_edges)
        loads = as_load_batch(initial_loads, topo.n)
        params = resolve_replica_params(config.replica_params, loads.shape[0])
        mode = self._fast_path_mode(topo, config, params)
        if mode is not None:
            return self._run_fast(topo, config, loads, mode, params)
        h = self.prepare(topo, config, initial_loads)
        record_every = config.record_every
        for r in range(1, config.rounds + 1):
            record = r % record_every == 0 or r == config.rounds
            self._advance(h, want_info=record and h.info_fields)
        return self.metrics(h)

    # ==================================================================
    # closed-form continuous fast path
    # ==================================================================
    def _fast_path_mode(
        self, topo, config, params: Optional[ResolvedReplicaParams] = None
    ) -> Optional[str]:
        """``None`` (edge-wise), ``"matmul"`` or ``"spectral"``.

        Eligibility: ``identity`` rounding, no switch policy (global or
        per-replica), no arrivals, and ``record_fields`` excluding the
        transient/traffic columns — those are the only quantities whose
        definition needs edge space.  ``"auto"`` prefers the closed-form
        spectral kernel on graphs advertising one (full-wrap tori via
        ``grid_shape``, hypercubes via ``cube_dim`` — uniform speeds and
        alphas, and per-replica betas/alpha scales only when uniform, since
        the mode recurrence is replica-independent) and the
        one-matmul-per-round CSR kernel otherwise (which *does* take
        per-replica betas, alpha scales and load scales); forcing a tier
        raises when the run is not eligible for it.
        """
        if config.fast_path == "never":
            return None
        forced = config.fast_path in ("matmul", "spectral")
        fields = resolve_record_fields(config.record_fields)
        blockers = []
        if config.rounding != "identity":
            blockers.append(f"rounding {config.rounding!r} (needs 'identity')")
        if config.switch is not None:
            blockers.append("a hybrid switch policy")
        if params is not None and params.switch_rounds is not None:
            blockers.append("per-replica switch rounds")
        if any(f in fields for f in _INFO_FIELDS):
            blockers.append(
                "record_fields requesting min_transient/round_traffic"
            )
        if config.churn is not None:
            # The closed-form tiers assume a frozen operator (the spectral
            # kernel additionally a frozen structured topology); churn
            # invalidates both on the first mutation, so the run falls back
            # to the edge-wise loop — once, with a log, never mid-run.
            if not forced and not blockers:
                logger.info(
                    "churn: topology mutates mid-run, invalidating the "
                    "closed-form fast path%s; falling back to the "
                    "edge-wise loop",
                    ""
                    if self._spectral_blocker(topo, config, params)
                    else " (spectral hints included)",
                )
            blockers.append("a churn schedule (the topology mutates mid-run)")
        if blockers:
            if forced:
                raise ConfigurationError(
                    f"fast_path={config.fast_path!r} is blocked by "
                    + " and ".join(blockers)
                )
            return None
        spectral_reason = self._spectral_blocker(topo, config, params)
        if config.fast_path == "spectral":
            if spectral_reason:
                raise ConfigurationError(
                    f"fast_path='spectral' unavailable: {spectral_reason}"
                )
            return "spectral"
        if config.fast_path == "matmul":
            return "matmul"
        return "matmul" if spectral_reason else "spectral"

    def _spectral_blocker(
        self, topo, config, params: Optional[ResolvedReplicaParams] = None
    ) -> Optional[str]:
        """Why the spectral kernel cannot run (None when it can)."""
        if topo.grid_shape is None and topo.cube_dim is None:
            return (
                "the topology advertises no torus grid_shape (or hypercube "
                "cube_dim)"
            )
        speeds = (
            config.speeds if config.speeds is not None else uniform_speeds(topo.n)
        )
        speeds = validate_speeds(speeds, topo.n)
        if not np.all(speeds == speeds[0]):
            return "node speeds are heterogeneous"
        alphas = resolve_alphas(config.alphas, topo, speeds)
        if alphas.size and not np.all(alphas == alphas[0]):
            return "edge alphas are heterogeneous"
        if params is not None:
            # The mode recurrence is one scalar sequence per eigenvalue,
            # independent of the replica count — a replica-varying beta or
            # alpha scale would need one recurrence per replica, which is
            # the matmul tier's job.
            if uniform_plane_value(params.betas) is None and params.betas is not None:
                return "per-replica betas vary across the batch"
            if (
                params.alpha_scales is not None
                and uniform_plane_value(params.alpha_scales) is None
            ):
                return "per-replica alpha scales vary across the batch"
        return None

    def _run_fast(
        self,
        topo,
        config,
        loads,
        mode: str,
        params: Optional[ResolvedReplicaParams] = None,
    ) -> RecordBatch:
        """Advance the continuous (identity-rounding) process in closed form.

        ``"matmul"``: the SOS recurrence ``x(t+1) = beta M x(t) +
        (1-beta) x(t-1)`` — algebraically identical to the edge-wise update
        with identity rounding — advanced with a single ``(n, B)`` CSR
        matmul per round, bypassing edge space entirely.  With a uniform
        batch the matmul hits the folded diffusion matrix
        ``M = I + D A E S^{-1}``; per-replica betas/alpha scales instead
        share one increment operator ``K = M - I`` and blend
        ``beta_b (x + c_b K x) + (1 - beta_b) x(t-1)`` per column.

        ``"spectral"``: the same recurrence per *eigenmode* of a structured
        graph — the ``rfftn`` Fourier basis of a full-wrap torus, or the
        Walsh basis of a hypercube (one FWHT of the initial loads): a
        scalar three-term recurrence on the ``O(n)`` mode multipliers per
        round (independent of the replica count), and one inverse
        transform per record round to materialise node space.

        All tiers agree with the edge-wise identity path to float
        accumulation accuracy; records carry NaN for the excluded
        transient/traffic columns and zero flows in the final state (the
        continuous scheduled flows are never materialised).
        """
        loads = apply_load_scales(loads, params)
        n = topo.n
        B = loads.shape[0]
        dtype = np.float32 if config.precision == "float32" else np.float64
        x = np.asarray(loads.T, dtype=dtype).copy(order="C")
        speeds = validate_speeds(
            config.speeds if config.speeds is not None else uniform_speeds(n), n
        )
        alphas = resolve_alphas(config.alphas, topo, speeds)
        beta = float(config.beta) if config.scheme == "sos" else 1.0
        # Per-replica planes: uniform planes fold into the scalar kernels,
        # varying ones stay as row vectors for the generalized matmul tier
        # (the spectral blocker already rejected them there).
        beta_vec = params.betas if params is not None else None
        scale_vec = params.alpha_scales if params is not None else None
        u_beta = uniform_plane_value(beta_vec)
        if u_beta is not None:
            beta, beta_vec = u_beta, None
        u_scale = uniform_plane_value(scale_vec)
        if u_scale is not None:
            alphas, scale_vec = alphas * u_scale, None
        recorder = _FastRecorder(topo, config, x, speeds, dtype)
        recorder.record(0, x)
        rounds = config.rounds
        record_every = config.record_every
        if rounds == 0:
            return recorder.batch(x)

        if mode == "spectral":
            alpha_eff = (float(alphas[0]) if alphas.size else 0.0) / float(
                speeds[0]
            )
            if topo.grid_shape is not None:
                shape = topo.grid_shape
                axes = tuple(range(len(shape)))
                mu = torus_rfft_eigenvalues(shape, alpha_eff)
                coeff0 = np.fft.rfftn(x.reshape(*shape, B), axes=axes)

                def materialize(g):
                    coeff = coeff0 * g[..., None]
                    out = np.fft.irfftn(coeff, s=shape, axes=axes)
                    return np.ascontiguousarray(out.reshape(n, B), dtype=dtype)

            else:
                # Hypercube: the Walsh characters diagonalise the cube's
                # Laplacian; mode s has eigenvalue 1 - 2 alpha popcount(s).
                # n = 2**k, so the 1/n of the inverse FWHT is an exact
                # power-of-two scale.
                mu = hypercube_wht_eigenvalues(topo.cube_dim, alpha_eff)
                coeff0 = fwht(x)
                inv_n = 1.0 / n

                def materialize(g):
                    out = fwht(coeff0 * g[:, None])
                    out *= inv_n
                    return np.ascontiguousarray(out, dtype=dtype)

            if dtype == np.float32:
                mu = mu.astype(np.float32)
            g_prev = np.ones_like(mu)
            g_cur = mu.copy()
            g_next = np.empty_like(mu)
            one_minus_beta = 1.0 - beta

            x_t = x
            for r in range(1, rounds + 1):
                if r >= 2:
                    np.multiply(g_prev, one_minus_beta, out=g_prev)
                    np.multiply(mu, g_cur, out=g_next)
                    np.multiply(g_next, beta, out=g_next)
                    np.add(g_next, g_prev, out=g_next)
                    g_prev, g_cur, g_next = g_cur, g_next, g_prev
                if r % record_every == 0 or r == rounds:
                    x_t = materialize(g_cur)
                    recorder.record(r, x_t)
            return recorder.batch(x_t)

        if beta_vec is not None or scale_vec is not None:
            return self._run_fast_matmul_planes(
                topo, config, recorder, x, speeds, alphas, beta, beta_vec,
                scale_vec, dtype,
            )

        m1 = _diffusion_matrix(topo, alphas, speeds, dtype)
        mb = sp.csr_matrix(
            ((m1.data * dtype(beta)), m1.indices, m1.indptr), shape=m1.shape
        )
        cur = np.empty_like(x)
        scratch = np.empty_like(x)
        _csr_dot(m1, x, cur)  # round 1: both schemes open with FOS
        prev = x
        if 1 % record_every == 0 or rounds == 1:
            recorder.record(1, cur)
        one_minus_beta = dtype(1.0 - beta)
        for r in range(2, rounds + 1):
            if beta == 1.0:
                _csr_dot(m1, cur, scratch)
            else:
                np.multiply(prev, one_minus_beta, out=scratch)
                _csr_dot(mb, cur, scratch, accumulate=True)
            prev, cur, scratch = cur, scratch, prev
            if r % record_every == 0 or r == rounds:
                recorder.record(r, cur)
        return recorder.batch(cur)

    def _run_fast_matmul_planes(
        self, topo, config, recorder, x, speeds, alphas, beta, beta_vec,
        scale_vec, dtype,
    ) -> RecordBatch:
        """The matmul tier with per-replica beta/alpha-scale row vectors.

        One shared CSR matmul against the increment operator ``K`` per
        round; the per-replica parameters enter as elementwise row
        blends: ``M_b x = x + c_b (K x)`` and
        ``x(t+1) = beta_b (M_b x(t)) + (1 - beta_b) x(t-1)``.
        """
        B = x.shape[1]
        rounds = config.rounds
        record_every = config.record_every
        kmat = _gradient_matrix(topo, alphas, speeds, dtype)
        c_row = (
            scale_vec[None, :].astype(dtype) if scale_vec is not None else None
        )
        if beta_vec is not None:
            beta_row = beta_vec[None, :].astype(dtype)
        else:
            beta_row = np.full((1, B), beta, dtype=dtype)
        omb_row = (1.0 - beta_row).astype(dtype)

        def apply_m(src, out):
            _csr_dot(kmat, src, out)
            if c_row is not None:
                np.multiply(out, c_row, out=out)
            np.add(out, src, out=out)

        cur = np.empty_like(x)
        scratch = np.empty_like(x)
        apply_m(x, cur)  # round 1: both schemes open with FOS
        prev = x
        if 1 % record_every == 0 or rounds == 1:
            recorder.record(1, cur)
        for r in range(2, rounds + 1):
            apply_m(cur, scratch)
            np.multiply(scratch, beta_row, out=scratch)
            np.multiply(prev, omb_row, out=prev)  # prev is rotated out below
            np.add(scratch, prev, out=scratch)
            prev, cur, scratch = cur, scratch, prev
            if r % record_every == 0 or r == rounds:
                recorder.record(r, cur)
        return recorder.batch(cur)

    def run_dynamic(self, topo, config, initial_loads):
        """Fused dynamic ensemble loop — :meth:`run_dynamic_batch` sliced
        into per-replica :class:`~repro.core.dynamic.DynamicResult` objects.
        """
        return self.run_dynamic_batch(topo, config, initial_loads).dynamic_results()

    def run_dynamic_batch(self, topo, config, initial_loads) -> RecordBatch:
        """Fused dynamic ensemble loop returning the columnar record batch.

        Arrivals + balancing, all replicas per vectorised step;
        transient/traffic info is never materialised (dynamic records do
        not carry it, exactly like ``DynamicSimulator``).  The sharded
        engine calls this per worker; :meth:`run_dynamic` is the
        per-replica wrapper.
        """
        if config.arrivals is None:
            raise ConfigurationError(
                "run_dynamic() needs arrival models (set config.arrivals)"
            )
        h = self.prepare(topo, config, initial_loads)
        for _ in range(config.rounds):
            self._advance(h, want_info=False)
        return self.metrics(h)
