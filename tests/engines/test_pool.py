"""Persistent worker pool: bit-identity, reuse, teardown and zero-copy layout.

The pool's contract mirrors the sharded engine's — pooling must be
*invisible* in the results — plus three properties of its own: workers
(and their topology/operator caches) persist across calls, shared-memory
blocks never leak (success, worker error, worker death, or a killed
parent), and worker
failures surface as :class:`ConfigurationError` naming the failing
shard's replica range.
"""

import glob
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import ConfigurationError, point_load, random_load, torus_2d
from repro.core.dynamic import HotspotArrivals
from repro.engines import (
    EngineConfig,
    ShardedWorkerPool,
    default_pool,
    make_engine,
    topology_fingerprint,
)
from repro.engines.batched import BatchedVectorEngine
from repro.engines.pool import _execute_task, _write_shared

TOPO = torus_2d(6, 6)
ROUNDINGS = [
    "ceil", "floor", "identity", "nearest", "randomized-excess",
    "unbiased-edge",
]


def _loads(B=6, seed=3):
    rng = np.random.default_rng(seed)
    rows = [point_load(TOPO, 800 * TOPO.n)]
    rows += [random_load(TOPO, 500 * TOPO.n, rng=rng) for _ in range(B - 1)]
    return np.stack(rows)


def _config(**kw):
    base = dict(scheme="sos", beta=1.7, rounds=15, seed=5,
                rounding="randomized-excess", record_every=4, workers=2)
    base.update(kw)
    return EngineConfig(**base)


def _shm_names():
    return set(glob.glob("/dev/shm/psm_*"))


def assert_static_identical(a, b):
    np.testing.assert_array_equal(a.final_state.load, b.final_state.load)
    np.testing.assert_array_equal(a.final_state.flows, b.final_state.flows)
    assert a.switched_at == b.switched_at
    np.testing.assert_array_equal(a.rounds, b.rounds)
    for name in (
        "max_minus_avg", "min_minus_avg", "max_local_diff",
        "potential_per_node", "min_load", "min_transient", "total_load",
        "round_traffic",
    ):
        np.testing.assert_array_equal(
            np.asarray(a.series(name)), np.asarray(b.series(name)),
            err_msg=name,
        )


def assert_dynamic_identical(a, b):
    np.testing.assert_array_equal(a.final_state.load, b.final_state.load)
    for name in (
        "round_index", "total_load", "arrived", "departed", "clamped",
        "max_minus_avg", "max_local_diff", "potential_per_node",
    ):
        np.testing.assert_array_equal(
            np.asarray(a.table.column(name)), np.asarray(b.table.column(name)),
            err_msg=name,
        )


@pytest.fixture
def pool():
    with ShardedWorkerPool(workers=2) as p:
        yield p


class TestBitIdentity:
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_static_every_rounding(self, pool, rounding):
        cfg = _config(rounding=rounding, switch=("fixed", 6))
        loads = _loads()
        percall = make_engine("sharded").run(TOPO, cfg, loads)
        pooled = pool.run_batch(TOPO, cfg, loads).results()
        for a, b in zip(pooled, percall):
            assert_static_identical(a, b)

    def test_dynamic(self, pool):
        cfg = _config(arrivals="poisson:3,depart=1")
        loads = _loads()
        percall = make_engine("sharded").run_dynamic(TOPO, cfg, loads)
        pooled = pool.run_batch(TOPO, cfg, loads, dynamic=True).dynamic_results()
        for a, b in zip(pooled, percall):
            assert_dynamic_identical(a, b)

    def test_engine_routes_pool_instance(self, pool):
        cfg = _config()
        loads = _loads()
        percall = make_engine("sharded").run(TOPO, cfg, loads)
        routed = make_engine("sharded").run(TOPO, replace(cfg, pool=pool), loads)
        for a, b in zip(routed, percall):
            assert_static_identical(a, b)
        assert pool.calls_served == 1

    def test_pool_true_routes_default_pool(self):
        cfg = _config(pool=True)
        loads = _loads(B=4)
        before = default_pool().calls_served
        results = make_engine("sharded").run(TOPO, cfg, loads)
        assert default_pool().calls_served == before + 1
        percall = make_engine("sharded").run(TOPO, replace(cfg, pool=None), loads)
        for a, b in zip(results, percall):
            assert_static_identical(a, b)


class TestPersistence:
    def test_workers_survive_across_calls(self, pool):
        cfg = _config()
        loads = _loads()
        pool.run_batch(TOPO, cfg, loads)
        pids = [p.pid for p in pool._procs]
        for _ in range(3):
            pool.run_batch(TOPO, cfg, loads)
        assert [p.pid for p in pool._procs] == pids
        assert pool.calls_served == 4
        # The topology shipped once; later tasks reuse the worker cache.
        key = topology_fingerprint(TOPO)
        assert all(key in known for known in pool._known)

    def test_fingerprint_distinguishes_topologies(self):
        assert topology_fingerprint(TOPO) == topology_fingerprint(torus_2d(6, 6))
        assert topology_fingerprint(TOPO) != topology_fingerprint(torus_2d(6, 7))

    def test_closed_pool_refuses(self):
        p = ShardedWorkerPool(workers=2)
        p.close()
        with pytest.raises(ConfigurationError, match="closed"):
            p.run_batch(TOPO, _config(), _loads())
        p.close()  # idempotent


class TestFallback:
    """Ineligible configs skip zero-copy but stay pooled and bit-identical."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(keep_loads=True),
            dict(churn="random:0.1"),
            dict(record_mode="summary"),
        ],
    )
    def test_pickle_fallback_matches_percall(self, pool, kw):
        cfg = _config(**kw)
        loads = _loads()
        assert not pool._zero_copy_ok(TOPO, cfg, [], [], False)
        percall = make_engine("sharded").run(TOPO, cfg, loads)
        pooled = make_engine("sharded").run(TOPO, replace(cfg, pool=pool), loads)
        for a, b in zip(pooled, percall):
            np.testing.assert_array_equal(
                a.final_state.load, b.final_state.load
            )
            np.testing.assert_array_equal(
                np.asarray(a.series("max_minus_avg")),
                np.asarray(b.series("max_minus_avg")),
            )

    def test_fast_path_shard_falls_back(self, pool):
        # identity rounding + trimmed node fields engages the closed-form
        # fast path inside the workers — prebuilt results, so no zero-copy.
        cfg = _config(
            rounding="identity",
            record_fields=(
                "max_minus_avg", "min_minus_avg", "max_local_diff",
                "potential_per_node", "min_load", "total_load",
            ),
        )
        loads = _loads()
        percall = make_engine("sharded").run(TOPO, cfg, loads)
        pooled = make_engine("sharded").run(TOPO, replace(cfg, pool=pool), loads)
        for a, b in zip(pooled, percall):
            np.testing.assert_array_equal(
                np.asarray(a.series("max_minus_avg")),
                np.asarray(b.series("max_minus_avg")),
            )


class TestTeardown:
    def test_no_shm_leak_on_success(self, pool):
        before = _shm_names()
        batch = pool.run_batch(TOPO, _config(), _loads())
        results = batch.results()
        assert _shm_names() - before == set()
        # The unlinked mappings stay readable through the escaped views.
        assert np.isfinite(results[0].final_state.load).all()
        assert np.isfinite(np.asarray(results[0].series("max_minus_avg"))).all()

    def test_worker_error_names_shard_and_leaks_nothing(self, pool):
        # Hotspot nodes outside the graph blow up inside the workers at
        # deltas() time — after dispatch, mid-run.
        cfg = _config(arrivals=HotspotArrivals(nodes=[TOPO.n + 5], rate=2))
        before = _shm_names()
        with pytest.raises(ConfigurationError, match=r"replicas \[\d+:\d+\)"):
            pool.run_batch(TOPO, cfg, _loads(), dynamic=True)
        assert _shm_names() - before == set()
        # The pool survives the error: workers still alive, next call runs.
        out = pool.run_batch(TOPO, _config(), _loads()).results()
        assert len(out) == 6

    def test_pool_close_leaves_no_processes(self):
        p = ShardedWorkerPool(workers=2)
        p.run_batch(TOPO, _config(), _loads())
        procs = list(p._procs)
        p.close()
        assert all(not proc.is_alive() for proc in procs)


#: A parent that announces its worker pids and every shared block it
#: creates, then makes one multi-shard pool call of known length: the
#: arrival model sleeps, so the call lasts ~2.4 s on any machine.
_KILLED_PARENT = """
import time
from multiprocessing import shared_memory
import numpy as np
from repro import torus_2d
from repro.core.dynamic import ArrivalModel
from repro.engines import EngineConfig, ShardedWorkerPool

class SlowArrivals(ArrivalModel):
    def deltas(self, topo, round_index, rng):
        time.sleep(0.1)
        return np.zeros(topo.n)

class Announced(shared_memory.SharedMemory):
    def __init__(self, name=None, create=False, size=0):
        super().__init__(name=name, create=create, size=size)
        if create:
            print("block", self.name, flush=True)

if __name__ == "__main__":
    shared_memory.SharedMemory = Announced
    topo = torus_2d(6, 6)
    pool = ShardedWorkerPool(workers=2)
    pool._ensure_workers()
    print("workers", *[proc.pid for proc in pool._procs], flush=True)
    cfg = EngineConfig(rounds=12, workers=2, arrivals=SlowArrivals())
    pool.run_batch(topo, cfg, np.full((4, topo.n), 10.0), dynamic=True)
    print("done", flush=True)
"""


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def _wait_until(cond, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.05)
    return cond()


@pytest.mark.skipif(
    not (os.path.isdir("/proc/self") and os.path.isdir("/dev/shm")),
    reason="needs procfs and /dev/shm",
)
class TestKilledParent:
    """A parent killed mid-call (SIGTERM, then SIGKILL) runs no teardown
    of its own.  The stdlib resource tracker it started reclaims every
    block it created once the last process holding the tracker exits, and
    the orphaned workers exit once their in-flight task ends."""

    @pytest.mark.parametrize("start", ["fork", "spawn"])
    def test_killed_parent_leaves_no_blocks_or_workers(self, start, tmp_path):
        script = tmp_path / "parent.py"
        script.write_text(_KILLED_PARENT)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, REPRO_SHARDED_START=start, PYTHONPATH=src)
        child = subprocess.Popen(
            [sys.executable, str(script)], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        lines = []
        reader = threading.Thread(
            target=lambda: lines.extend(child.stdout), daemon=True
        )
        reader.start()
        workers = []
        try:
            assert _wait_until(
                lambda: any(ln.startswith("block") for ln in lines)
            )
            time.sleep(0.5)  # the workers are now mid-call
            child.send_signal(signal.SIGTERM)
            time.sleep(0.2)
            child.kill()
            child.wait(timeout=10)
            reader.join(timeout=10)
            assert "done\n" not in lines
            names = [ln.split()[1] for ln in lines if ln.startswith("block")]
            workers = [
                int(pid) for ln in lines if ln.startswith("workers")
                for pid in ln.split()[1:]
            ]
            assert names and workers
            assert _wait_until(
                lambda: not any(os.path.exists(f"/dev/shm/{nm}") for nm in names)
            ), "shared blocks outlived the killed parent"
            assert _wait_until(
                lambda: not any(_running(pid) for pid in workers)
            ), "pool workers outlived the killed parent"
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestSpawnStart:
    def test_spawn_start_method(self, pool, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDED_START", "spawn")
        cfg = _config(rounds=6)
        loads = _loads(B=4)
        with ShardedWorkerPool(workers=2) as spawned:
            pooled = spawned.run_batch(TOPO, cfg, loads).results()
        percall = make_engine("batched").run(TOPO, replace(cfg, workers=None), loads)
        for a, b in zip(pooled, percall):
            np.testing.assert_array_equal(
                a.final_state.load, b.final_state.load
            )


class TestWorkerBodyInProcess:
    """The forked worker body as pure functions, for coverage and layout."""

    def _task(self, cfg, loads, lo, hi, shared, loads_shm, topo=TOPO):
        return {
            "graph_key": topology_fingerprint(topo),
            "topo": topo,
            "config": cfg,
            "lo": lo,
            "hi": hi,
            "dynamic": cfg.arrivals is not None,
            "loads_name": loads_shm.name,
            "loads_shape": loads.shape,
            "shared": shared,
            "write_grid": True,
        }

    @pytest.fixture
    def loads_shm(self):
        from multiprocessing import shared_memory

        loads = _loads(B=4)
        shm = shared_memory.SharedMemory(create=True, size=loads.nbytes)
        np.ndarray(loads.shape, dtype=np.float64, buffer=shm.buf)[:] = loads
        yield loads, shm
        shm.close()
        shm.unlink()

    def test_execute_task_fills_operator_cache(self, loads_shm):
        loads, shm = loads_shm
        cfg = replace(_config(), workers=None)
        topo_cache, op_caches = {}, {}
        task = self._task(cfg, loads, 0, 4, None, shm)
        batch = _execute_task(task, topo_cache, op_caches)
        key = topology_fingerprint(TOPO)
        assert key in topo_cache and op_caches[key]  # CSR operators cached
        want = BatchedVectorEngine().run_batch(TOPO, cfg, loads)
        np.testing.assert_array_equal(batch.final_loads, want.final_loads)
        # Second call reuses the cached topology (task may omit it).
        task2 = dict(task, topo=None)
        batch2 = _execute_task(task2, topo_cache, op_caches)
        np.testing.assert_array_equal(batch2.final_loads, want.final_loads)

    def test_execute_task_cache_desync_raises(self, loads_shm):
        loads, shm = loads_shm
        cfg = replace(_config(), workers=None)
        task = self._task(cfg, loads, 0, 4, None, shm)
        task["topo"] = None  # parent thinks the worker knows the graph
        with pytest.raises(ConfigurationError, match="cache desync"):
            _execute_task(task, {}, {})

    def test_write_shared_rejects_layout_mismatch(self):
        cfg = replace(_config(), workers=None)
        batch = BatchedVectorEngine().run_batch(TOPO, cfg, _loads(B=4))
        spec = {
            "dynamic": False,
            "count": len(batch.round_index) + 1,  # wrong grid length
            "B": 4,
            "n": TOPO.n,
            "m": TOPO.m_edges,
            "fields": tuple(batch.columns),
        }
        with pytest.raises(ConfigurationError, match="layout mismatch"):
            _write_shared(batch, spec, 0, 4, True)


class TestConfigPlumbing:
    def test_validate_rejects_bogus_pool(self):
        with pytest.raises(ConfigurationError, match="pool"):
            _config(pool="bogus").validate()

    def test_batched_rejects_pool(self):
        cfg = EngineConfig(scheme="sos", beta=1.7, rounds=5, pool=True)
        with pytest.raises(ConfigurationError, match="sharded"):
            make_engine("batched").run(TOPO, cfg, _loads(B=2))
