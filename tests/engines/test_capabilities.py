"""The capability table: every backend runs a setting or refuses it by name.

:data:`repro.engines.base.FEATURES` lists each non-default
:class:`~repro.engines.EngineConfig` setting that some backend cannot
honour; each backend (and :class:`~repro.engines.EngineSession`) declares
the ones it does honour in its ``supports`` set.  The contract pinned here:

* for every backend and every feature, a 2-round tiny run with just that
  feature set completes when the feature is supported, and otherwise
  raises one :class:`~repro.exceptions.ConfigurationError` naming it —
  no backend silently runs something other than what was asked;
* several unsupported features come back in *one* error naming all of
  them, not one guard group at a time;
* per-edge ``alphas`` change the trajectory wherever they are accepted,
  and the backends whose nodes cannot take them refuse them.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import ConfigurationError, point_load, torus_2d
from repro.engines import (
    ENGINES,
    EngineConfig,
    EngineSession,
    ReplicaParams,
    make_engine,
)
from repro.engines.base import FEATURES
from repro.engines.pool import ShardedWorkerPool
from repro.engines.sharded import ShardedEngine

TOPO = torus_2d(4, 4)
BASE = EngineConfig(scheme="sos", beta=1.5, rounding="nearest", rounds=2, seed=0)

#: One config per feature that sets that feature (plus whatever it needs to
#: be a valid config) and nothing else from the table.
FEATURE_CONFIGS = {
    "alphas": dict(alphas=0.05),
    "precision": dict(precision="float32"),
    "churn": dict(churn="crash:1@1"),
    "replica_params": dict(replica_params=ReplicaParams(load_scales=2.0)),
    "replica_params.alpha_scales": dict(
        replica_params=ReplicaParams(alpha_scales=0.5)
    ),
    "switch": dict(switch=("local-diff", 1.0, 1)),
    "arrival_sampling": dict(arrivals="poisson:1.0", arrival_sampling="batch"),
    "tile_size": dict(tile_size=3),
    "record_mode": dict(record_mode="summary"),
    "record_fields": dict(record_fields=("max_minus_avg", "total_load")),
    "fast_path": dict(
        rounding="identity",
        fast_path="matmul",
        record_fields=("max_minus_avg", "total_load"),
    ),
    "replica_keys": dict(replica_keys=[5, 7]),
    "kernel": dict(kernel="python"),
    "workers": dict(workers=1),
    "pool": dict(pool=True),
    "latency_model": dict(latency_model=1.0),
    "max_skew": dict(max_skew=1),
    "latency_buckets": dict(latency_buckets="floor"),
    "faults": dict(faults="drop:0.1"),
}

BACKENDS = sorted(ENGINES) + ["session"]


def _supports(backend, config):
    if backend == "session":
        return EngineSession.supports
    if backend == "sharded":
        return ShardedEngine.worker_supports(config)
    return ENGINES[backend].supports


def _run(backend, config):
    loads = np.stack([point_load(TOPO, 160), point_load(TOPO, 320)])
    if backend == "session":
        session = EngineSession(TOPO, config).start(loads[0])
        session.advance(config.rounds)
        return session.finish()
    engine = make_engine(backend)
    if config.arrivals is not None:
        return engine.run_dynamic(TOPO, config, loads)
    return engine.run(TOPO, config, loads)


@pytest.fixture(scope="module")
def pool():
    with ShardedWorkerPool(workers=1) as p:
        yield p


def test_table_covers_every_declared_feature():
    for backend in BACKENDS:
        cls = EngineSession if backend == "session" else ENGINES[backend]
        assert cls.supports <= set(FEATURES), backend
    assert set(FEATURE_CONFIGS) == set(FEATURES)


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_runs_or_refuses_by_name(backend, feature, pool):
    kw = dict(FEATURE_CONFIGS[feature])
    if "pool" in kw:  # a one-worker pool instead of the process-wide one
        kw["pool"] = pool
    config = replace(BASE, **kw)
    if feature in _supports(backend, config):
        _run(backend, config)
    else:
        with pytest.raises(ConfigurationError, match=f"the {backend}") as exc:
            _run(backend, config)
        assert feature in str(exc.value)


def test_one_error_names_every_unsupported_feature():
    config = replace(BASE, tile_size=3, workers=2, latency_model=1.0)
    with pytest.raises(ConfigurationError) as exc:
        _run("reference", config)
    message = str(exc.value)
    assert message.count("does not support") == 1
    for label in ("tile_size=3", "workers=2", "latency_model=1.0"):
        assert label in message


def test_sharded_checks_the_worker_it_routes_to():
    """Latency knobs route sharded calls to staleness workers, so churn is
    refused there exactly as the staleness engine refuses it."""
    config = replace(BASE, churn="crash:1@1", latency_model=1.0, workers=1)
    with pytest.raises(ConfigurationError, match="sharded/staleness.*churn"):
        _run("sharded", config)
    _run("sharded", replace(config, latency_model=None))


class TestAlphas:
    """Per-edge alphas either shape the run or are refused — never dropped."""

    CONFIG = EngineConfig(scheme="fos", rounding="floor", rounds=5, alphas=0.05)

    def _final(self, backend, config):
        return _run(backend, config)[0].final_state.load

    @pytest.mark.parametrize("backend", ["reference", "batched", "sharded"])
    def test_honoured(self, backend):
        default = replace(self.CONFIG, alphas=None)
        got = self._final(backend, self.CONFIG)
        np.testing.assert_array_equal(got, self._final("reference", self.CONFIG))
        assert not np.array_equal(got, self._final(backend, default))

    @pytest.mark.parametrize("backend", ["network", "async", "staleness"])
    def test_refused_where_nodes_use_default_alphas(self, backend):
        with pytest.raises(ConfigurationError, match="alphas"):
            _run(backend, self.CONFIG)

    def test_refused_on_staleness_shards(self):
        config = replace(self.CONFIG, latency_model=1.0, workers=1)
        with pytest.raises(ConfigurationError, match="alphas"):
            _run("sharded", config)
