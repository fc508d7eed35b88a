"""Bench records carry provenance: ``benchmarks/_helpers.write_bench_json``
stamps each ``BENCH_<name>.json`` with the commit, time, usable cores and
library versions, next to the untouched ``params``/``summary``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KEYS = {
    "git_sha", "git_dirty", "utc", "usable_cores",
    "python", "numpy", "scipy", "cffi",
}


@pytest.fixture
def helpers():
    spec = importlib.util.spec_from_file_location(
        "bench_helpers", ROOT / "benchmarks" / "_helpers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_write_bench_json_stamps_provenance(helpers, tmp_path, monkeypatch):
    # Outside a git checkout the commit fields are null, not an error.
    monkeypatch.setattr(helpers, "REPO_ROOT", str(tmp_path))
    payload = {"scale": "tiny", "params": {"n": 4}, "summary": {"x": 1.5}}
    path = helpers.write_bench_json("probe", payload)
    data = json.loads(Path(path).read_text())
    assert {k: data[k] for k in payload} == payload
    prov = data["provenance"]
    assert set(prov) == KEYS
    assert prov["git_sha"] is None and prov["git_dirty"] is None
    assert prov["usable_cores"] >= 1
    assert prov["utc"].endswith("+00:00")
    assert prov["numpy"] and prov["python"]


def test_recorded_staleness_bench_carries_provenance():
    data = json.loads((ROOT / "BENCH_staleness.json").read_text())
    prov = data["provenance"]
    assert set(prov) == KEYS
    assert len(prov["git_sha"]) == 40
