"""A tiny-scale run of all four workloads through the real harness: the
timed pass with its correctness checks, and the traced pass."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_checks_and_emits_every_metric(trace):
    spec = _spec()
    text, result = _run("--scale", "tiny", "--seconds", "0.5", "--seed", "7", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, text
    assert result["failed"] == 0
    names = [w["name"] for w in spec["workloads"]]
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(result["metrics"]) == {f"{w}.{m}" for w in names for m in wanted}
    if not trace:
        for w in names:
            for m in ("setup_s", "call_ms_p50", "replica_rounds_per_s"):
                assert result["metrics"][f"{w}.{m}"]["value"] > 0
        # the correctness checks ran, each as an op of its workload
        for w in names:
            with open(os.path.join(BENCH, "out", f"child-{w}-seed7-trace0.log")) as fh:
                log = fh.read()
            assert "twin-vs-reference" in log
    assert "provenance:" in text


def test_single_workload_prints_exactly_its_metrics():
    _, result = _run("--workload", "torus32-excess", "--scale", "tiny", "--seconds", "0.2", "--seed", "1")
    wanted = {m["name"] for m in _spec()["end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert result["attempted"] >= 1


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = os.path.join(BENCH, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    bench = pathlib.Path(bare) / "perfbench"
    bench.mkdir(parents=True)
    tmp_path = pathlib.Path(bare)
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus32-excess", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
