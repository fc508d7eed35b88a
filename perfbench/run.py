"""The repository's benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py                          # every workload, timed
    python3 perfbench/run.py --workload sweep-pool --seed 3 --seconds 18 --trace 0
    python3 perfbench/run.py --workload torus32-excess --trace 1   # per-layer pass

Every workload runs in a fresh interpreter (``child.py``) under a timeout,
after the cffi kernel cache has been built once.  A hang or a crash fails
the op that was running and every op the workload had not reached, and the
harness moves on.  ``/dev/shm`` is snapshotted around each workload; a
block left behind is a failed op (and is then removed).

The human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.  A full record
(metrics, op log, provenance) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Dict, List, Optional

from stats import NAME_RE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SHM = "/dev/shm"

#: A run must end within this many seconds (the kernel build excepted).
CHILD_TIMEOUT_S = 165.0
BUILD_TIMEOUT_S = 600.0


def _shm_names() -> set:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler and tempfile scratch stay in the checkout
    return env


def _run_bounded(cmd: List[str], timeout: float, stdout_path: str) -> Optional[int]:
    """Run ``cmd`` in its own process group; on timeout kill the whole group
    (workers included) and return ``None``.  Always waits for the end."""
    with open(stdout_path, "w") as out:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=out, env=_child_env(), start_new_session=True
        )
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
            except ProcessLookupError:
                pass
            proc.wait()


def build_kernels() -> Optional[str]:
    """Build (or load) the cffi kernel cache; ``None`` on success."""
    log = os.path.join(OUT, "build.log")
    code = _run_bounded(
        [sys.executable, os.path.join(HERE, "child.py"), "--build"],
        BUILD_TIMEOUT_S,
        log,
    )
    if code == 0:
        return None
    return "kernel build timed out" if code is None else f"kernel build exited {code}"


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: str) -> Dict:
    tag = f"{name}-seed{seed}-trace{trace}"
    log = os.path.join(OUT, f"child-{tag}.log")
    before = _shm_names()
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale,
    ]
    code = _run_bounded(cmd, CHILD_TIMEOUT_S, log)
    leaked = sorted(_shm_names() - before)

    ops: List[Dict] = []
    planned: List[str] = []
    result = None
    with open(log) as fh:
        for line in fh:
            if line.startswith("OP "):
                ops.append(json.loads(line[3:]))
            elif line.startswith("PLAN "):
                planned = json.loads(line[5:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
    attempted = sum(op["engine_calls"] for op in ops)
    failed = sum(op["engine_calls"] for op in ops if not op["ok"])
    problems = [f"{op['op']}: {op['detail']}" for op in ops if not op["ok"]]
    if result is None:
        # the running op and every check the workload did not reach
        done = {op["op"] for op in ops}
        missing = 1 + sum(1 for check in planned if check not in done)
        attempted += missing
        failed += missing
        why = "timed out" if code is None else f"exited {code}"
        problems.append(f"workload {why}; {missing} op(s) not completed")
    if leaked:
        attempted += 1
        failed += 1
        problems.append(f"{len(leaked)} /dev/shm block(s) left behind: {leaked}")
        for block in leaked:  # recorded above; do not let them pile up
            try:
                os.unlink(os.path.join(SHM, block))
            except OSError:
                pass
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": max(attempted, 1),
        "failed": failed,
        "problems": problems,
        "metrics": (result or {}).get("metrics", {}),
        "info": (result or {}).get("info", {}),
        "shm_leaked": leaked,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.isfile(SPEC):
        print(
            f"perfbench: no program to measure under {ROOT} (src/repro and "
            "BENCHMARK.json are required)",
            file=sys.stderr,
        )
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_error = build_kernels()
    runs = []
    for name in names if args.workload == "all" else [args.workload]:
        run = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
        if build_error:
            run["problems"].insert(0, build_error)
        missing = sorted(set(expected) - set(run["metrics"]))
        if missing:
            run["problems"].append(f"metrics not measured: {missing}")
        bad = sorted(k for k in run["metrics"] if not NAME_RE.match(k))
        if bad:
            run["problems"].append(f"metric names outside [A-Za-z0-9_.-]: {bad}")
        runs.append(run)
        with open(os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(run, fh, indent=1)

        print(f"== {name} (seed {args.seed}, {'traced' if args.trace else 'timed'} pass)")
        for key, m in sorted(run["metrics"].items()):
            print(f"{key:36s} {m['value']:>16.6g} {m['unit']}")
        for key, value in sorted(run["info"].items()):
            if key != "provenance":
                print(f"{key}: {value}")
        print(f"ops: {run['attempted']} attempted, {run['failed']} failed")
        for problem in run["problems"]:
            print(f"FAILED {problem}")
        print(f"provenance: {json.dumps(run['info'].get('provenance'))}")

    if len(runs) == 1:
        metrics = {k: v for k, v in runs[0]["metrics"].items() if k in expected}
    else:
        metrics = {
            f"{run['workload']}.{k}": v
            for run in runs
            for k, v in run["metrics"].items()
            if k in expected
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not any(r["problems"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
