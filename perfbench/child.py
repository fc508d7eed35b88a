"""One workload in a fresh interpreter; started by ``run.py``.

Usage (from the repository root)::

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]
    python3 perfbench/child.py --build

Each op is reported on its own ``OP {...}`` line as soon as it is known;
the last line is ``RESULT {...}`` with the metrics and the provenance.
``--build`` compiles (or loads) the cffi kernel cache and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _emit(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def build() -> int:
    from repro.kernels import ensure_warm, get_provider

    provider = get_provider("cffi")
    if provider is None:
        print("the cffi kernel provider failed to import or build", file=sys.stderr)
        return 1
    ensure_warm(provider)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.build:
        return build()

    from provenance import provenance
    from workloads import WORKLOADS, timed_pass

    wl = WORKLOADS[args.workload](args.scale, args.seed)
    if args.trace:
        from layers import traced_pass

        metrics, info, tracer = traced_pass(wl, lambda op: _emit("OP", op))
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        info["spans_file"] = os.path.join(
            out, f"trace-{args.workload}-seed{args.seed}.json"
        )
        tracer.write(info["spans_file"])
    else:
        _emit("PLAN", [name for name, _ in wl.checks()])
        metrics, info = timed_pass(wl, args.seconds, lambda op: _emit("OP", op))
    info["provenance"] = provenance(wl)
    _emit("RESULT", {"metrics": metrics, "info": info})
    return 0


if __name__ == "__main__":
    sys.exit(main())
