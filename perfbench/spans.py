"""In-memory spans recorded by the benchmark around calls into each layer.

Spans are recorded from the benchmark's own code only: a span opens right
before a call into a module's public function and closes when it returns.
Nothing is traced inside ``src/``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def self_time(start: float, end: float, children: Sequence[Tuple[float, float]]) -> float:
    """``end - start`` minus the part of ``[start, end]`` that the child
    intervals cover (overlapping children are counted once)."""
    covered = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


class Tracer:
    """Spans with name, start, end, parent and workload, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> List[Dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, span: Dict) -> List[Dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def self_time(self, span: Dict) -> float:
        return self_time(
            span["start"],
            span["end"],
            [(c["start"], c["end"]) for c in self.children(span)],
        )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "spans": self.spans}, fh)


def duration(span: Dict) -> float:
    return span["end"] - span["start"]
