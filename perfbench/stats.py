"""Summary statistics shared by the timed and the traced passes."""

from __future__ import annotations

import math
import re
from typing import Dict, Optional, Sequence, Tuple

#: What a metric name may be made of (and at most 64 of them, starting with
#: a letter or a digit).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: What a unit may be made of.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` or raise ``ValueError`` when it breaks the charset."""
    if not NAME_RE.match(name):
        raise ValueError(f"metric name {name!r} is not [A-Za-z0-9_.-]{{1,64}}")
    return name


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def supported_tail(n_samples: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_BEYOND`` of ``n_samples``
    beyond it, or ``None`` when even the median has fewer."""
    for pct in TAIL_LADDER:
        # samples beyond pct, in integer arithmetic on tenths of a percent
        if n_samples * (1000 - round(pct * 10)) // 1000 >= MIN_BEYOND:
            return pct
    return None


def tail(samples: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """``(pct, value)`` of the highest supported percentile (see
    :func:`supported_tail`), or ``(None, None)``."""
    pct = supported_tail(len(samples))
    if pct is None:
        return None, None
    return pct, percentile(samples, pct)


def metric(value: float, unit: str) -> Dict[str, object]:
    if not UNIT_RE.match(unit):
        raise ValueError(f"unit {unit!r} breaks the unit charset")
    return {"value": float(value), "unit": unit}
