"""The benchmark's own logic: names, the percentile rule, span self time."""

import json
import os

import pytest

from spans import Tracer, self_time
from stats import NAME_RE, check_name, percentile, supported_tail, tail

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_declared_name_uses_the_charset():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert check_name(name) == name


@pytest.mark.parametrize("bad", ["", "_lead", "has space", "slash/name", "x" * 65, "pct%"])
def test_names_outside_the_charset_are_refused(bad):
    assert not NAME_RE.match(bad)
    with pytest.raises(ValueError):
        check_name(bad)


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in _spec()["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


@pytest.mark.parametrize(
    "n,expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_tail(n) == expected
    if expected is not None:
        beyond = n * (100.0 - expected) / 100.0
        assert round(beyond, 6) >= 10


def test_tail_value_matches_numpy_style_interpolation():
    samples = list(range(1, 101))  # 100 samples: p90 is supported
    pct, value = tail(samples)
    assert pct == 90.0
    assert value == pytest.approx(90.1)
    assert tail(list(range(5))) == (None, None)


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children overlap on [3, 4] and one sticks out past 10
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)]) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert self_time(0.0, 10.0, [(2.0, 3.0), (5.0, 6.0)]) == pytest.approx(8.0)
    assert self_time(0.0, 10.0, [(-5.0, 20.0)]) == pytest.approx(0.0)
    assert self_time(5.0, 10.0, [(0.0, 4.0), (11.0, 12.0)]) == pytest.approx(5.0)


def test_tracer_nests_spans_and_computes_self_time():
    tr = Tracer("w")
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            pass
        with tr.span("inner"):
            pass
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
    assert [s["workload"] for s in tr.spans] == ["w"] * 3
    kids = tr.children(outer)
    assert [k["name"] for k in kids] == ["inner", "inner"]
    covered = sum(k["end"] - k["start"] for k in kids)
    assert tr.self_time(outer) == pytest.approx(outer["end"] - outer["start"] - covered)
