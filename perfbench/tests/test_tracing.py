"""Self-time and busy-time arithmetic of the benchmark's span tracer."""

import math
import types

import pytest

from tracing import Tracer, layer_stats, self_times


def span(i, name, parent, start, end, pass_id=0):
    return [i, name, parent, pass_id, start, end]


NESTED = [
    span(0, "root", None, 0.0, 10.0),
    span(1, "a", 0, 1.0, 4.0),
    span(2, "b", 1, 2.0, 3.0),
    span(3, "c", 0, 5.0, 6.0),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(NESTED) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    spans = [
        span(0, "p", None, 0.0, 4.0),
        span(1, "x", 0, -1.0, 1.0),  # starts before the parent
        span(2, "y", 0, 0.5, 2.0),  # overlaps x
        span(3, "z", 0, 3.5, 5.0),  # ends after the parent
    ]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.0 - 0.5)


def test_self_times_sum_to_the_root_duration():
    assert math.fsum(self_times(NESTED)) == pytest.approx(10.0)


def test_busy_time_counts_a_recursive_layer_once():
    spans = [
        span(0, "pass", None, 0.0, 10.0),
        span(1, "x", 0, 1.0, 9.0),
        span(2, "y", 1, 2.0, 8.0),
        span(3, "x", 2, 3.0, 4.0),
        span(4, "x", 0, 9.0, 9.5, pass_id=0),
        span(5, "x", None, 0.0, 2.0, pass_id=1),
    ]
    stats = layer_stats(spans)
    assert stats[0]["x.s"] == pytest.approx(8.0 + 0.5)
    assert stats[0]["x.calls"] == 3
    assert stats[0]["x.self_s"] == pytest.approx((8.0 - 6.0) + 1.0 + 0.5)
    assert stats[1]["x.s"] == pytest.approx(2.0)


def test_wrap_records_nested_spans_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda n: [0] * n
    mod.outer = lambda n: mod.inner(n)
    original_inner = mod.inner
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner", lambda a, k, r: {"inner.items": len(r)})
    tracer.wrap(mod, "outer", "outer")
    tracer.pass_id = 4
    assert mod.outer(3) == [0, 0, 0]
    names = [s[1] for s in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][2] == tracer.spans[0][0]
    assert all(s[3] == 4 for s in tracer.spans)
    assert tracer.counts[(4, "inner.items")] == 3
    tracer.uninstall()
    assert mod.inner is original_inner


def test_wrap_closes_the_span_when_the_call_raises():
    mod = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(mod, "fail", "fail")
    with pytest.raises(ZeroDivisionError):
        mod.fail()
    assert tracer.spans[0][5] is not None
    assert tracer._stack == []
