"""Span self time and the outside-in wrappers."""

import types

import pytest

from perfbench.tracing import Span, Tracer, self_times, summarize


def _span(name, start, end, parent=-1):
    return Span("layer", name, start, end, parent, -1, 0)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        _span("root", 0, 100),           # 0: two children, 30 + 20 covered
        _span("first", 10, 40, 0),       # 1: one child of 10
        _span("inner", 15, 25, 1),       # 2
        _span("second", 50, 70, 0),      # 3: sibling of 1
        None,                            # a call still open at dump time
    ]
    assert self_times(spans) == [50, 20, 10, 20, 0]
    rows = summarize([spans])
    assert rows["layer.root"] == {"count": 1, "total_ns": 100, "self_ns": 50, "nbytes": 0}
    # self times of a tree add up to its root's duration
    assert sum(row["self_ns"] for row in rows.values()) == 100


def test_wrappers_nest_by_containment_and_uninstall_restores():
    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) + module.inner(x)

    module = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.wrap(module, "inner", "low", "inner")
    tracer.wrap(module, "outer", "high", "outer")
    assert module.outer(1) == 4          # disabled: nothing recorded
    assert tracer.summary() == {}
    tracer.enabled = True
    assert module.outer(1) == 4
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    (spans,) = [log for _, log in tracer.logs()]
    assert [(s.name, s.parent) for s in spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    rows = tracer.summary()
    assert rows["low.inner"]["count"] == 2
    assert rows["high.outer"]["self_ns"] == (
        rows["high.outer"]["total_ns"] - rows["low.inner"]["total_ns"]
    )


def test_a_raising_call_is_kept_under_its_own_name():
    def boom():
        raise KeyError("x")

    module = types.SimpleNamespace(boom=boom)
    tracer = Tracer()
    tracer.wrap(module, "boom", "low", "boom")
    tracer.enabled = True
    with pytest.raises(KeyError):
        module.boom()
    tracer.uninstall()
    assert list(tracer.summary()) == ["low.boom!raised"]
