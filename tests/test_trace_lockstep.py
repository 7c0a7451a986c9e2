"""Lockstep tests: the columnar trace builder against the reference builder.

``repro.cpu.trace`` keeps a trace as three parallel columns (kinds, packed
deps, one operand per op) and emits ALU chains and filler work with list
extends.  ``tests/trace_reference.py`` is the original builder, which
appended one :class:`MicroOp` per op.  For the same emit calls both must
return the same op indices, and every ``Trace[i]`` view must equal the
reference's op ``i``: random emit sequences over every builder method, and
every trace the five Fig. 7 workloads build, op for op.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.analysis.experiments import BENCH_WORKLOADS, _build  # noqa: E402
from repro.cpu.trace import TraceBuilder  # noqa: E402
from repro.workloads import base  # noqa: E402

from . import trace_reference  # noqa: E402

#: Dependence lists as callers pass them: tuples or lists, empty, one
#: index, several, and negative "no op" indices such as other_work(0)'s -1.
DEPS = st.one_of(
    st.lists(st.integers(-3, 400), max_size=4),
    st.lists(st.integers(-3, 400), max_size=4).map(tuple),
)
ADDR = st.integers(0, 1 << 20)
PAYLOAD = st.one_of(st.none(), st.integers(), st.tuples(st.integers(), st.text(max_size=3)))

CALLS = st.one_of(
    st.tuples(st.just("load"), ADDR, DEPS),
    st.tuples(st.just("load_span"), ADDR, st.integers(-4, 300), DEPS),
    st.tuples(
        st.just("alu"), DEPS, st.one_of(st.none(), st.integers(0, 20)), st.integers(0, 40)
    ),
    st.tuples(st.just("branch"), DEPS, st.booleans()),
    st.tuples(st.just("query_b"), PAYLOAD, DEPS),
    st.tuples(st.just("query_nb"), PAYLOAD, DEPS),
    st.tuples(st.just("wait_result"), PAYLOAD, DEPS),
    st.tuples(st.just("ifetch_stall"), st.integers(0, 30), DEPS),
    st.tuples(st.just("other_work"), st.integers(0, 40)),
)


def emit(builder, call):
    name, *args = call
    if name == "alu":
        deps, latency, count = args
        return builder.alu(deps, latency=latency, count=count)
    if name == "branch":
        deps, mispredicted = args
        return builder.branch(deps, mispredicted=mispredicted)
    return getattr(builder, name)(*args)


def assert_same_ops(trace, reference):
    assert len(trace) == len(reference)
    assert list(trace) == reference.ops


@given(calls=st.lists(CALLS, max_size=60))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_emit_sequences_match_reference(calls):
    new, ref = TraceBuilder(), trace_reference.TraceBuilder()
    for call in calls:
        assert emit(new, call) == emit(ref, call)
        assert len(new) == len(ref)
    assert_same_ops(new.trace, ref.trace)
    for index in (0, -1):
        if ref.trace.ops:
            assert new.trace[index] == ref.trace[index]


#: (method, index of the Trace in its return value, or None if it is one).
TRACE_METHODS = [
    ("baseline_trace", 0),
    ("qei_trace", None),
    ("qei_nb_trace", 0),
    ("app_trace_baseline", 0),
    ("app_trace_qei", None),
    ("app_trace_other_only", None),
]


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_workload_traces_match_reference(name, monkeypatch):
    """Every trace a Fig. 7 workload builds, columnar vs reference."""
    for method, pick in TRACE_METHODS:
        # Two identical restores: trace builders may allocate simulated
        # memory (qei_nb_trace's result buffer), so each builder gets its own.
        _, new_wl = _build(name, "cha-tlb", True)
        _, ref_wl = _build(name, "cha-tlb", True)
        new = getattr(new_wl, method)()
        with monkeypatch.context() as patch:
            patch.setattr(base, "TraceBuilder", trace_reference.TraceBuilder)
            ref = getattr(ref_wl, method)()
        if pick is not None:
            assert new[1:] == ref[1:]
            new, ref = new[pick], ref[pick]
        assert isinstance(ref, trace_reference.Trace)
        assert_same_ops(new, ref)
