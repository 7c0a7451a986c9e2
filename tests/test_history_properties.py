"""The history checker against its reference oracle.

``HistoryRecorder._check_key`` searches with three reductions — quiescent
cuts, no-op collapsing and a frontier window over the ops enabled by
real-time precedence (docs/recovery.md).  Each is claimed to keep the
verdict and ``possible_finals`` exact, so here the fast search must agree
with the original, unreduced search in ``tests/linearizability_reference.py``
on every history hypothesis can build: at most 10 ops on one key, mixing
ok, failed and open writes, retried and missed writes, reads, and
overlapping and disjoint intervals.  The window's edges — shared invoke
and response cycles, zero-length intervals, an invoke exactly on the
earliest pending response, segments ending in ops that never responded —
are also checked against the bitmask search it replaced, states count
included.  Targeted cases pin the histories the reductions are most likely
to get wrong, and a real drill history pins the agreement at drill shape.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.cfa import (  # noqa: E402
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
)
from repro.core.mutations import (  # noqa: E402
    MUT_DELETED,
    MUT_INSERTED,
    MUT_UPDATED,
)
from repro.faults.chaos import run_recovery_chaos  # noqa: E402
from repro.faults.history import HistoryRecorder, _Op  # noqa: E402

from .linearizability_reference import (  # noqa: E402
    bitmask_check_key,
    key_histories,
    reference_check_key,
)

_APPLIED = {OP_INSERT: MUT_INSERTED, OP_UPDATE: MUT_UPDATED, OP_DELETE: MUT_DELETED}


def _op(op_id, op, value, invoke, response, status="ok", result=None,
        attempts=1):
    return _Op(
        op_id=op_id, key_pos=0, op=op, value=value, invoke_cycle=invoke,
        response_cycle=response if status else None, status=status,
        result=result, attempts=attempts,
    )


def _both(ops, initial):
    """(fast, reference) results; ``ops`` sorted by invoke as ``check`` does."""
    ops = sorted(ops, key=lambda o: o.invoke_cycle)
    outcome, finals, _ = HistoryRecorder({})._check_key(ops, initial)
    return (outcome, finals), reference_check_key(ops, initial)


def _spread(draw, responses):
    invoke = draw(st.integers(0, 50))
    return invoke, invoke + draw(st.integers(0, 12))


def _shared(draw, responses):
    """Few distinct cycles: many ops share both invoke and response."""
    invoke = draw(st.sampled_from([0, 4]))
    return invoke, invoke + draw(st.sampled_from([0, 4]))


def _instant(draw, responses):
    """Zero-length intervals: every op responds on its invoke cycle."""
    invoke = draw(st.integers(0, 6))
    return invoke, invoke


def _at_response(draw, responses):
    """Each op after the first is invoked exactly on an earlier op's
    response cycle: the frontier window's boundary, ``inv == R``."""
    invoke = draw(st.sampled_from(responses)) if responses else 0
    return invoke, invoke + draw(st.integers(0, 3))


@st.composite
def histories(draw, timing=_spread, open_tail=False):
    """A history from one real execution, optionally with one result
    corrupted.  Returns (ops, initial, honest, final register).

    ``timing(draw, earlier responses)`` draws each op's interval;
    ``open_tail`` makes the last-invoked ops failed or open writes, so
    the key's last segment ends in ops that never responded."""
    initial = draw(st.sampled_from([None, 1]))
    times = []
    for _ in range(draw(st.integers(1, 10))):
        times.append(timing(draw, [response for _, response in times]))
    last = max(invoke for invoke, _ in times)
    plan = []
    for op_id, (invoke, response) in enumerate(times):
        tail = open_tail and invoke == last
        op = draw(st.sampled_from(
            [OP_INSERT, OP_UPDATE, OP_DELETE] if tail
            else [OP_LOOKUP, OP_INSERT, OP_UPDATE, OP_DELETE]
        ))
        status = draw(st.sampled_from(
            ["fail", None] if tail else ["ok", "ok", "ok", "fail", None]
        ))
        attempts = draw(st.integers(1, 3)) if status else 1
        # The execution point: inside the interval for an ok op, anywhere
        # after invoke (or never) for one that failed or never returned.
        if status == "ok":
            point = draw(st.integers(invoke, response))
        else:
            point = draw(st.one_of(st.none(), st.integers(invoke, 80)))
        value = draw(st.integers(1, 3))
        plan.append((point, op_id, op, value, invoke, response, status,
                     attempts))
    reg, ops = initial, []
    for point, op_id, op, value, invoke, response, status, attempts in sorted(
        plan, key=lambda row: (row[0] is None, row[0] or 0, row[1])
    ):
        result = None
        if op == OP_LOOKUP:
            result = reg
        elif point is not None and not (op != OP_INSERT and reg is None):
            # A delete or update of an absent key misses; anything else
            # applies and reports its MUT code.
            reg = None if op == OP_DELETE else value
            result = _APPLIED[op]
        ops.append(_op(op_id, op, value, invoke, response, status, result,
                       attempts))
    ops = [op for op in ops if not (op.is_read and op.status != "ok")]
    honest = not ops or draw(st.booleans())
    if not honest:
        victim = ops[draw(st.integers(0, len(ops) - 1))]
        if victim.is_read:
            victim.result = draw(
                st.sampled_from([v for v in (None, 1, 2, 3) if v != victim.result])
            )
        else:  # a miss reported as applied, or the other way round
            victim.result = None if victim.result else _APPLIED[victim.op]
    return ops, initial, honest, reg


@settings(max_examples=400, deadline=None)
@given(histories())
def test_fast_search_matches_reference(case):
    ops, initial, honest, final = case
    fast, reference = _both(ops, initial)
    assert fast == reference
    if honest:
        # An uncorrupted execution is itself a linearization.
        assert fast[0] == "ok"
        assert final in fast[1]


#: Interval shapes at the frontier window's edges (``_check_key``).
WINDOW_EDGES = {
    "equal-cycles": dict(timing=_shared),
    "zero-length": dict(timing=_instant),
    "invoked-at-response": dict(timing=_at_response),
    "open-tail": dict(open_tail=True),
    "open-tail-equal-cycles": dict(timing=_shared, open_tail=True),
}


@pytest.mark.parametrize("shape", sorted(WINDOW_EDGES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_window_edge_cases_match_both_oracles(shape, data):
    ops, initial, honest, final = data.draw(histories(**WINDOW_EDGES[shape]))
    ops = sorted(ops, key=lambda o: o.invoke_cycle)
    fast = HistoryRecorder({})._check_key(ops, initial)
    # The bitmask search explores the very same states; the unreduced
    # search agrees on the verdict and the finals.
    assert fast == bitmask_check_key(ops, initial)
    assert fast[:2] == reference_check_key(ops, initial)
    if honest:
        assert fast[0] == "ok"
        assert final in fast[1]


def test_stale_read_is_flagged_by_both():
    ops = [
        _op(0, OP_INSERT, 1, 0, 5, result=MUT_INSERTED),
        _op(1, OP_UPDATE, 2, 10, 15, result=MUT_UPDATED),
        _op(2, OP_LOOKUP, 0, 20, 25, result=1),  # stale: 2 was acked
    ]
    fast, reference = _both(ops, None)
    assert fast == reference == ("violation", frozenset({None}))


def test_lost_acknowledged_write_is_flagged_by_both():
    # A read after the ack that still sees the old value is a violation.
    ops = [
        _op(0, OP_INSERT, 5, 0, 5, result=MUT_INSERTED),
        _op(1, OP_LOOKUP, 0, 10, 15, result=None),
    ]
    fast, reference = _both(ops, None)
    assert fast == reference == ("violation", frozenset({None}))
    # With no read, the replica still holding the old value is caught by
    # possible_finals, which only admits the acked write.
    fast, reference = _both(ops[:1], None)
    assert fast == reference == ("ok", frozenset({5}))


def test_no_cut_after_a_failed_write():
    # The failed write may apply long after it failed: between the two
    # reads.  A cut after it would close it off and reject the history.
    ops = [
        _op(0, OP_INSERT, 1, 0, 2, result=MUT_INSERTED),
        _op(1, OP_UPDATE, 7, 3, 4, status="fail"),
        _op(2, OP_LOOKUP, 0, 10, 12, result=1),
        _op(3, OP_LOOKUP, 0, 20, 22, result=7),
    ]
    fast, reference = _both(ops, None)
    assert fast == reference == ("ok", frozenset({7}))
    # The same for an op still open when the run ended.
    ops[1] = _op(1, OP_UPDATE, 7, 3, None, status=None)
    fast, reference = _both(ops, None)
    assert fast == reference == ("ok", frozenset({7}))


def test_equal_invoke_cycles_and_touching_intervals():
    # Two writes invoked on the same cycle may land in either order.
    ops = [
        _op(0, OP_INSERT, 1, 5, 9, result=MUT_INSERTED),
        _op(1, OP_INSERT, 2, 5, 8, result=MUT_INSERTED),
        _op(2, OP_LOOKUP, 0, 20, 21, result=1),
    ]
    fast, reference = _both(ops, None)
    assert fast == reference == ("ok", frozenset({1}))
    # A response on the very cycle of the next invoke does not order
    # them (precedence is strict), so no cut may be taken there either.
    ops = [
        _op(0, OP_INSERT, 1, 0, 5, result=MUT_INSERTED),
        _op(1, OP_LOOKUP, 0, 5, 6, result=None),
    ]
    fast, reference = _both(ops, None)
    assert fast == reference == ("ok", frozenset({1}))


def test_real_drill_history_matches_reference(monkeypatch):
    recorders = []
    check = HistoryRecorder.check

    def capture(self):
        recorders.append(self)
        return check(self)

    monkeypatch.setattr(HistoryRecorder, "check", capture)
    run_recovery_chaos(
        "cha-tlb", seed=5, requests=400, nodes=6, replication=2, quorum=2,
        verify=False,
    )
    (recorder,) = recorders
    verdict = recorder.check()
    for key_pos, ops, initial in key_histories(recorder):
        outcome, finals = reference_check_key(ops, initial)
        assert (key_pos in verdict.violations) == (outcome == "violation")
        assert outcome != "inconclusive"
        assert verdict.possible_finals[key_pos] == finals
