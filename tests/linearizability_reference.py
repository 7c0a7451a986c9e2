"""Reference linearizability searches: the test oracles for ``faults/history``.

``reference_check_key`` is the original per-key Wing & Gong-style search,
kept unchanged:
it expands every reachable (linearized-mask, register) state and
re-scans every pending op for real-time precedence at each expansion.
It has no quiescent cuts, no precedence bitmasks and no no-op
collapsing, so it is slow (minutes on some drill histories) but simple
enough to trust.  ``HistoryRecorder._check_key`` must agree with it on
the outcome and on ``possible_finals`` for every history.

``bitmask_check_key`` is the search that had all three reductions before
the frontier window, kept unchanged: quiescent cuts, ``pred[i]``
precedence bitmasks re-tested for every pending op at every state, and
no-op collapsing.  It visits exactly the states the frontier search
visits, so the two must agree on the outcome, ``possible_finals`` *and*
the states count (``tests/test_history_lockstep.py``).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.cfa import OP_DELETE
from repro.faults import history
from repro.faults.history import _STATE_BUDGET, HistoryRecorder, _Op


def reference_check_key(
    ops: List[_Op], initial: Optional[int]
) -> Tuple[str, FrozenSet[Optional[int]]]:
    """Search for a linearization of one key's history.

    Returns ("ok" | "violation" | "inconclusive", possible finals).
    """
    n = len(ops)
    if n == 0:
        return "ok", frozenset({initial})
    # Real-time bounds: an op must linearize before any op invoked
    # after its response; ops without a definite response (failed /
    # never returned) bound nothing.
    responses = [
        op.response_cycle if op.status == "ok" else None for op in ops
    ]
    must_mask = 0  # ops a linearization is required to include
    for i, op in enumerate(ops):
        if op.status == "ok":
            must_mask |= 1 << i
    finals: Set[Optional[int]] = set()
    visited: Set[Tuple[int, Optional[int], bool]] = set()
    budget = _STATE_BUDGET
    success = False

    def outcomes(op: _Op, reg: Optional[int]):
        """Register values linearizing ``op`` here may produce."""
        if op.is_read:
            return [reg] if op.result == reg else []
        applied = None if op.op == OP_DELETE else op.value
        if op.status == "ok" and op.attempts == 1:
            return [applied] if op.result is not None else [reg]
        # Retried ok writes and failed writes: the first execution's
        # disposition is unknowable — both branches stay open.
        results = [applied]
        if reg not in results:
            results.append(reg)
        return results

    stack: List[Tuple[int, Optional[int]]] = [(0, initial)]
    while stack:
        if budget <= 0:
            return "inconclusive", frozenset(finals or {initial})
        mask, reg = stack.pop()
        done = mask & must_mask == must_mask
        key = (mask, reg, done)
        if key in visited:
            continue
        visited.add(key)
        budget -= 1
        if done:
            success = True
            finals.add(reg)
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            op = ops[i]
            # Precedence: some other unlinearized op already responded
            # before this one was invoked => it must go first.
            blocked = False
            for j in range(n):
                if j == i or mask & (1 << j):
                    continue
                rj = responses[j]
                if rj is not None and rj < op.invoke_cycle:
                    blocked = True
                    break
            if blocked:
                continue
            for new_reg in outcomes(op, reg):
                stack.append((mask | bit, new_reg))
    if not success:
        return "violation", frozenset({initial})
    return "ok", frozenset(finals)


def key_histories(recorder: HistoryRecorder):
    """Yield ``(key_pos, ops, initial)`` exactly as ``check`` groups them:
    failed reads dropped, each key's ops sorted by invoke cycle."""
    by_key = {}
    for record in recorder._ops:
        if record.is_read and record.status != "ok":
            continue
        by_key.setdefault(record.key_pos, []).append(record)
    for key_pos in sorted(by_key):
        ops = sorted(by_key[key_pos], key=lambda o: o.invoke_cycle)
        yield key_pos, ops, recorder._baseline.get(key_pos)


def _outcomes(op: _Op, reg: Optional[int]) -> List[Optional[int]]:
    """Register values linearizing ``op`` on register ``reg`` may produce."""
    if op.is_read:
        return [reg] if op.result == reg else []
    applied = None if op.op == OP_DELETE else op.value
    if op.status == "ok" and op.attempts == 1:
        return [applied] if op.result is not None else [reg]
    # Retried ok writes and failed writes: the first execution's
    # disposition is unknowable — both branches stay open.
    results = [applied]
    if reg not in results:
        results.append(reg)
    return results


def bitmask_check_key(
    ops: List[_Op], initial: Optional[int]
) -> Tuple[str, FrozenSet[Optional[int]], int]:
    """Search for a linearization of one key's history.

    Returns ("ok" | "violation" | "inconclusive", possible finals,
    states explored).  ``ops`` must be sorted by invoke cycle.  The state
    budget is read from ``faults.history`` at call time, as the checker
    does.
    """
    # Quiescent cuts (module docstring).
    segments, start, latest = [], 0, -1
    for k, op in enumerate(ops):
        if k and latest < op.invoke_cycle:
            segments.append(ops[start:k])
            start = k
        ok = op.status == "ok"
        latest = max(latest, op.response_cycle if ok else math.inf)
    segments.append(ops[start:])
    regs: FrozenSet[Optional[int]] = frozenset({initial})
    states = 0
    for seg in segments:
        ok_ops = [(j, op) for j, op in enumerate(seg) if op.status == "ok"]
        must = sum(1 << j for j, _ in ok_ops)
        # pred[i]: ok ops that responded before op i was invoked.
        pred = [
            sum(
                1 << j for j, other in ok_ops
                if j != i and other.response_cycle < op.invoke_cycle
            )
            for i, op in enumerate(seg)
        ]
        # Ok ops that leave the register as they find it wherever
        # they land: first-attempt misses, and reads of ``reg``.
        misses = sum(
            1 << j for j, op in ok_ops
            if not op.is_read and op.attempts == 1 and op.result is None
        )
        reads: Dict[Optional[int], int] = {}
        for j, op in ok_ops:
            if op.is_read:
                reads[op.result] = reads.get(op.result, 0) | 1 << j
        full = (1 << len(seg)) - 1
        finals: Set[Optional[int]] = set()
        visited: Set[Tuple[int, Optional[int]]] = set()
        stack = [(0, reg) for reg in regs]
        while stack:
            if states >= history._STATE_BUDGET:
                return "inconclusive", frozenset(finals or {initial}), states
            mask, reg = stack.pop()
            # No-op collapsing: linearize every enabled quiet op now.
            quiet = misses | reads.get(reg, 0)
            grow = -1
            while grow:
                grow = 0
                rest = quiet & ~mask
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if not pred[bit.bit_length() - 1] & ~mask:
                        grow |= bit
                mask |= grow
            if (mask, reg) in visited:
                continue
            visited.add((mask, reg))
            states += 1
            if mask & must == must:
                finals.add(reg)
            rest = full & ~mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = bit.bit_length() - 1
                if not pred[i] & ~mask:
                    for new_reg in _outcomes(seg[i], reg):
                        stack.append((mask | bit, new_reg))
        if not finals:
            return "violation", frozenset({initial}), states
        regs = frozenset(finals)
    return "ok", regs, states
