"""Jepsen-style operation history recording + per-key linearizability.

The cluster LB records one :class:`_Op` per client request — ``invoke`` at
admission, ``ok``/``fail`` at the terminal outcome — and the checker
verifies, per key, that the completed history is linearizable over a
single register with INSERT/UPDATE/DELETE/LOOKUP semantics
(Wing & Gong-style memoized search, docs/recovery.md).

The subtlety is *indeterminacy*.  The LB is an at-least-once client: a
timed-out attempt may still execute, so

* a **failed** write may have applied (once, several times, or never) at
  any moment from its invocation onwards — it participates as an optional
  effect with no real-time upper bound;
* an **ok** write that needed several attempts is ambiguous about its
  *first* execution's disposition (an earlier attempt may have applied and
  made the final one a duplicate), so it branches apply/no-op;
* an ok write that succeeded on its **first** attempt is exact: its MUT
  result says whether it applied (``result is not None``) or was a miss.

``possible_finals`` is the closure of register values any prefix of
still-undecided failed writes could leave behind — the zero-lost-
acknowledged-writes check requires every replica's converged value to be
in that set.

Three reductions keep the search exact and cheap:

* **quiescent cuts** — where every op so far is ok and responded before
  the next invoke, all later ops must linearize after all earlier ones,
  so the key is searched segment by segment and only the set of possible
  register values crosses a cut (failed and open ops never respond, so
  no cut follows them);
* **bitmask precedence** — ``pred[i]`` holds the ok ops that responded
  before op i was invoked; op i is enabled iff all of them are linearized;
* **no-op collapsing** — an enabled ok read of the current value, or an
  ok first-attempt miss, is linearized at once without branching: it is
  valid there, never changes the register wherever it lands, and moving
  it earlier only relaxes the others' precedence, so every reachable
  final and the verdict are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.cfa import OP_DELETE, OP_LOOKUP

#: Per-key search budget, summed over the key's segments: states explored
#: beyond this mark the key *inconclusive* instead of hanging the check,
#: and an inconclusive key fails the chaos contracts.
_STATE_BUDGET = 500_000


@dataclass
class _Op:
    """One client operation as the LB observed it."""

    op_id: int
    key_pos: int
    op: int
    value: int
    invoke_cycle: int
    response_cycle: Optional[int] = None
    #: "ok", "fail", or None for an op still open when the run ended
    #: (treated as indeterminate, like "fail").
    status: Optional[str] = None
    #: The ok response's value (MUT_* code for writes, the read answer for
    #: lookups).
    result: Optional[int] = None
    attempts: int = 1

    @property
    def is_read(self) -> bool:
        return self.op == OP_LOOKUP


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


@dataclass
class HistoryVerdict:
    """The checker's summary over every recorded key."""

    ops: int
    keys: int
    linearizable: bool
    #: Keys whose completed history admits no linearization.
    violations: List[int] = field(default_factory=list)
    #: Keys whose search exceeded the state budget.  Their finals are a
    #: search-order-dependent partial set, so the chaos contracts fail them.
    inconclusive: List[int] = field(default_factory=list)
    #: Per key, every register value an admissible linearization (plus any
    #: suffix of undecided failed writes) can leave behind.
    possible_finals: Dict[int, FrozenSet[Optional[int]]] = field(
        default_factory=dict
    )
    #: Search states explored, summed over every key.
    states: int = 0


class HistoryRecorder:
    """Records invoke/ok/fail for every client op; checks per key."""

    def __init__(self, baseline: Dict[int, Optional[int]]) -> None:
        #: key position -> the register's value before the run.
        self._baseline = dict(baseline)
        self._ops: List[_Op] = []

    # ------------------------------------------------------------------ #
    # Recording (called by the LB)
    # ------------------------------------------------------------------ #

    def invoke(self, key_pos: int, op: int, value: int, cycle: int) -> int:
        op_id = len(self._ops)
        self._ops.append(
            _Op(
                op_id=op_id,
                key_pos=key_pos,
                op=op,
                value=value,
                invoke_cycle=cycle,
            )
        )
        return op_id

    def ok(
        self, op_id: int, result: Optional[int], cycle: int, attempts: int
    ) -> None:
        record = self._ops[op_id]
        record.status = "ok"
        record.response_cycle = cycle
        record.result = result
        record.attempts = attempts

    def fail(self, op_id: int, cycle: int, attempts: int) -> None:
        record = self._ops[op_id]
        record.status = "fail"
        record.response_cycle = cycle
        record.attempts = attempts

    @property
    def op_count(self) -> int:
        return len(self._ops)

    def written_keys(self) -> List[int]:
        """Key positions that saw at least one write attempt (any status)."""
        return sorted(
            {op.key_pos for op in self._ops if not op.is_read}
        )

    # ------------------------------------------------------------------ #
    # Checking
    # ------------------------------------------------------------------ #

    def check(self) -> HistoryVerdict:
        by_key: Dict[int, List[_Op]] = {}
        for record in self._ops:
            # Failed reads have no effect and assert nothing: drop them.
            if record.is_read and record.status != "ok":
                continue
            by_key.setdefault(record.key_pos, []).append(record)
        verdict = HistoryVerdict(
            ops=len(self._ops), keys=len(by_key), linearizable=True
        )
        for key_pos in sorted(by_key):
            ops = sorted(by_key[key_pos], key=lambda o: o.invoke_cycle)
            outcome, finals, states = self._check_key(
                ops, self._baseline.get(key_pos)
            )
            verdict.states += states
            if outcome == "violation":
                verdict.linearizable = False
                verdict.violations.append(key_pos)
            elif outcome == "inconclusive":
                verdict.inconclusive.append(key_pos)
            verdict.possible_finals[key_pos] = finals
        return verdict

    def _check_key(
        self, ops: List[_Op], initial: Optional[int]
    ) -> Tuple[str, FrozenSet[Optional[int]], int]:
        """Search for a linearization of one key's history.

        Returns ("ok" | "violation" | "inconclusive", possible finals,
        states explored).  ``ops`` must be sorted by invoke cycle.
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
                if states >= _STATE_BUDGET:
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
