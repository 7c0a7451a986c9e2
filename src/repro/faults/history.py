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
* **frontier window** — op i is enabled iff it is pending and invoked no
  later than R, the earliest response among the pending ok ops; with ops
  sorted by invoke that is a precomputed prefix mask per R, and R is the
  lowest bit of a response-ordered pending mask carried with the state,
  so expansion walks only the enabled ops instead of testing them all;
* **no-op collapsing** — an enabled ok read of the current value, or an
  ok first-attempt miss, is linearized at once without branching: it is
  valid there, never changes the register wherever it lands, and moving
  it earlier only relaxes the others' precedence, so every reachable
  final and the verdict are unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    #: The most states any one key's search explored (the seed soak's
    #: headroom against the per-key budget).
    max_states: int = 0


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
            verdict.max_states = max(verdict.max_states, states)
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
        states explored).  ``ops`` must be sorted by invoke cycle and hold
        no failed reads (:meth:`check` drops them).
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
            n = len(seg)
            full = (1 << n) - 1
            # Register values as small codes, so a state packs into one
            # int: its pending-op bits below bit n, the code above.  An
            # op's effect is the value it reads or writes.
            effect = [
                op.result if op.is_read
                else None if op.op == OP_DELETE else op.value
                for op in seg
            ]
            code: Dict[Optional[int], int] = {}
            for value in (*regs, *effect):
                code.setdefault(value, len(code))
            values = list(code)
            shifted = [c << n for c in range(len(values))]
            # Frontier window: the k-th ok op by response has bit k of a
            # response-ordered mask; window[k + 1] is the invoke-ordered
            # prefix invoked no later than its response, window[0] all ops.
            ok_ops = sorted(
                (op.response_cycle, j) for j, op in enumerate(seg)
                if op.status == "ok"
            )
            invokes = [op.invoke_cycle for op in seg]
            window = [full] + [
                (1 << bisect_right(invokes, response)) - 1
                for response, _ in ok_ops
            ]
            rbit = [0] * n
            for k, (_, j) in enumerate(ok_ops):
                rbit[j] = 1 << k
            must = sum(1 << j for _, j in ok_ops)
            # Per op: the code it reads or writes, whether a write's
            # disposition is unknowable (both branches), and the quiet ops
            # per register code: first-attempt misses, and ok reads of
            # that value.
            target = [code[value] for value in effect]
            writes = misses = ambiguous = 0
            quiet_of = [0] * len(values)
            for j, op in enumerate(seg):
                bit = 1 << j
                if op.is_read:
                    quiet_of[target[j]] |= bit
                elif op.status != "ok" or op.attempts > 1:
                    ambiguous |= bit
                    writes |= bit
                elif op.result is None:
                    misses |= bit
                else:
                    writes |= bit
            quiet_of = [misses | quiet for quiet in quiet_of]
            finals: Set[int] = set()
            visited: Set[int] = set()
            stack = [(full, (1 << len(ok_ops)) - 1, code[reg]) for reg in regs]
            budget = _STATE_BUDGET
            while stack:
                if states >= budget:
                    return "inconclusive", frozenset(
                        {values[c] for c in finals} or {initial}
                    ), states
                pend, rpend, reg = stack.pop()
                win = window[(rpend & -rpend).bit_length()]
                # No-op collapsing: linearize every enabled quiet op now.
                grow = quiet_of[reg] & win & pend
                while grow:
                    pend ^= grow
                    while grow:
                        bit = grow & -grow
                        grow ^= bit
                        rpend ^= rbit[bit.bit_length() - 1]
                    win = window[(rpend & -rpend).bit_length()]
                    grow = quiet_of[reg] & win & pend
                key = pend | shifted[reg]
                if key in visited:
                    continue
                visited.add(key)
                states += 1
                if not pend & must:
                    finals.add(reg)
                # Only enabled effective writes can move the search: an
                # enabled read of another value has no outcome here.
                front = win & writes & pend
                while front:
                    bit = front & -front
                    front ^= bit
                    j = bit.bit_length() - 1
                    after = pend ^ bit
                    rafter = rpend ^ rbit[j]
                    new = target[j]
                    if after | shifted[new] not in visited:
                        stack.append((after, rafter, new))
                    if bit & ambiguous and new != reg and (
                        after | shifted[reg] not in visited
                    ):
                        stack.append((after, rafter, reg))
            if not finals:
                return "violation", frozenset({initial}), states
            regs = frozenset(values[c] for c in finals)
        return "ok", regs, states
