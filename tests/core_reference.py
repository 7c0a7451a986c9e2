"""Reference OoO core step: the test oracle for ``cpu/core.py``.

This is the original one-op-at-a-time ``CoreExecution.step`` body, its
``OoOCore._execute_op`` dispatcher and the ``OoOCore._memory_latency``
helper that timed every load, kept unchanged except that the removed
``MicroOp.is_load_like()`` / ``is_store_like()`` helpers are spelled out
as ``op.kind in LOAD_LIKE`` / ``STORE_LIKE``, which is what they
returned, that ``_memory_latency`` takes the core as its first argument,
and that the STORE op (which no trace emitted) is gone with its arm.

It keeps a separate ``_rob`` list beside ``_completion``, unbounded LQ/SQ
lists, re-reads the config on every op and resolves every completion in
``finish()``.  It is slow but simple enough to trust;
``CoreExecution.run_until`` must agree with it on every
:class:`CoreResult` field and on the order in which external completion
promises are resolved.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.core import CoreResult, ExternalResolver, OoOCore
from repro.cpu.isa import LOAD_LIKE, STORE_LIKE, MicroOp, OpKind
from repro.cpu.trace import Trace
from repro.errors import SimulationError


def _as_cycle(value: object) -> int:
    """Collapse an int-or-promise completion to its cycle number."""
    if isinstance(value, int):
        return value
    return value.resolve()  # type: ignore[union-attr]


def _memory_latency(
    core: OoOCore, vaddr: Optional[int], now: int, res: CoreResult
) -> int:
    if vaddr is None:
        raise SimulationError("memory op without an address")
    translation = core.mmu.translate(vaddr, "r")
    # An L1-dTLB hit overlaps with cache access; misses add cycles.
    translation_cost = (
        0 if translation.tlb_hit_level == 0 else translation.cycles
    )
    access = core.hierarchy.access_from_core(
        core.core_id, translation.paddr, now=now
    )
    level = access.level.value
    res.level_breakdown[level] = res.level_breakdown.get(level, 0) + 1
    res.memory_cycles += access.latency + translation_cost
    return translation_cost + access.latency


def _execute_op(
    core: OoOCore,
    op: MicroOp,
    ready: int,
    result: CoreResult,
    external: Optional[ExternalResolver],
) -> object:
    if op.kind is OpKind.ALU:
        return ready + (op.latency_override or 1)

    if op.kind is OpKind.IFETCH_STALL:
        # The fetch unit stalls for the given cycles from dispatch.
        return ready + (op.latency_override or 1)

    if op.kind is OpKind.BRANCH:
        result.branches += 1
        return ready + 1

    if op.kind is OpKind.LOAD:
        result.loads += 1
        latency = _memory_latency(core, op.vaddr, ready, res=result)
        return ready + latency

    if op.kind in (OpKind.QUERY_B, OpKind.QUERY_NB, OpKind.WAIT_RESULT):
        if external is None:
            raise SimulationError(
                f"trace contains {op.kind.value} but no external resolver "
                "(query port) was provided"
            )
        result.queries_issued += op.kind is not OpKind.WAIT_RESULT
        done, extra_instructions = external(op, ready)
        result.instructions += extra_instructions
        if isinstance(done, int) and done < ready:
            raise SimulationError("external op completed before it issued")
        return done

    raise SimulationError(f"unknown op kind {op.kind!r}")


class ReferenceExecution:
    """The original incremental execution of one trace on one core."""

    def __init__(
        self,
        core: OoOCore,
        trace: Trace,
        *,
        start_cycle: int = 0,
        external: Optional[ExternalResolver] = None,
    ) -> None:
        self.core = core
        self.trace = trace
        self.external = external
        self.start_cycle = start_cycle
        self._index = 0
        self._completion: list = [0] * len(trace)
        self._rob: list = []
        self._lq: list = []
        self._sq: list = []
        self._fetch_ready = start_cycle
        self._dispatched_this_cycle = 0
        self._dispatch_cycle = start_cycle
        self._last_completion = start_cycle
        self.result = CoreResult(0, 0, start_cycle, start_cycle)
        self._finished_result: Optional[CoreResult] = None

    @property
    def finished(self) -> bool:
        return self._index >= len(self.trace)

    def local_time(self) -> int:
        """The core's current frontier (its next dispatch opportunity)."""
        return max(self._dispatch_cycle, self._fetch_ready)

    def step(self) -> None:
        """Process the next op in program order."""
        if self.finished:
            raise SimulationError("stepping a finished execution")
        cfg = self.core.config
        i = self._index
        op = self.trace[i]
        completion = self._completion
        result = self.result

        # ---------------- frontend / dispatch --------------------------- #
        earliest = max(self._fetch_ready, self._dispatch_cycle)
        if len(self._rob) >= cfg.rob_entries:
            head = _as_cycle(self._rob[i - cfg.rob_entries])
            self._rob[i - cfg.rob_entries] = head
            earliest = max(earliest, head)
        if op.kind in LOAD_LIKE and len(self._lq) >= cfg.load_queue_entries:
            oldest = _as_cycle(self._lq[-cfg.load_queue_entries])
            self._lq[-cfg.load_queue_entries] = oldest
            earliest = max(earliest, oldest)
        if op.kind in STORE_LIKE and len(self._sq) >= cfg.store_queue_entries:
            oldest = _as_cycle(self._sq[-cfg.store_queue_entries])
            self._sq[-cfg.store_queue_entries] = oldest
            earliest = max(earliest, oldest)

        if earliest > self._dispatch_cycle:
            self._dispatch_cycle = earliest
            self._dispatched_this_cycle = 0
        elif self._dispatched_this_cycle >= cfg.issue_width:
            self._dispatch_cycle += 1
            self._dispatched_this_cycle = 0
        self._dispatched_this_cycle += 1
        dispatch = self._dispatch_cycle

        # ---------------- execute ---------------------------------------- #
        ready = dispatch
        for dep in op.deps:
            if dep >= 0:
                if dep >= i:
                    raise SimulationError(
                        f"op {i} depends on later op {dep}; malformed trace"
                    )
                dep_done = _as_cycle(completion[dep])
                completion[dep] = dep_done
                ready = max(ready, dep_done)

        done = _execute_op(self.core, op, ready, result, self.external)
        completion[i] = done
        if isinstance(done, int):
            self._last_completion = max(self._last_completion, done)

        # ---------------- retire bookkeeping ----------------------------- #
        self._rob.append(done)
        if op.kind in LOAD_LIKE:
            self._lq.append(done)
        if op.kind in STORE_LIKE:
            self._sq.append(done)

        if op.kind is OpKind.BRANCH and op.mispredicted:
            self._fetch_ready = done + cfg.branch_mispredict_cycles
            result.branch_mispredicts += 1

        if op.kind is OpKind.IFETCH_STALL:
            self._fetch_ready = max(self._fetch_ready, done)
            result.frontend_stall_cycles += op.latency_override or 0
        else:
            result.instructions += 1

        self._index += 1

    def finish(self) -> CoreResult:
        """Resolve outstanding completions and produce the final result."""
        if self._finished_result is not None:
            return self._finished_result
        if not self.finished:
            raise SimulationError("finish() before the trace is exhausted")
        last = self._last_completion
        for value in self._completion:
            last = max(last, _as_cycle(value))
        result = self.result
        result.end_cycle = last
        result.cycles = last - self.start_cycle
        self.core._retired.add(result.instructions)
        self.core._cycles.add(result.cycles)
        self._finished_result = result
        return result


def reference_execute(
    core: OoOCore,
    trace: Trace,
    *,
    start_cycle: int = 0,
    external: Optional[ExternalResolver] = None,
) -> CoreResult:
    """The original ``OoOCore.execute``: step the reference to the end."""
    execution = ReferenceExecution(
        core, trace, start_cycle=start_cycle, external=external
    )
    while not execution.finished:
        execution.step()
    return execution.finish()
