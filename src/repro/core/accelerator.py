"""The QEI accelerator: QST + CFA Execution Engine + DPU (Sec. IV).

The engine follows the paper's pipelined-CFA design: every cycle the CEE
selects one ready QST entry (FIFO), executes one state transition, and —
when the transition carries a micro-operation — hands the op to memory or a
DPU element.  The entry becomes ready again when its micro-op completes, so
many queries overlap their memory latencies (the time-multiplexed OoO
continuation of Sec. IV-B).

Functional execution happens alongside timing: a memory read really reads
the simulated address space into the query's registers, a compare really
memcmps, a write really stores, and the final ``K_DONE`` value is the
architecturally correct query result — tests cross-check it against the
pure software reference.

**One CEE driver, one CFA form.**  Every accepted query is bound, at
accept time, to its program's step (:mod:`repro.core.specialize`) — or to
the *dispatch* step that resolves the program on each transition
(unregistered type codes, header pages unmapped at accept).  Programs
return flat tuple micro-ops (:mod:`repro.core.cfa`) that the driver
executes inline, read and write path alike, with results deposited in the
query's register file.  ``tests/cfa_reference.py`` keeps interpreted
oracles of every built-in program; the property tests and the golden-stats
grid check the firmware against them.

**Batched ready-drain.**  Pending steps and wakes live in slot-indexed
parallel arrays (``_rdy_*``) plus a ``(time, seq, slot)`` min-heap, and a
single *sentinel* engine event — armed at the heap head's exact
``(time, seq)`` key via pre-allocated tickets
(:meth:`~repro.sim.engine.Engine.ticket`) — drains every due entry in one
callback.  Each entry's ticket is taken exactly where a
one-event-per-transition engine would allocate its event's sequence
number, so the drain runs steps in that order and interleaves correctly
with ordinary engine events (:meth:`~repro.sim.engine.Engine.peek_key`
decides who goes first on same-cycle ties).

**Macro-step fusion.**  Every substrate the CEE touches (integration
timing paths, DPU pools, the NoC) takes an explicit ``now``, so a
transition's effects depend only on the simulated time and the order it
runs in — not on the engine clock.  :meth:`QeiAccelerator._step_at`
therefore steps its entry in a tight inner loop, advancing a *virtual*
``now`` arithmetically, for as long as the next transition is provably the
globally next thing to happen: its start cycle must precede every pending
engine event and ready entry
(:meth:`~repro.sim.engine.Engine.peek_time`) and stay inside the active
run's horizon.  Otherwise the entry goes back on the ready heap.
Completions and faults reached at a virtual time ahead of the engine clock
are deferred to an event at that cycle, so the completion machinery
(result writes, QST release, queue drain, quiesce callbacks) always
observes the correct ``engine.now``.  ``tests/golden_stats.json`` pins
that none of this changes a simulated number.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from ..errors import (
    AcceleratorError,
    FirmwareError,
    MemoryError_,
    ProtectionFault,
    SegmentationFault,
)
from ..mem.paging import AddressSpace
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from .abort import AbortCode
from .cfa import (
    K_ALU,
    K_CAS,
    K_COMPARE,
    K_DELAY,
    K_DONE,
    K_FAULT,
    K_HASH,
    K_MEMREAD,
    K_MEMREAD2,
    K_MEMREAD_OPT,
    K_WRITE,
    FirmwareImage,
    OP_LOOKUP,
    QueryContext,
    RESULT_ABORTED,
    RESULT_FAULT,
    RESULT_FOUND,
    RESULT_NOT_FOUND,
    STATE_EXCEPTION,
)
from .header import VERSION_OFFSET
from ..datastructs.hashing import fnv1a64
from .integration import Integration, SliceState
from .qst import QstEntry, QueryStateTable
from .specialize import CompiledStep, compile_firmware, dispatch_step

#: Value written alongside the status flag for "not found" results.
NOT_FOUND_SENTINEL = 0


class QueryStatus(enum.Enum):
    PENDING = "pending"
    FOUND = "found"
    NOT_FOUND = "not_found"
    FAULT = "fault"
    ABORTED = "aborted"


@dataclass
class QueryRequest:
    """One QUERY instruction's operands.

    ``op`` selects the operation (``OP_LOOKUP`` or a write op from
    :data:`~repro.core.cfa.WRITE_OPS`); write ops carry their operand in
    ``operand`` — the new value for UPDATE, or the address of the
    core-staged record to publish for INSERT.
    """

    header_addr: int
    key_addr: int
    core_id: int = 0
    blocking: bool = True
    result_addr: int = 0
    op: int = OP_LOOKUP
    operand: int = 0


@dataclass
class QueryHandle:
    """Tracks one submitted query through completion."""

    request: QueryRequest
    submit_cycle: int
    accept_cycle: Optional[int] = None
    completion_cycle: Optional[int] = None
    status: QueryStatus = QueryStatus.PENDING
    value: Optional[int] = None
    fault_detail: str = ""
    abort_code: AbortCode = AbortCode.NONE
    #: Write queries only: the seqlock version the commit was serialised
    #: under and the virtual cycle its macro store executed — the exact
    #: commit order/time for observers (docs/mutations.md).
    commit_version: Optional[int] = None
    commit_cycle: Optional[int] = None
    _callbacks: List[Callable[["QueryHandle"], None]] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.status is not QueryStatus.PENDING

    def on_done(self, callback: Callable[["QueryHandle"], None]) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _finish(self, status: QueryStatus, cycle: int, value: Optional[int]) -> None:
        self.status = status
        self.completion_cycle = cycle
        self.value = value
        for callback in self._callbacks:
            callback(self)
        self._callbacks.clear()


class QeiAccelerator:
    """One QEI instance (its QST/CEE), timed on a shared event engine.

    For the per-core Core-integrated scheme, build one accelerator per core;
    for CHA/device schemes the single instance models the distributed or
    centralized hardware, with per-query homes chosen by the integration.
    """

    def __init__(
        self,
        engine: Engine,
        firmware: FirmwareImage,
        integration: Integration,
        space: AddressSpace,
        *,
        qst_entries: int,
        stats: Optional[StatsRegistry] = None,
        name: str = "qei",
        watchdog_steps: int = 100_000,
    ) -> None:
        self.engine = engine
        self.firmware = firmware
        self.integration = integration
        self.space = space
        if watchdog_steps <= 0:
            raise AcceleratorError("watchdog budget must be positive")
        self.watchdog_steps = watchdog_steps
        registry = stats or StatsRegistry()
        self.stats = registry.scoped(name)
        self.qst = QueryStateTable(qst_entries, stats=self.stats)
        self._query_queue: Deque[QueryHandle] = deque()
        #: Pending quiesce requests: (home set, callback) pairs resolved the
        #: moment no in-flight or queued query is bound to any home in the set.
        self._quiesce_waiters: List[tuple] = []
        #: Queries in the submit network (doorbell rung, not yet arrived),
        #: per home — quiesce must wait for these too.
        self._inbound: Dict[int, int] = {}
        # One CEE clock per accelerator instance: keyed by the home node, so
        # distributed (per-CHA / per-core) engines pipeline independently.
        self._cee_free_at: Dict[int, int] = {}
        # Compiled firmware tables, rebuilt lazily whenever firmware.epoch
        # moves (initial load, runtime register(), hot-swap adopt()).
        self._compiled_epoch = -1
        self._compiled_lookup: Dict[int, CompiledStep] = {}
        self._compiled_mut: Dict[int, CompiledStep] = {}
        # The fallback route for queries no compiled table covers.
        self._dispatch = dispatch_step(firmware, space)
        # Batched CEE ready set, SoA-style: QST-slot-indexed parallel arrays
        # — live ticket seq (-1 when consumed), ready cycle, generation,
        # wake-vs-step kind, and the slot's compiled step fn — plus a
        # (time, seq, slot) min-heap.  One sentinel engine event stays armed
        # at the heap head's exact (time, seq) key; firing it drains every
        # due entry in a single callback (_drain_ready).
        self._ready: List[tuple] = []
        self._rdy_seq: List[int] = [-1] * qst_entries
        self._rdy_time: List[int] = [0] * qst_entries
        self._rdy_gen: List[int] = [0] * qst_entries
        self._rdy_wake: List[bool] = [False] * qst_entries
        self._rdy_fn: List[Optional[CompiledStep]] = [None] * qst_entries
        self._sentinel = None
        self._draining = False
        # Direct slot->entry view for the drain loop (the QST owns it).
        self._qst_entries = self.qst._entries
        #: QST-slot-indexed handle table (dense: slot indices are small and
        #: recycled, so a list beats a dict on every hot-path probe).
        self._handles: List[Optional[QueryHandle]] = [None] * qst_entries
        self._n_handles = 0
        self._steps = self.stats.counter("cee.steps")
        self._completed = self.stats.counter("queries.completed")
        self._faulted = self.stats.counter("queries.faulted")
        self._latency = self.stats.histogram("query.latency")
        # Pre-bound micro-op counter bumps for the driver's hot loop.
        self._count_mem = self.stats.counter("uops.mem").add
        self._count_cmp = self.stats.counter("uops.compare").add
        self._count_hash = self.stats.counter("uops.hash").add
        self._count_alu = self.stats.counter("uops.alu").add

    # ------------------------------------------------------------------ #
    # Submission (driven by the QUERY instructions)
    # ------------------------------------------------------------------ #

    def submit(
        self, request: QueryRequest, issue_cycle: int, *, burst_offset: int = 0
    ) -> QueryHandle:
        """Issue a query at ``issue_cycle`` (clamped to engine time).

        ``burst_offset`` positions the request inside a multi-query burst
        (see :meth:`submit_batch`): it arrives that many cycles behind the
        burst head, modelling back-to-back streaming over one doorbell.
        """
        handle = QueryHandle(request, submit_cycle=issue_cycle)
        try:
            home = self.integration.home_node(
                request.core_id, request.header_addr, request.key_addr
            )
        except MemoryError_ as fault:
            # The submission path's own operand translation faulted (e.g.
            # the key's page was unmapped under us).  The query is accepted
            # and aborted in place rather than crashing the submitting core.
            handle._home = 0  # type: ignore[attr-defined]
            code = self._memory_code(fault)
            detail = str(fault)
            self.engine.schedule_at(
                max(self.engine.now, issue_cycle),
                lambda: self._submit_fault(handle, detail, code),
            )
            return handle
        handle._home = home  # type: ignore[attr-defined]
        if self.integration.home_state(home) is not SliceState.HEALTHY:
            # The probe found no HEALTHY home to reroute to: the doorbell
            # NACKs immediately and the query aborts with SLICE_DOWN (the
            # software fallback is the only path left).
            self.engine.schedule_at(
                max(self.engine.now, issue_cycle),
                lambda: self._slice_down(handle),
            )
            return handle
        arrival = (
            max(self.engine.now, issue_cycle)
            + self.integration.submit_latency(request.core_id, home)
            + burst_offset
        )
        self._inbound[home] = self._inbound.get(home, 0) + 1
        self.engine.schedule_at(
            max(arrival, self.engine.now), lambda: self._arrive(handle)
        )
        return handle

    def submit_batch(
        self, requests: List[QueryRequest], issue_cycle: int
    ) -> List[QueryHandle]:
        """Issue a burst of queries behind one doorbell write.

        The core-accelerator submit latency is paid once by the burst head;
        the remaining requests stream in back to back, one per cycle — the
        serving tier's batched QUERY_NB path (Sec. IV-A's non-blocking mode
        driven at cloud request rates).
        """
        self.stats.counter("batches.submitted").add()
        self.stats.histogram("batch.size").record(len(requests))
        return [
            self.submit(request, issue_cycle, burst_offset=offset)
            for offset, request in enumerate(requests)
        ]

    def poll(self, handles: List[QueryHandle]) -> List[QueryHandle]:
        """The completed subset of ``handles`` (non-blocking status check)."""
        return [handle for handle in handles if handle.done]

    @property
    def in_flight(self) -> int:
        """Queries accepted into the QST plus overflow-queued submissions."""
        return self._n_handles + len(self._query_queue)

    def _submit_fault(self, handle: QueryHandle, detail: str, code: AbortCode) -> None:
        """Abort a query that never made it past submission."""
        now = self.engine.now
        request = handle.request
        if not request.blocking and request.result_addr:
            try:
                self.space.write_u64(request.result_addr, RESULT_FAULT)
                self.space.write_u64(request.result_addr + 8, int(code))
            except MemoryError_:
                pass  # the result record itself is unreachable
        handle.fault_detail = detail
        handle.abort_code = code
        self._faulted.add()
        self.stats.counter(f"abort.{code.name.lower()}").add()
        handle._finish(QueryStatus.FAULT, now, None)

    def _slice_down(self, handle: QueryHandle) -> None:
        """Abort a query whose home went down before it could execute.

        Mirrors the interrupt-flush semantics: the coarse status word is
        ``RESULT_ABORTED`` (software already polls for it) and the payload
        word carries the specific ``SLICE_DOWN`` code.
        """
        now = self.engine.now
        request = handle.request
        if not request.blocking and request.result_addr:
            try:
                self.space.write_u64(request.result_addr, RESULT_ABORTED)
                self.space.write_u64(request.result_addr + 8, int(AbortCode.SLICE_DOWN))
            except MemoryError_:
                pass  # the result record itself is unreachable
        handle.fault_detail = (
            f"accelerator home {getattr(handle, '_home', '?')} is down"
        )
        handle.abort_code = AbortCode.SLICE_DOWN
        self.stats.counter("abort.slice_down").add()
        handle._finish(QueryStatus.ABORTED, now, None)

    def _arrive(self, handle: QueryHandle) -> None:
        home = handle._home  # type: ignore[attr-defined]
        self._inbound[home] = self._inbound.get(home, 0) - 1
        if self.integration.home_state(home) is SliceState.FAILED:
            # The home died while this request crossed the submit network.
            self._slice_down(handle)
            self._notify_quiesce()
            return
        self._query_queue.append(handle)
        self._drain_queue()

    def _drain_queue(self) -> None:
        while self._query_queue:
            handle = self._query_queue[0]
            ctx = QueryContext(
                header_addr=handle.request.header_addr,
                key_addr=handle.request.key_addr,
                op=handle.request.op,
                operand=handle.request.operand,
            )
            entry = self.qst.allocate(
                ctx,
                blocking=handle.request.blocking,
                result_addr=handle.request.result_addr,
                now=self.engine.now,
                write_intent=handle.request.op != OP_LOOKUP,
            )
            if entry is None:
                return  # QST full; retried on the next release
            self._query_queue.popleft()
            handle.accept_cycle = self.engine.now
            self._handles[entry.index] = handle
            self._n_handles += 1
            fn = self._resolve_compiled(ctx)
            self._rdy_fn[entry.index] = fn
            ctx.scratch = [0] * fn.nregs
            self._sched(entry, self.engine.now)

    def _resolve_compiled(self, ctx: QueryContext) -> CompiledStep:
        """Bind the accepted query to its compiled step function.

        The compiled tables are rebuilt whenever ``firmware.epoch`` moved
        (hot-swap ``adopt`` bumps it after quiescing, so in-flight queries
        never observe a rebuild).  The type byte is peeked functionally; an
        unregistered type, or an unmapped header page, binds the dispatch
        step, which faults with the same code and timing on the step that
        meets the problem.
        """
        firmware = self.firmware
        if self._compiled_epoch != firmware.epoch:
            self._compiled_lookup, self._compiled_mut = compile_firmware(firmware)
            self._compiled_epoch = firmware.epoch
        try:
            type_code = self.space.read_u8(ctx.header_addr + 8)
        except MemoryError_:
            return self._dispatch
        table = self._compiled_lookup if ctx.op == OP_LOOKUP else self._compiled_mut
        return table.get(type_code, self._dispatch)

    # ------------------------------------------------------------------ #
    # Terminal helpers
    # ------------------------------------------------------------------ #

    def _run_terminal(self, now: int, action: Callable[[], None]) -> None:
        """Run a completion/fault at (virtual) time ``now``.

        During a fused run ``now`` can be ahead of the engine clock; the
        completion machinery reads ``engine.now``, so the terminal is
        deferred to an event at ``now`` — which the fusion guard has proven
        is the next thing to happen.  At the head of a run
        (``now == engine.now``) it executes inline, preserving
        one-event-per-transition same-cycle ordering.
        """
        if now == self.engine.now:
            action()
        else:
            self.engine.schedule_at(now, action)

    def _finish_complete(
        self, entry: QstEntry, handle: QueryHandle, value: Optional[int]
    ) -> None:
        """Complete, demoting result-record write faults to query faults."""
        try:
            self._complete(entry, handle, value)
        except MemoryError_ as fault:
            self._fault(entry, handle, str(fault), code=self._memory_code(fault))

    def _finish_fault(
        self, entry: QstEntry, handle: QueryHandle, detail: str, *, code: AbortCode
    ) -> None:
        """Fault, retrying once when the abort record itself is unwritable."""
        try:
            self._fault(entry, handle, detail, code=code)
        except MemoryError_ as fault:
            self._fault(entry, handle, str(fault), code=self._memory_code(fault))

    @classmethod
    def _step_error(cls, exc: Exception) -> tuple:
        """The (detail, abort code) a CFA step's exception faults with."""
        if isinstance(exc, MemoryError_):
            return str(exc), cls._memory_code(exc)
        if isinstance(exc, FirmwareError):
            return str(exc), AbortCode.BAD_TYPE
        return f"firmware error: {exc}", AbortCode.FIRMWARE

    @staticmethod
    def _memory_code(fault: MemoryError_) -> AbortCode:
        if isinstance(fault, SegmentationFault):
            return AbortCode.SEGFAULT
        if isinstance(fault, ProtectionFault):
            return AbortCode.PROTECTION
        return AbortCode.FAULT

    def _version_conflict(self, ctx: QueryContext) -> bool:
        """Did the header's seqlock version move since PARSE recorded it?

        Only read queries re-check (writers hold the lock themselves), and
        only once a header was actually parsed.  The check is functional —
        the CEE re-validates its locally-held header line, no new memory
        round-trip — so zero-write runs keep identical timing and stats.
        """
        if ctx.op != OP_LOOKUP or ctx.header is None:
            return False
        observed = ctx.header.version
        try:
            current = self.space.read_u64(ctx.header_addr + VERSION_OFFSET)
        except MemoryError_:
            return True  # header page vanished mid-walk: treat as conflict
        return current != observed

    def _usable_length(
        self, vaddr: int, length: int, optional_after: Optional[int]
    ) -> int:
        """Truncate a speculative cacheline fetch at unmapped pages.

        The first ``optional_after`` bytes are architecturally required and
        fault normally; the rest of the line is fetched only while its pages
        are mapped (hardware never crosses into an unmapped page).
        """
        if optional_after is None:
            return length
        page = self.space.page_bytes
        usable = optional_after
        while usable < length:
            if not self.space.is_mapped(vaddr + usable):
                break
            step = page - (vaddr + usable) % page
            usable = min(length, usable + step)
        return usable

    # ------------------------------------------------------------------ #
    # CEE driver: batched ready-drain + compiled step loop
    # ------------------------------------------------------------------ #

    def _push_ready(self, entry: QstEntry, time: int, wake: bool) -> None:
        """Enqueue a deferred step/wake for ``entry`` at ``time``.

        The engine ticket is allocated here — exactly where a
        one-event-per-transition engine would allocate its event's
        sequence number — so entries keep that relative ordering against
        each other and against ordinary engine events.  A slot's previous
        ready entry (if any — flush/fail can strand one) is invalidated by
        overwriting ``_rdy_seq``; the stale heap tuple is skipped at pop,
        as a no-op event for a released entry would be.
        """
        index = entry.index
        seq = self.engine.ticket()
        self._rdy_seq[index] = seq
        self._rdy_time[index] = time
        self._rdy_gen[index] = entry.generation
        self._rdy_wake[index] = wake
        heapq.heappush(self._ready, (time, seq, index))
        if not self._draining:
            self._arm_sentinel()

    def _arm_sentinel(self) -> None:
        """Keep one engine event armed at the ready heap head's exact key."""
        if not self._ready:
            return
        time, seq, _index = self._ready[0]
        sentinel = self._sentinel
        if sentinel is not None:
            if (
                not sentinel.cancelled
                and sentinel.time == time
                and sentinel.seq == seq
            ):
                return  # already armed at the right key
            sentinel.cancel()
        self._sentinel = self.engine.schedule_with_seq(time, seq, self._drain_ready)

    def _drain_ready(self) -> None:
        """Sentinel callback: run every due ready entry, SoA-batch style.

        Entries are consumed in (time, seq) order while they are due
        (``time <= engine.now``) and precede the engine's next live event;
        the first entry that must wait — or yield to an engine event with a
        smaller key — re-arms the sentinel at its exact key and stops.
        Stale entries (slot released or re-armed since the push) are
        skipped at pop, never pruned early, so the ordering their no-op
        events would impose is preserved.
        """
        self._sentinel = None
        self._draining = True
        engine = self.engine
        ready = self._ready
        rdy_seq = self._rdy_seq
        entries = self._qst_entries
        pop = heapq.heappop
        try:
            while ready:
                time, seq, index = ready[0]
                if time > engine.now:
                    break
                if rdy_seq[index] != seq:
                    pop(ready)  # stale: slot released or re-pushed since
                    continue
                engine_key = engine.peek_key()
                if engine_key is not None and engine_key < (time, seq):
                    break  # an engine event is ordered first; yield to it
                pop(ready)
                rdy_seq[index] = -1
                entry = entries[index]
                if self._rdy_wake[index]:
                    if entry.generation == self._rdy_gen[index]:
                        self._wake(entry)
                else:
                    self._step_at(
                        entry, self._rdy_gen[index], time, self._rdy_fn[index]
                    )
        finally:
            self._draining = False
            self._arm_sentinel()

    def _sched(self, entry: QstEntry, earliest: int) -> None:
        """Claim the home's CEE slot and defer a step-kind ready entry."""
        handle = self._handles[entry.index]
        if handle is None or not entry.busy:
            return
        home = handle._home  # type: ignore[attr-defined]
        start = max(earliest, self._cee_free_at.get(home, 0), self.engine.now)
        self._cee_free_at[home] = start + 1
        self._push_ready(entry, start, wake=False)

    def _wake(self, entry: QstEntry) -> None:
        """Wake an entry whose micro-op completed.

        Claim the CEE slot, then either step inline (when fusion proves
        nothing can interleave — the guard must also consider the remaining
        ready entries, which the popped sentinel no longer represents in
        the engine queue) or defer a step-kind ready entry.
        """
        handle = self._handles[entry.index]
        if handle is None or not entry.busy:
            return
        engine = self.engine
        home = handle._home  # type: ignore[attr-defined]
        start = max(self._cee_free_at.get(home, 0), engine.now)
        self._cee_free_at[home] = start + 1
        peek = engine.peek_time()
        ready = self._ready
        if ready:
            ready_time = ready[0][0]
            if peek is None or ready_time < peek:
                peek = ready_time
        horizon = engine.run_horizon
        if (peek is None or peek > start) and (horizon is None or start <= horizon):
            self._step_at(
                entry, entry.generation, start, self._rdy_fn[entry.index]
            )
            return
        self._push_ready(entry, start, wake=False)

    def _resume(self, entry: QstEntry, ready_at: int) -> None:
        """Defer a wake-kind ready entry to the micro-op's completion."""
        self._push_ready(entry, max(ready_at, self.engine.now), wake=True)

    def _step_at(
        self,
        entry: QstEntry,
        generation: int,
        now: int,
        fn: CompiledStep,
    ) -> None:
        """Step the entry's compiled CFA, fusing transitions while safe.

        ``now`` is the cycle this step executes at — the engine clock when
        entered from the drain, possibly ahead of it when fused across a
        wake — and advances virtually as transitions fuse.  A transition at
        ``start`` fuses only when ``start`` strictly precedes every pending
        engine event and ready entry and lies inside the active run's
        horizon; under that guard nothing can interleave, so the operation
        sequence (and every stat) is what one event per transition gives.
        """
        engine = self.engine
        space = self.space
        integ = self.integration
        cee_free = self._cee_free_at
        step_fn = fn.step
        steps_counter = self._steps
        watchdog_budget = self.watchdog_steps
        while True:
            if not entry.busy or entry.ctx is None or entry.generation != generation:
                return  # flushed while waiting (slot possibly re-allocated)
            ctx = entry.ctx
            handle = self._handles[entry.index]
            steps_counter.add()
            entry.steps += 1
            if entry.steps > watchdog_budget:
                # Per-query watchdog (Sec. IV-D hardening): a corrupted
                # pointer chain can cycle forever; the budget bounds every
                # walk.
                detail = f"watchdog: exceeded {watchdog_budget} CEE steps"
                self._run_terminal(
                    now,
                    lambda: self._fault(
                        entry, handle, detail, code=AbortCode.WATCHDOG
                    ),
                )
                return
            try:
                if ctx.header is None:
                    # The CEE's metadata fetch reads the type byte on every
                    # pre-PARSE step: those steps fault when the header page
                    # vanishes, whatever program they are bound to.
                    space.read_u8(ctx.header_addr + 8)
                act = step_fn(ctx)
            except Exception as exc:  # noqa: BLE001 - firmware bugs become faults
                detail, code = self._step_error(exc)
                self._run_terminal(
                    now, lambda: self._fault(entry, handle, detail, code=code)
                )
                return
            kind = act[0]
            waiting = False
            if kind <= K_DELAY:
                # Timed micro-op, executed inline: counter first, then the
                # timing-path call, then the functional access — one fixed
                # order for TLB/DPU state parity.
                home = handle._home  # type: ignore[attr-defined]
                try:
                    if kind == K_MEMREAD:
                        self._count_mem()
                        vaddr, length, slot = act[1], act[2], act[3]
                        latency = integ.mem_read(
                            vaddr, length, now, home, handle.request.core_id
                        )
                        ctx.scratch[slot] = space.read(vaddr, length)
                        ready_at = now + (latency if latency > 1 else 1)
                    elif kind == K_COMPARE:
                        self._count_cmp()
                        mem_vaddr, length, slot = act[1], act[2], act[3]
                        key_vaddr = ctx.key_addr
                        latency = integ.compare(
                            mem_vaddr, key_vaddr, length, now, home,
                            handle.request.core_id,
                        )
                        stored = space.read(mem_vaddr, length)
                        key = space.read(key_vaddr, length)
                        ctx.scratch[slot] = (stored > key) - (stored < key)
                        ready_at = now + (latency if latency > 1 else 1)
                    elif kind == K_ALU:
                        self._count_alu()
                        ready_at = integ.alus.alu(now, act[1])
                    elif kind == K_HASH:
                        self._count_hash()
                        data = ctx.scratch[act[1]]
                        ready_at = integ.hash_unit.hash(now, len(data))
                        ctx.scratch[act[2]] = fnv1a64(data)
                    elif kind == K_MEMREAD_OPT:  # speculative cacheline fetch
                        self._count_mem()
                        vaddr, length, slot, optional_after = (
                            act[1], act[2], act[3], act[4],
                        )
                        length = self._usable_length(vaddr, length, optional_after)
                        latency = integ.mem_read(
                            vaddr, length, now, home, handle.request.core_id
                        )
                        ctx.scratch[slot] = space.read(vaddr, length)
                        ready_at = now + (latency if latency > 1 else 1)
                    elif kind == K_MEMREAD2:  # two concurrent segments
                        self._count_mem()
                        core_id = handle.request.core_id
                        latency = 0
                        for vaddr, length, slot in (act[1:4], act[4:7]):
                            seg_latency = integ.mem_read(
                                vaddr, length, now, home, core_id
                            )
                            ctx.scratch[slot] = space.read(vaddr, length)
                            if seg_latency > latency:
                                latency = seg_latency
                        ready_at = now + (latency if latency > 1 else 1)
                    # Write-path kinds (docs/mutations.md).  Their stats
                    # counters are created lazily so zero-write runs keep
                    # a byte-identical snapshot (golden-stats discipline).
                    elif kind == K_WRITE:  # one macro store
                        self.stats.counter("uops.write").add()
                        core_id = handle.request.core_id
                        latency = 0
                        for vaddr, data in act[1]:
                            seg_latency = integ.mem_write(
                                vaddr, len(data), now, home, core_id
                            )
                            space.write(vaddr, data)
                            if seg_latency > latency:
                                latency = seg_latency
                        if act[2] is not None:
                            # A commit store: stamp its seqlock ordinal and
                            # cycle (lock releases and version restores
                            # carry None).
                            handle.commit_version = act[2]
                            handle.commit_cycle = now
                        ready_at = now + (latency if latency > 1 else 1)
                    elif kind == K_CAS:  # header seqlock compare-and-swap
                        self.stats.counter("uops.cas").add()
                        core_id = handle.request.core_id
                        vaddr = act[1]
                        latency = integ.mem_read(vaddr, 8, now, home, core_id)
                        if space.read_u64(vaddr) == act[2]:
                            # The CEE serialises micro-ops, so the
                            # read-compare-store is atomic with respect to
                            # every other in-flight query.
                            write_latency = integ.mem_write(
                                vaddr, 8, now, home, core_id
                            )
                            if write_latency > latency:
                                latency = write_latency
                            space.write_u64(vaddr, act[3])
                            ctx.scratch[act[4]] = 1
                        else:
                            ctx.scratch[act[4]] = 0
                        ready_at = now + (latency if latency > 1 else 1)
                    else:  # K_DELAY: writer backoff, no DPU unit occupied
                        self.stats.counter("uops.delay").add()
                        ready_at = now + (act[1] if act[1] > 1 else 1)
                except MemoryError_ as fault:
                    detail, code = str(fault), self._memory_code(fault)
                    self._run_terminal(
                        now,
                        lambda: self._fault(entry, handle, detail, code=code),
                    )
                    return
            elif kind == K_DONE:
                if self._version_conflict(ctx):
                    # Seqlock re-validation of the locally-held header line:
                    # the version moved (or went odd) while the walk ran, so
                    # a writer raced us and the result may be torn.  Abort;
                    # the software fallback retries against settled state.
                    detail = "header version changed during walk"
                    self._run_terminal(
                        now,
                        lambda: self._finish_fault(
                            entry, handle, detail,
                            code=AbortCode.VERSION_CONFLICT,
                        ),
                    )
                    return
                value = act[1]
                self._run_terminal(
                    now, lambda: self._finish_complete(entry, handle, value)
                )
                return
            elif kind == K_FAULT:
                detail = act[2] or "CFA fault"
                code = AbortCode.of(act[1])
                self._run_terminal(
                    now,
                    lambda: self._finish_fault(entry, handle, detail, code=code),
                )
                return
            else:  # K_WAIT
                ready_at = now + 1
                waiting = True
            home = handle._home  # type: ignore[attr-defined]
            free = cee_free.get(home, 0)
            start = ready_at if ready_at > free else free
            peek = engine.peek_time()
            ready = self._ready
            if ready:
                ready_time = ready[0][0]
                if peek is None or ready_time < peek:
                    peek = ready_time
            horizon = engine.run_horizon
            if (peek is None or peek > start) and (
                horizon is None or start <= horizon
            ):
                # Provably the next thing to happen: take the CEE slot
                # arithmetically and keep stepping, no event round-trip.
                cee_free[home] = start + 1
                now = start
                continue
            if waiting:
                self._sched(entry, now + 1)
            else:
                self._resume(entry, ready_at)
            return

    # ------------------------------------------------------------------ #
    # Completion paths
    # ------------------------------------------------------------------ #

    def _complete(self, entry: QstEntry, handle: QueryHandle, value: Optional[int]) -> None:
        now = self.engine.now
        home = handle._home  # type: ignore[attr-defined]
        request = handle.request
        status = QueryStatus.FOUND if value is not None else QueryStatus.NOT_FOUND
        if request.blocking:
            finish = now + self.integration.return_latency(request.core_id, home)
        else:
            finish = now + self._write_result(
                request, RESULT_FOUND if value is not None else RESULT_NOT_FOUND,
                value if value is not None else NOT_FOUND_SENTINEL, now, home,
            )
        self._completed.add()
        self._latency.record(finish - handle.submit_cycle)
        self._release(entry)
        self.engine.schedule_at(
            max(finish, now), lambda: handle._finish(status, max(finish, now), value)
        )

    def _fault(
        self,
        entry: QstEntry,
        handle: QueryHandle,
        detail: str,
        *,
        code: AbortCode = AbortCode.FAULT,
    ) -> None:
        now = self.engine.now
        home = handle._home  # type: ignore[attr-defined]
        request = handle.request
        entry.ctx.state = STATE_EXCEPTION
        if request.blocking:
            finish = now + self.integration.return_latency(request.core_id, home)
        else:
            # Status word keeps the coarse FAULT encoding software polls for;
            # the payload word carries the specific abort code.
            finish = now + self._write_result(request, RESULT_FAULT, int(code), now, home)
        handle.fault_detail = detail
        handle.abort_code = code
        self._faulted.add()
        self.stats.counter(f"abort.{code.name.lower()}").add()
        self._release(entry, code=code)
        self.engine.schedule_at(
            max(finish, now),
            lambda: handle._finish(QueryStatus.FAULT, max(finish, now), None),
        )

    def _write_result(
        self, request: QueryRequest, code: int, value: int, now: int, home: int
    ) -> int:
        """Write the 16B {status, value} record for non-blocking queries."""
        if not request.result_addr:
            raise AcceleratorError("non-blocking query without a result address")
        self.space.write_u64(request.result_addr, code)
        self.space.write_u64(request.result_addr + 8, value)
        return self.integration.mem_write(request.result_addr, 16, now, home, request.core_id)

    def _drop_handle(self, index: int) -> None:
        if self._handles[index] is not None:
            self._handles[index] = None
            self._n_handles -= 1

    def _release(self, entry: QstEntry, *, code: AbortCode = AbortCode.NONE) -> None:
        self._drop_handle(entry.index)
        self.qst.release(entry, abort_code=code)
        self._drain_queue()
        self._notify_quiesce()

    # ------------------------------------------------------------------ #
    # Interrupt flush (Sec. IV-D)
    # ------------------------------------------------------------------ #

    def flush(self) -> int:
        """Abort all in-flight queries; returns the cycle the flush finished.

        Blocking queries are simply dropped (the core flushes them with the
        pipeline).  Each non-blocking query writes an abort code to its
        result address with a non-temporal store; the flush is complete once
        those stores' addresses are translated (Sec. IV-D).
        """
        now = self.engine.now
        finish = now
        nb_index = 0
        for entry in list(self.qst.busy_entries()):
            handle = self._handles[entry.index]
            if handle is None:
                continue
            if not entry.mode_blocking:
                # The flush completes once every abort store's address has
                # been translated (Sec. IV-D); the translation port handles
                # one store per cycle, so the stores issue back to back.
                start = now + nb_index
                nb_index += 1
                latency = self._write_result(
                    handle.request,
                    RESULT_ABORTED,
                    int(AbortCode.FLUSH),
                    start,
                    handle._home,  # type: ignore[attr-defined]
                )
                finish = max(finish, start + latency)
            status = QueryStatus.ABORTED
            handle.abort_code = AbortCode.FLUSH
            self.stats.counter("abort.flush").add()
            self._drop_handle(entry.index)
            self.qst.release(entry, abort_code=AbortCode.FLUSH)
            handle._finish(status, now, None)
        for queued in list(self._query_queue):
            queued.abort_code = AbortCode.FLUSH
            queued._finish(QueryStatus.ABORTED, now, None)
        self._query_queue.clear()
        self.integration.flush_translations()
        self._notify_quiesce()
        return finish

    # ------------------------------------------------------------------ #
    # Slice health: fail / drain / recover (infrastructure faults)
    # ------------------------------------------------------------------ #

    def fail_home(self, home: int) -> int:
        """Mark ``home`` FAILED and abort every query bound to it.

        In-flight and queued queries abort with ``SLICE_DOWN`` (non-blocking
        queries get the abort store, like an interrupt flush); new
        submissions reroute to the surviving homes via the home probe.
        Returns the number of queries aborted.
        """
        self.integration.set_home_state(home, SliceState.FAILED)
        now = self.engine.now
        aborted = 0
        nb_index = 0
        for entry in list(self.qst.busy_entries()):
            handle = self._handles[entry.index]
            if handle is None or handle._home != home:  # type: ignore[attr-defined]
                continue
            if not entry.mode_blocking:
                # Abort stores issue back to back through the translation
                # port, exactly like the flush path (Sec. IV-D).
                self._write_result(
                    handle.request,
                    RESULT_ABORTED,
                    int(AbortCode.SLICE_DOWN),
                    now + nb_index,
                    home,
                )
                nb_index += 1
            handle.abort_code = AbortCode.SLICE_DOWN
            self.stats.counter("abort.slice_down").add()
            self._drop_handle(entry.index)
            self.qst.release(entry, abort_code=AbortCode.SLICE_DOWN)
            handle._finish(QueryStatus.ABORTED, now, None)
            aborted += 1
        stranded = [
            queued
            for queued in self._query_queue
            if queued._home == home  # type: ignore[attr-defined]
        ]
        for queued in stranded:
            self._query_queue.remove(queued)
            self._slice_down(queued)
            aborted += 1
        self.stats.counter("slice.failures").add()
        self._drain_queue()
        self._notify_quiesce()
        return aborted

    def restore_home(self, home: int) -> None:
        """Bring a FAILED or DRAINING home back into the routable set."""
        self.integration.set_home_state(home, SliceState.HEALTHY)
        self.stats.counter("slice.recoveries").add()

    def quiesce(
        self,
        homes: "Optional[int | List[int]]" = None,
        *,
        on_quiesced: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Drain the QST entries bound to ``homes`` (all homes by default).

        Every currently-HEALTHY target home is marked DRAINING: the home
        probe routes new submissions elsewhere while accepted work runs to
        completion.  ``on_quiesced`` fires (immediately, or from the engine
        event that retires the last in-flight query) once nothing bound to
        the target homes remains in the QST or the overflow queue.  Returns
        True when the targets were already quiet.  The caller is responsible
        for restoring the homes to HEALTHY afterwards.
        """
        if homes is None:
            homes = self.integration.accelerator_homes()
        elif isinstance(homes, int):
            homes = [homes]
        targets = frozenset(homes)
        for home in targets:
            if self.integration.home_state(home) is SliceState.HEALTHY:
                self.integration.set_home_state(home, SliceState.DRAINING)
        if self._quiesced(targets):
            if on_quiesced is not None:
                on_quiesced()
            return True
        if on_quiesced is not None:
            self._quiesce_waiters.append((targets, on_quiesced))
        return False

    def _quiesced(self, targets: frozenset) -> bool:
        if any(self._inbound.get(home, 0) > 0 for home in targets):
            return False
        for handle in self._handles:
            if handle is not None and handle._home in targets:  # type: ignore[attr-defined]
                return False
        for handle in self._query_queue:
            if handle._home in targets:  # type: ignore[attr-defined]
                return False
        return True

    def _notify_quiesce(self) -> None:
        if not self._quiesce_waiters:
            return
        remaining = []
        for targets, callback in self._quiesce_waiters:
            if self._quiesced(targets):
                callback()
            else:
                remaining.append((targets, callback))
        self._quiesce_waiters = remaining

    # ------------------------------------------------------------------ #

    def wait_for(self, handle: QueryHandle) -> int:
        """Advance the simulation until ``handle`` completes."""
        guard = 0
        while not handle.done:
            if not self.engine.step():
                raise AcceleratorError(
                    "simulation drained with query still pending "
                    f"(state queue empty at cycle {self.engine.now})"
                )
            guard += 1
            if guard > 10_000_000:
                raise AcceleratorError("query did not converge; runaway CFA?")
        assert handle.completion_cycle is not None
        return handle.completion_cycle

    def drain(self) -> int:
        """Run until every submitted query has completed."""
        self.engine.run()
        # Drain boundary: fold the fast paths' batched pending counts into
        # the registry so post-drain readers see exact counters even if
        # they reach for Counter.value directly instead of snapshot().
        self.stats.flush()
        return self.engine.now
