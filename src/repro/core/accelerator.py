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

**One engine event, one frame, per deferred transition.**  A step or
wake the CEE cannot run inline is one engine event whose callback,
:meth:`QeiAccelerator._drain_ready`, is the whole driver: it is bound to
its entry, the entry's generation and its ready cycle, so deferred
transitions interleave with every other engine event in plain
``(time, seq)`` order.  A flush or slice failure leaves its entries'
events queued: they fire as no-ops against a released or reallocated
slot, and until then they bound fusion like any other pending event.

**Macro-step fusion.**  Every substrate the CEE touches (integration
timing paths, DPU pools, the NoC) takes an explicit ``now``, so a
transition's effects depend only on the simulated time and the order it
runs in — not on the engine clock.  The driver therefore steps its entry
in a tight inner loop, advancing a *virtual* ``now`` arithmetically, for
as long as the next transition is provably the globally next thing to
happen: its start cycle must precede every pending engine event (the
engine heap's head, :meth:`~repro.sim.engine.Engine.heap`) and stay
inside the active run's horizon.  Otherwise the entry defers to an
engine event.

**One probe per memory micro-op.**  A memory read or local compare whose
every line hits its home's micro-TLB and the scheme's FastMem record is
timed inline, replaying exactly what the integration's ``mem_read`` /
``compare`` would do (:meth:`~repro.core.integration.Integration.cee_probe`);
any miss sends the whole micro-op down that unchanged path.
Completions and faults reached at a virtual time ahead of the engine clock
are deferred to an event at that cycle, so the completion machinery
(result writes, QST release, queue drain, quiesce callbacks) always
observes the correct ``engine.now``.  ``tests/golden_stats.json`` pins
that none of this changes a simulated number.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..config import CACHELINE_BYTES as _LINE
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

#: The micro-TLB of a home that has none yet: never written, every probe
#: of it misses.
_NO_MICRO_TLB: Dict[int, int] = {}

#: Value written alongside the status flag for "not found" results.
NOT_FOUND_SENTINEL = 0
#: ``fault_detail`` of a query aborted because its home is down.
SLICE_DOWN_DETAIL = "accelerator home {} is down"


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
    #: The accelerator home (CHA slice, core or device) the query is bound to.
    home: int = 0
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
        #: Pending quiesce callbacks, fired the moment no query is inbound,
        #: in the QST or queued.
        self._quiesce_waiters: List[Callable[[], None]] = []
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
        # Each QST slot's compiled step fn, bound at accept.
        self._rdy_fn: List[Optional[CompiledStep]] = [None] * qst_entries
        #: QST-slot-indexed handle table (dense: slot indices are small and
        #: recycled, so a list beats a dict on every hot-path probe).
        self._handles: List[Optional[QueryHandle]] = [None] * qst_entries
        self._n_handles = 0
        self._steps = self.stats.counter("cee.steps")
        self._completed = self.stats.counter("queries.completed")
        self._faulted = self.stats.counter("queries.faulted")
        self._latency = self.stats.histogram("query.latency")
        # Micro-op counters; the driver counts in locals and folds them in.
        self._uops_mem = self.stats.counter("uops.mem")
        self._uops_cmp = self.stats.counter("uops.compare")
        self._uops_hash = self.stats.counter("uops.hash")
        self._uops_alu = self.stats.counter("uops.alu")
        # The memory probe's bindings (Integration.cee_probe) and the
        # engine heap the fusion guard reads (Engine.heap).
        self._probe = integration.cee_probe()
        self._heap = engine.heap()

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
            code, detail = self._memory_code(fault), str(fault)
            self.engine.schedule_at(
                max(self.engine.now, issue_cycle),
                lambda: self._abort_outside(handle, code, detail, QueryStatus.FAULT),
            )
            return handle
        handle.home = home
        if self.integration.home_state(home) is not SliceState.HEALTHY:
            # The probe found no HEALTHY home to reroute to: the doorbell
            # NACKs immediately and the query aborts with SLICE_DOWN (the
            # software fallback is the only path left).
            self.engine.schedule_at(
                max(self.engine.now, issue_cycle),
                lambda: self._abort_outside(
                    handle, AbortCode.SLICE_DOWN, SLICE_DOWN_DETAIL.format(home)
                ),
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

    def _abort_outside(
        self,
        handle: QueryHandle,
        code: AbortCode,
        detail: str = "",
        status: QueryStatus = QueryStatus.ABORTED,
    ) -> None:
        """End a query that holds no QST entry (never accepted, or queued).

        A non-blocking query gets its {status, code} record with an untimed
        store — the coarse word is ``RESULT_FAULT`` or ``RESULT_ABORTED``
        (software already polls for both), the payload word the specific
        abort code.  An unreachable record is dropped: the query ends anyway.
        """
        request = handle.request
        if not request.blocking and request.result_addr:
            word = RESULT_FAULT if status is QueryStatus.FAULT else RESULT_ABORTED
            try:
                self.space.write_u64(request.result_addr, word)
                self.space.write_u64(request.result_addr + 8, int(code))
            except MemoryError_:
                pass  # the result record itself is unreachable
        handle.fault_detail = detail
        handle.abort_code = code
        if status is QueryStatus.FAULT:
            self._faulted.add()
        self.stats.counter(f"abort.{code.name.lower()}").add()
        handle._finish(status, self.engine.now, None)

    def _arrive(self, handle: QueryHandle) -> None:
        home = handle.home
        self._inbound[home] = self._inbound.get(home, 0) - 1
        if self.integration.home_state(home) is SliceState.FAILED:
            # The home died while this request crossed the submit network.
            self._abort_outside(
                handle, AbortCode.SLICE_DOWN, SLICE_DOWN_DETAIL.format(home)
            )
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
    # CEE driver: one engine event per deferred transition
    # ------------------------------------------------------------------ #

    def _defer(
        self, entry: QstEntry, time: int, fn: Optional[CompiledStep]
    ) -> None:
        """Defer a step (``fn``) or, with None, a wake of ``entry`` to ``time``.

        The event stays live even if the slot is released or reallocated
        before it fires: :meth:`_drain_ready` then finds a stale generation
        or an idle entry and does nothing.
        """
        self.engine.schedule_at(
            time, partial(self._drain_ready, entry, entry.generation, time, fn)
        )

    def _sched(self, entry: QstEntry, earliest: int) -> None:
        """Claim the home's CEE slot and defer a step of a ready entry."""
        handle = self._handles[entry.index]
        if handle is None or not entry.busy:
            return
        home = handle.home
        start = max(earliest, self._cee_free_at.get(home, 0), self.engine.now)
        self._cee_free_at[home] = start + 1
        self._defer(entry, start, self._rdy_fn[entry.index])

    def _none_due_by(self, start: int) -> bool:
        """No live event at or before ``start`` (drops cancelled heads)."""
        peek = self.engine.peek_time()
        return peek is None or peek > start

    def _drain_ready(
        self,
        entry: QstEntry,
        generation: int,
        now: int,
        fn: Optional[CompiledStep],
    ) -> None:
        """Engine callback of every deferred transition: the CEE driver.

        With ``fn`` the entry steps at ``now``.  With None its micro-op
        completed at ``now`` (a wake): it claims its home's CEE slot, then
        steps inline when fusion allows or defers a step to that slot.

        A step runs its entry's compiled CFA and fuses transitions while
        safe, advancing ``now`` virtually.  A transition at ``start`` fuses
        only when ``start`` strictly precedes every pending engine event
        and lies inside the active run's horizon; under that guard nothing
        can interleave, so the operation sequence (and every stat) is what
        one event per transition gives.  Each memory read and local compare
        is timed by one inline probe when all of its lines hit (see
        :meth:`Integration.cee_probe`), else by the integration's
        ``mem_read`` / ``compare``.  Counts live in locals and fold into
        their counters before a terminal (completion or fault) runs.
        """
        if entry.generation != generation:
            return  # released (and maybe reallocated) since it was deferred
        engine = self.engine
        heap = self._heap
        # One run's bound, constant through the call.  It is read through
        # the property, which the fusion-off tests patch below every cycle.
        horizon = engine.run_horizon
        cee_free = self._cee_free_at
        if fn is None:
            handle = self._handles[entry.index]
            if handle is None or not entry.busy:
                return
            home = handle.home
            free = cee_free.get(home, 0)
            if free > now:
                now = free
            cee_free[home] = now + 1
            fn = self._rdy_fn[entry.index]
            if not (
                (horizon is None or now <= horizon)
                and (
                    not heap
                    or heap[0][0] > now
                    or (heap[0][2].cancelled and self._none_due_by(now))
                )
            ):
                self._defer(entry, now, fn)
                return
        space = self.space
        integ = self.integration
        local_pool = integ.local_pool
        step_fn = fn.step
        watchdog_budget = self.watchdog_steps
        (
            walk_get, page_bytes, micro_tlbs, hit_cycles, memo_get, mult,
            shift, low, by_core, at, charge, back, extra, record_mem,
            record_cmp,
        ) = self._probe
        scale = mult << shift  # ((line * mult + node) << shift) | low
        steps = mems = cmps = hashes = alus = 0
        probed_reads = probed_cmps = micro_hits = replays = 0
        terminal = None
        try:
            while True:
                if (
                    not entry.busy
                    or entry.ctx is None
                    or entry.generation != generation
                ):
                    return  # flushed while waiting (slot possibly re-allocated)
                ctx = entry.ctx
                handle = self._handles[entry.index]
                steps += 1
                entry.steps += 1
                if entry.steps > watchdog_budget:
                    # Per-query watchdog (Sec. IV-D hardening): a corrupted
                    # pointer chain can cycle forever; the budget bounds
                    # every walk.
                    terminal = partial(
                        self._retire, entry, handle, QueryStatus.FAULT,
                        code=AbortCode.WATCHDOG,
                        detail=f"watchdog: exceeded {watchdog_budget} CEE steps",
                    )
                    break
                try:
                    if ctx.header is None:
                        # The CEE's metadata fetch translates the type byte
                        # on every pre-PARSE step: those steps fault when the
                        # header page vanishes, whatever program they are
                        # bound to.
                        space.translate(ctx.header_addr + 8, "r")
                    act = step_fn(ctx)
                except Exception as exc:  # noqa: BLE001 - firmware bugs become faults
                    detail, code = self._step_error(exc)
                    terminal = partial(
                        self._retire, entry, handle, QueryStatus.FAULT,
                        code=code, detail=detail,
                    )
                    break
                kind = act[0]
                waiting = False
                if kind <= K_DELAY:
                    # Timed micro-op, executed inline: the timing path
                    # first, then the functional access — one fixed order
                    # for TLB/DPU state parity.
                    home = handle.home
                    core_id = handle.request.core_id
                    try:
                        if kind <= K_COMPARE:  # K_MEMREAD, K_MEMREAD_OPT too
                            vaddr, length, slot = act[1], act[2], act[3]
                            # The probe: every line of every operand must
                            # hit its micro-TLB (or reuse its operand's
                            # page) and the scheme's memo record before any
                            # is replayed, so a miss leaves nothing to undo.
                            micro = micro_tlbs.get(home, _NO_MICRO_TLB)
                            node = core_id if by_core else home if at is None else at
                            offset = node << shift | low
                            hits = None
                            if kind == K_COMPARE:
                                cmps += 1
                                key_vaddr = ctx.key_addr
                                pool = local_pool(home, core_id, length)
                                operands = () if pool is None else (vaddr, key_vaddr)
                            else:
                                mems += 1
                                if kind == K_MEMREAD_OPT:  # speculative fetch
                                    length = self._usable_length(
                                        vaddr, length, act[4]
                                    )
                                operands = (vaddr,)
                                first = vaddr - vaddr % _LINE
                                if length <= 0 or vaddr + length <= first + _LINE:
                                    # One line, the common case: no loops.
                                    operands = ()
                                    walk = walk_get((first // page_bytes, "r"))
                                    base = None if walk is None else micro.get(walk[0])
                                    if base is not None:
                                        line = (base + first % walk[2]) // _LINE
                                        rec = memo_get(line * scale + offset)
                                        if rec is not None and rec[3][rec[4]] == rec[5]:
                                            hits = ((walk[0], base, hit_cycles, rec),)
                            if operands:
                                hits = []
                                for operand in operands:
                                    first = operand - operand % _LINE
                                    end = operand + length if length > 0 else first + 1
                                    page = None
                                    for line_vaddr in range(first, end, _LINE):
                                        walk = walk_get((line_vaddr // page_bytes, "r"))
                                        if walk is None:
                                            break
                                        if walk[0] == page:
                                            tlb_key, base, cycles = None, walk[1], 0
                                        else:
                                            tlb_key = page = walk[0]
                                            base = micro.get(tlb_key)
                                            if base is None:
                                                break
                                            cycles = hit_cycles
                                        line = (base + line_vaddr % walk[2]) // _LINE
                                        rec = memo_get(line * scale + offset)
                                        if rec is None or rec[3][rec[4]] != rec[5]:
                                            break
                                        hits.append((tlb_key, base, cycles, rec))
                                    else:
                                        continue
                                    hits = None  # a miss: time the micro-op whole
                                    break
                            if hits:
                                worst = 0
                                for tlb_key, base, cycles, rec in hits:
                                    if tlb_key is not None:
                                        del micro[tlb_key]
                                        micro[tlb_key] = base  # LRU refresh
                                        micro_hits += 1
                                    if charge is not None:
                                        charge(node, rec[7], _LINE, now)
                                    entry_set, tag = rec[1], rec[2]
                                    if next(reversed(entry_set)) != tag:
                                        entry_set[tag] = entry_set.pop(tag)
                                    rec[6]._pending_hits += 1
                                    if back is not None:
                                        back(rec[7], node, _LINE, now)
                                    cycles += rec[0][0] + extra
                                    if cycles > worst:
                                        worst = cycles
                                replays += len(hits)
                                if kind == K_COMPARE:
                                    latency = pool.compare(now + worst, length) - now
                                    record_cmp(latency)
                                    probed_cmps += 1
                                else:
                                    latency = worst
                                    record_mem(latency)
                                    probed_reads += 1
                            elif kind == K_COMPARE:
                                latency = integ.compare(
                                    vaddr, key_vaddr, length, now, home, core_id
                                )
                            else:
                                latency = integ.mem_read(
                                    vaddr, length, now, home, core_id
                                )
                            if kind == K_COMPARE:
                                stored = space.read(vaddr, length)
                                key = space.read(key_vaddr, length)
                                ctx.scratch[slot] = (stored > key) - (stored < key)
                            else:
                                ctx.scratch[slot] = space.read(vaddr, length)
                            ready_at = now + (latency if latency > 1 else 1)
                        elif kind == K_ALU:
                            alus += 1
                            ready_at = integ.alus.alu(now, act[1])
                        elif kind == K_HASH:
                            hashes += 1
                            data = ctx.scratch[act[1]]
                            ready_at = integ.hash_unit.hash(now, len(data))
                            ctx.scratch[act[2]] = fnv1a64(data)
                        elif kind == K_MEMREAD2:  # two concurrent segments
                            mems += 1
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
                            latency = 0
                            for vaddr, data in act[1]:
                                seg_latency = integ.mem_write(
                                    vaddr, len(data), now, home, core_id
                                )
                                space.write(vaddr, data)
                                if seg_latency > latency:
                                    latency = seg_latency
                            if act[2] is not None:
                                # A commit store: stamp its seqlock ordinal
                                # and cycle (lock releases and version
                                # restores carry None).
                                handle.commit_version = act[2]
                                handle.commit_cycle = now
                            ready_at = now + (latency if latency > 1 else 1)
                        elif kind == K_CAS:  # header seqlock compare-and-swap
                            self.stats.counter("uops.cas").add()
                            vaddr = act[1]
                            latency = integ.mem_read(vaddr, 8, now, home, core_id)
                            if space.read_u64(vaddr) == act[2]:
                                # The CEE serialises micro-ops, so the
                                # read-compare-store is atomic with respect
                                # to every other in-flight query.
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
                        terminal = partial(
                            self._retire, entry, handle, QueryStatus.FAULT,
                            code=self._memory_code(fault), detail=str(fault),
                        )
                        break
                elif kind == K_DONE:
                    if self._version_conflict(ctx):
                        # Seqlock re-validation of the locally-held header
                        # line: the version moved (or went odd) while the
                        # walk ran, so a writer raced us and the result may
                        # be torn.  Abort; the software fallback retries
                        # against settled state.
                        terminal = partial(
                            self._retire, entry, handle, QueryStatus.FAULT,
                            code=AbortCode.VERSION_CONFLICT,
                            detail="header version changed during walk",
                        )
                        break
                    value = act[1]
                    status = (
                        QueryStatus.NOT_FOUND if value is None else QueryStatus.FOUND
                    )
                    terminal = partial(self._retire, entry, handle, status, value)
                    break
                elif kind == K_FAULT:
                    terminal = partial(
                        self._retire, entry, handle, QueryStatus.FAULT,
                        code=AbortCode.of(act[1]), detail=act[2] or "CFA fault",
                    )
                    break
                else:  # K_WAIT
                    ready_at = now + 1
                    waiting = True
                home = handle.home
                free = cee_free.get(home, 0)
                start = ready_at if ready_at > free else free
                if (horizon is None or start <= horizon) and (
                    not heap
                    or heap[0][0] > start
                    or (heap[0][2].cancelled and self._none_due_by(start))
                ):
                    # Provably the next thing to happen: take the CEE slot
                    # arithmetically and keep stepping, no event round-trip.
                    cee_free[home] = start + 1
                    now = start
                    continue
                if waiting:
                    self._sched(entry, now + 1)
                else:
                    # ready_at > now >= engine.now: a wake at the completion.
                    self._defer(entry, ready_at, None)
                return
        finally:
            self._steps.value += steps
            if mems:
                self._uops_mem.value += mems
            if cmps:
                self._uops_cmp.value += cmps
            if hashes:
                self._uops_hash.value += hashes
            if alus:
                self._uops_alu.value += alus
            if replays:
                integ.count_probe_hits(
                    probed_reads, probed_cmps, micro_hits, replays
                )
        self._run_terminal(now, terminal)

    # ------------------------------------------------------------------ #
    # Completion paths
    # ------------------------------------------------------------------ #

    def _retire(
        self,
        entry: QstEntry,
        handle: QueryHandle,
        status: QueryStatus,
        value: Optional[int] = None,
        *,
        code: AbortCode = AbortCode.NONE,
        detail: str = "",
    ) -> None:
        """End a query that holds a QST entry: the one completion/fault path.

        A blocking query pays the return trip to its core; a non-blocking
        one pays its timed {status, value} record store (a fault's status
        word keeps the coarse ``RESULT_FAULT`` software polls for, the
        payload word the specific abort code).  A record the store cannot
        reach turns the query into a FAULT with that memory code and no
        record.  The entry is released either way.
        """
        now = self.engine.now
        request = handle.request
        if request.blocking:
            finish = now + self.integration.return_latency(request.core_id, handle.home)
        else:
            if status is QueryStatus.FAULT:
                record = (RESULT_FAULT, int(code))
            elif value is None:
                record = (RESULT_NOT_FOUND, NOT_FOUND_SENTINEL)
            else:
                record = (RESULT_FOUND, value)
            try:
                finish = now + self._write_result(request, *record, now, handle.home)
            except MemoryError_ as fault:
                status, value, finish = QueryStatus.FAULT, None, now
                code, detail = self._memory_code(fault), str(fault)
        if status is QueryStatus.FAULT:
            entry.ctx.state = STATE_EXCEPTION
            handle.fault_detail = detail
            handle.abort_code = code
            self._faulted.add()
            self.stats.counter(f"abort.{code.name.lower()}").add()
        else:
            self._completed.add()
            self._latency.record(finish - handle.submit_cycle)
        self._release(entry, code=code)
        self.engine.schedule_at(finish, lambda: handle._finish(status, finish, value))

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
        _aborted, finish = self._abort_bound(AbortCode.FLUSH, "")
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
        aborted, _finish = self._abort_bound(
            AbortCode.SLICE_DOWN, SLICE_DOWN_DETAIL.format(home), home
        )
        self.stats.counter("slice.failures").add()
        self._drain_queue()
        self._notify_quiesce()
        return aborted

    def _abort_bound(
        self, code: AbortCode, detail: str, home: Optional[int] = None
    ) -> Tuple[int, int]:
        """Abort every query bound to ``home`` (all homes when None).

        QST entries are released with ``code``; each non-blocking one gets
        its abort store, and the stores issue back to back through the
        translation port, one per cycle (Sec. IV-D).  Queued queries end
        through :meth:`_abort_outside`.  Returns ``(aborted, finish)``, the
        count and the cycle the last abort store completed.  An abort store
        whose record is unreachable is dropped; its query aborts anyway.
        """
        now = self.engine.now
        finish = now
        aborted = stores = 0
        for entry in self.qst.busy_entries():
            handle = self._handles[entry.index]
            if handle is None or home not in (None, handle.home):
                continue
            if not entry.mode_blocking:
                start = now + stores
                stores += 1
                try:
                    latency = self._write_result(
                        handle.request, RESULT_ABORTED, int(code), start, handle.home
                    )
                    finish = max(finish, start + latency)
                except MemoryError_:
                    pass  # the abort record itself is unreachable
            handle.fault_detail = detail
            handle.abort_code = code
            self.stats.counter(f"abort.{code.name.lower()}").add()
            self._drop_handle(entry.index)
            self.qst.release(entry, abort_code=code)
            handle._finish(QueryStatus.ABORTED, now, None)
            aborted += 1
        for queued in [q for q in self._query_queue if home in (None, q.home)]:
            self._query_queue.remove(queued)
            self._abort_outside(queued, code, detail)
            aborted += 1
        return aborted, finish

    def restore_home(self, home: int) -> None:
        """Bring a FAILED or DRAINING home back into the routable set."""
        self.integration.set_home_state(home, SliceState.HEALTHY)
        self.stats.counter("slice.recoveries").add()

    def quiesce(self, *, on_quiesced: Optional[Callable[[], None]] = None) -> bool:
        """Drain every home's QST entries.

        Every currently-HEALTHY home is marked DRAINING: the home probe
        routes new submissions elsewhere while accepted work runs to
        completion.  ``on_quiesced`` fires (immediately, or from the engine
        event that retires the last in-flight query) once no query is
        inbound, in the QST or in the overflow queue.  Returns True when
        the accelerator was already quiet.  The caller is responsible for
        restoring the homes to HEALTHY afterwards.
        """
        for home in self.integration.accelerator_homes():
            if self.integration.home_state(home) is SliceState.HEALTHY:
                self.integration.set_home_state(home, SliceState.DRAINING)
        if self._quiesced():
            if on_quiesced is not None:
                on_quiesced()
            return True
        if on_quiesced is not None:
            self._quiesce_waiters.append(on_quiesced)
        return False

    def _quiesced(self) -> bool:
        return (
            not self._n_handles
            and not self._query_queue
            and not any(self._inbound.values())
        )

    def _notify_quiesce(self) -> None:
        if not self._quiesce_waiters:
            return
        remaining = []
        for callback in self._quiesce_waiters:
            if self._quiesced():
                callback()
            else:
                remaining.append(callback)
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
