"""Sliding ROB-window out-of-order core timing model.

A mechanistic model in the spirit of Sniper's interval core model: the trace
is walked in program order; every op dispatches no faster than the issue
width and no earlier than retirement frees its ROB slot; execution start
waits for register dependences; loads add translation and cache-hierarchy
latency; mispredicted branches stall the frontend for the redirect penalty.

This reproduces the two behaviours the paper's analysis hinges on
(Sec. II-A): hash-table queries extract MLP until the ROB/LQ saturates
(backend bound), while pointer-chasing structures serialise on dependent
loads and burn frontend bandwidth on many dynamic instructions.

Every Fig. 7 speedup divides a software-baseline run of this model (about
100k ops for rocksdb or snort) by a QEI run, so the per-op host cost is the
baseline's cost.  :meth:`CoreExecution.run_until` is therefore one loop
over the trace's columns (:mod:`repro.cpu.trace`: kinds, packed deps, one
operand per op) with the config, windows and counters in locals.  It tells
kinds apart by identity tests on :class:`OpKind` members, never by hashing
them, and times every kind inline except the query and wait ops, which
go through :meth:`OoOCore._execute_external` with a :class:`MicroOp` view
for the resolver.

A load or store is one probe when it hits: about 95% of a baseline's
translations hit the L1 dTLB and 86% of its accesses hit the L1D.  The
probe replays an L1-dTLB hit (:meth:`Mmu.l1_hit_probe`) and then a
``FastMem`` record of an L1 hit (:meth:`FastMem.core_probe`) in place,
counting both in locals.  A miss of either goes through ``Mmu.translate``
or the hierarchy's ``access_from_core`` (the instance attribute: the fast
path, or whatever wraps it) and unpacks the named tuple it returns.
Everything the probe reads is bound once per :class:`CoreExecution`;
with the memo unbound (``hierarchy.fastmem`` None) nothing is replayed.
``tests/core_reference.py`` keeps the original one-op-per-call step as the
oracle the loop is checked against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..config import CACHELINE_BYTES, CoreConfig
from ..errors import SimulationError
from ..mem.cache import CacheLevelName
from ..mem.hierarchy import MemoryHierarchy
from ..mem.mmu import Mmu
from ..sim.stats import StatsRegistry
from .isa import MicroOp, OpKind
from .trace import Trace

#: Resolves QUERY_B / QUERY_NB / WAIT_RESULT ops.  Receives the op and its
#: issue cycle; returns (completion, extra_retired_instructions).  The
#: completion may be an ``int`` cycle or a promise object exposing
#: ``resolve() -> int`` — promises let the core keep dispatching (and keep
#: submitting later queries to the accelerator) while earlier queries are
#: still in flight, and only force the co-simulation when the value is
#: actually consumed (a register dependence or the ROB window).
ExternalResolver = Callable[[MicroOp, int], Tuple[object, int]]

#: ``CoreResult.level_breakdown`` keys (an Enum's ``.value`` is a property).
_LEVEL_VALUE: Dict[CacheLevelName, str] = {lv: lv.value for lv in CacheLevelName}

_L1 = CacheLevelName.L1

#: A lookup that never finds anything: the probe of a memo-off hierarchy.
_NO_ENTRY = {}.get


@dataclass
class CoreResult:
    """Timing outcome of one trace execution."""

    cycles: int
    instructions: int
    start_cycle: int
    end_cycle: int
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    queries_issued: int = 0
    level_breakdown: Dict[str, int] = field(default_factory=dict)
    memory_cycles: int = 0
    frontend_stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class OoOCore:
    """One out-of-order core executing micro-op traces."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        mmu: Mmu,
        *,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.mmu = mmu
        self.stats = (stats or StatsRegistry()).scoped(f"core{core_id}")
        self._retired = self.stats.counter("instructions")
        self._cycles = self.stats.counter("cycles")

    # ------------------------------------------------------------------ #

    def execute(
        self,
        trace: Trace,
        *,
        start_cycle: int = 0,
        external: Optional[ExternalResolver] = None,
    ) -> CoreResult:
        """Time the trace; returns aggregate and breakdown statistics."""
        execution = CoreExecution(
            self, trace, start_cycle=start_cycle, external=external
        )
        execution.run_until(len(trace))
        return execution.finish()

    def begin(
        self,
        trace: Trace,
        *,
        start_cycle: int = 0,
        external: Optional[ExternalResolver] = None,
    ) -> "CoreExecution":
        """Start an incremental execution (for multicore interleaving)."""
        return CoreExecution(self, trace, start_cycle=start_cycle, external=external)

    # ------------------------------------------------------------------ #

    def _execute_external(
        self,
        op: MicroOp,
        ready: int,
        result: CoreResult,
        external: Optional[ExternalResolver],
    ) -> object:
        """Time a query or wait op (the core loop times every other kind)."""
        kind = op.kind
        if kind in (OpKind.QUERY_B, OpKind.QUERY_NB, OpKind.WAIT_RESULT):
            if external is None:
                raise SimulationError(
                    f"trace contains {kind.value} but no external resolver "
                    "(query port) was provided"
                )
            result.queries_issued += kind is not OpKind.WAIT_RESULT
            done, extra_instructions = external(op, ready)
            result.instructions += extra_instructions
            if isinstance(done, int):
                if done < ready:
                    raise SimulationError("external op completed before it issued")
                # The core loop tells cycles from promises by exact type.
                return int(done)
            return done

        raise SimulationError(f"unknown op kind {kind!r}")


class CoreExecution:
    """Incremental, resumable execution of one trace on one core.

    :meth:`run_until` is the core model's only loop.  ``OoOCore.execute``
    runs it once over the whole trace; a multicore runner calls
    :meth:`step` (one op) to interleave several cores' traces in
    (approximate) global time order, so their accesses contend
    realistically in the shared LLC/NoC/DRAM models.  Both give exactly
    the same cycles for the same sequence of ops.

    ``_completion[i]`` holds op i's completion: an ``int`` cycle, or a
    promise until something consumes it, when the resolved cycle is
    written back.  It doubles as the ROB (the head of a full ROB is
    ``_completion[i - rob_entries]``); the LQ/SQ windows hold the indices
    of the youngest ``entries`` load-/store-like ops.
    """

    def __init__(
        self,
        core: OoOCore,
        trace: Trace,
        *,
        start_cycle: int = 0,
        external: Optional[ExternalResolver] = None,
    ) -> None:
        cfg = core.config
        self.core = core
        self.trace = trace
        self.external = external
        self.start_cycle = start_cycle
        self._index = 0
        self._completion: List[object] = [0] * len(trace)
        #: Indices whose completion was a promise when the op executed.
        self._unresolved: List[int] = []
        self._lq: Deque[int] = deque(maxlen=cfg.load_queue_entries)
        self._sq: Deque[int] = deque(maxlen=cfg.store_queue_entries)
        self._fetch_ready = start_cycle
        self._dispatched_this_cycle = 0
        self._dispatch_cycle = start_cycle
        self._last_completion = start_cycle
        self.result = CoreResult(0, 0, start_cycle, start_cycle)
        self._finished_result: Optional[CoreResult] = None
        # The memory-op probe's bindings, unpacked by every run_until
        # (``step`` enters it once per op).
        mmu = core.mmu
        hierarchy = core.hierarchy
        fast = hierarchy.fastmem
        walk_get, page_bytes, tlb_sets, tlb_num_sets = mmu.l1_hit_probe()
        if fast is None:
            walk_get = memo_get = _NO_ENTRY
            ncores = l1_latency = 0
        else:
            memo_get, ncores, l1_latency = fast.core_probe(core.core_id)
        self._mmu = mmu
        self._fast = fast
        self._probe = (
            mmu.translate, hierarchy.access_from_core,
            walk_get, page_bytes, tlb_sets, tlb_num_sets,
            memo_get, ncores, l1_latency,
        )

    # ------------------------------------------------------------------ #

    @property
    def finished(self) -> bool:
        # The completion list has one slot per op, and its ``len`` is C's
        # (``Trace.__len__`` is a Python call; ``step`` asks per op).
        return self._index >= len(self._completion)

    def local_time(self) -> int:
        """The core's current frontier (its next dispatch opportunity)."""
        return max(self._dispatch_cycle, self._fetch_ready)

    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Process the next op in program order."""
        if self.finished:
            raise SimulationError("stepping a finished execution")
        self.run_until(self._index + 1)

    def run_until(self, stop: int) -> None:
        """Process ops in program order up to (excluding) index ``stop``.

        The execution state lives in locals for the call and is written
        back even when an op raises, which leaves ``_index`` at that op.
        """
        trace = self.trace
        kinds, deps, args = trace.kinds, trace.deps, trace.args
        stop = min(stop, len(kinds))
        i = start = self._index
        if i >= stop:
            return
        core = self.core
        cfg = core.config
        rob_entries = cfg.rob_entries
        issue_width = cfg.issue_width
        mispredict_cycles = cfg.branch_mispredict_cycles
        core_id = core.core_id
        (
            translate, access, walk_get, page_bytes, tlb_sets, tlb_num_sets,
            memo_get, ncores, l1_latency,
        ) = self._probe
        execute_external = core._execute_external
        external = self.external
        completion = self._completion
        unresolved = self._unresolved
        lq, sq = self._lq, self._sq
        result = self.result
        fetch_ready = self._fetch_ready
        dispatch_cycle = self._dispatch_cycle
        dispatched = self._dispatched_this_cycle
        last = self._last_completion
        loads = stores = branches = mispredicts = stalls = stall_cycles = 0
        memory_cycles = 0
        levels: Dict[CacheLevelName, int] = {}  # accesses per level, this call
        tlb_hits = l1_hits = 0  # replayed by the probe, this call
        ALU, BRANCH, IFETCH = OpKind.ALU, OpKind.BRANCH, OpKind.IFETCH_STALL
        LOAD, STORE = OpKind.LOAD, OpKind.STORE
        QUERY_B, QUERY_NB = OpKind.QUERY_B, OpKind.QUERY_NB
        try:
            while i < stop:
                kind = kinds[i]

                # ---------------- frontend / dispatch ------------------- #
                earliest = fetch_ready if fetch_ready > dispatch_cycle else dispatch_cycle
                if i >= rob_entries:
                    head = completion[i - rob_entries]
                    if type(head) is not int:
                        head = completion[i - rob_entries] = head.resolve()
                    if head > earliest:
                        earliest = head
                # The LQ holds LOAD_LIKE ops, the SQ STORE_LIKE ops (isa.py).
                if kind is ALU:
                    window = None
                elif kind is LOAD or kind is QUERY_B:
                    window = lq
                elif kind is STORE or kind is QUERY_NB:
                    window = sq
                else:
                    window = None
                if window is not None and len(window) == window.maxlen:
                    oldest = completion[window[0]]
                    if type(oldest) is not int:
                        oldest = completion[window[0]] = oldest.resolve()
                    if oldest > earliest:
                        earliest = oldest

                if earliest > dispatch_cycle:
                    dispatch_cycle = earliest
                    dispatched = 0
                elif dispatched >= issue_width:
                    dispatch_cycle += 1
                    dispatched = 0
                dispatched += 1

                # ---------------- execute ------------------------------- #
                ready = dispatch_cycle
                dep = deps[i]
                if type(dep) is int:
                    if dep >= 0:
                        if dep >= i:
                            raise SimulationError(
                                f"op {i} depends on later op {dep}; malformed trace"
                            )
                        dep_done = completion[dep]
                        if type(dep_done) is not int:
                            dep_done = completion[dep] = dep_done.resolve()
                        if dep_done > ready:
                            ready = dep_done
                else:
                    for dep in dep:
                        if dep >= 0:
                            if dep >= i:
                                raise SimulationError(
                                    f"op {i} depends on later op {dep}; malformed trace"
                                )
                            dep_done = completion[dep]
                            if type(dep_done) is not int:
                                dep_done = completion[dep] = dep_done.resolve()
                            if dep_done > ready:
                                ready = dep_done

                if kind is ALU:
                    done = ready + (args[i] or 1)
                elif kind is LOAD:
                    loads += 1
                    vaddr = args[i]
                    if vaddr is None:
                        raise SimulationError("memory op without an address")
                    # An L1-dTLB hit overlaps the cache access: it costs 0.
                    entry = walk_get((vaddr // page_bytes, "r"))
                    if entry is not None:
                        tlb_key = entry[0]
                        tlb_set = tlb_sets[tlb_key % tlb_num_sets]
                        base = tlb_set.pop(tlb_key, None)
                    else:
                        base = None
                    if base is not None:
                        tlb_set[tlb_key] = base
                        tlb_hits += 1
                        paddr = base + vaddr % entry[2]
                        cost = 0
                    else:
                        paddr, cost, tlb_level = translate(vaddr, "r")
                        if tlb_level == 0:
                            cost = 0
                    # Key and record layout: FastMem.core_probe.
                    line = paddr // CACHELINE_BYTES
                    rec = memo_get(((line * ncores + core_id) << 3) | 0b011)
                    if rec is not None and rec[3][rec[4]] == rec[5]:
                        entry_set = rec[1]
                        tag = rec[2]
                        if next(reversed(entry_set)) != tag:
                            entry_set[tag] = entry_set.pop(tag)
                        if not l1_hits:
                            levels.setdefault(_L1, 0)  # first-seen order
                        l1_hits += 1
                        cost += l1_latency
                    else:
                        latency, level, _, _ = access(core_id, paddr, now=ready)
                        levels[level] = levels.get(level, 0) + 1
                        cost += latency
                    memory_cycles += cost
                    done = ready + cost
                elif kind is BRANCH:
                    branches += 1
                    done = ready + 1
                    if args[i]:
                        fetch_ready = done + mispredict_cycles
                        mispredicts += 1
                elif kind is STORE:
                    # Stores retire through the store buffer: the pipeline
                    # sees a 1-cycle cost; the cache access is charged for
                    # statistics.
                    stores += 1
                    vaddr = args[i]
                    if vaddr is None:
                        raise SimulationError("memory op without an address")
                    entry = walk_get((vaddr // page_bytes, "w"))
                    if entry is not None:
                        tlb_key = entry[0]
                        tlb_set = tlb_sets[tlb_key % tlb_num_sets]
                        base = tlb_set.pop(tlb_key, None)
                    else:
                        base = None
                    if base is not None:
                        tlb_set[tlb_key] = base
                        tlb_hits += 1
                        paddr = base + vaddr % entry[2]
                        cost = 0
                    else:
                        paddr, cost, tlb_level = translate(vaddr, "w")
                        if tlb_level == 0:
                            cost = 0
                    line = paddr // CACHELINE_BYTES
                    rec = memo_get(((line * ncores + core_id) << 3) | 0b111)
                    if rec is not None and rec[3][rec[4]] == rec[5]:
                        entry_set = rec[1]
                        tag = rec[2]
                        if next(reversed(entry_set)) != tag:
                            del entry_set[tag]
                        entry_set[tag] = True  # dirty, most recently used
                        if not l1_hits:
                            levels.setdefault(_L1, 0)
                        l1_hits += 1
                        cost += l1_latency
                    else:
                        latency, level, _, _ = access(
                            core_id, paddr, write=True, now=ready
                        )
                        levels[level] = levels.get(level, 0) + 1
                        cost += latency
                    memory_cycles += cost
                    done = ready + 1
                elif kind is IFETCH:
                    # The fetch unit stalls for the given cycles from
                    # dispatch; the pseudo-op retires no instruction.
                    cycles = args[i]
                    done = ready + (cycles or 1)
                    if done > fetch_ready:
                        fetch_ready = done
                    stalls += 1
                    stall_cycles += cycles or 0
                else:
                    done = execute_external(trace[i], ready, result, external)
                    if type(done) is not int:
                        unresolved.append(i)
                if window is not None:
                    window.append(i)
                completion[i] = done
                if type(done) is int and done > last:
                    last = done
                i += 1
        finally:
            self._index = i
            self._fetch_ready = fetch_ready
            self._dispatch_cycle = dispatch_cycle
            self._dispatched_this_cycle = dispatched
            self._last_completion = last
            result.loads += loads
            result.stores += stores
            result.branches += branches
            result.branch_mispredicts += mispredicts
            result.frontend_stall_cycles += stall_cycles
            result.instructions += i - start - stalls
            result.memory_cycles += memory_cycles
            if tlb_hits:
                self._mmu.count_l1_hits(tlb_hits)
            if l1_hits:
                levels[_L1] += l1_hits
                self._fast.count_core_hits(core_id, l1_hits)
            breakdown = result.level_breakdown
            for level, count in levels.items():
                name = _LEVEL_VALUE[level]
                breakdown[name] = breakdown.get(name, 0) + count

    # ------------------------------------------------------------------ #

    def finish(self) -> CoreResult:
        """Resolve outstanding completions and produce the final result."""
        if self._finished_result is not None:
            return self._finished_result
        if not self.finished:
            raise SimulationError("finish() before the trace is exhausted")
        last = self._last_completion
        completion = self._completion
        for i in self._unresolved:
            value = completion[i]
            if type(value) is not int:
                value = completion[i] = value.resolve()
            if value > last:
                last = value
        result = self.result
        result.end_cycle = last
        result.cycles = last - self.start_cycle
        self.core._retired.add(result.instructions)
        self.core._cycles.add(result.cycles)
        self._finished_result = result
        return result
