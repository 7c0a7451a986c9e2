"""Lockstep property tests: the OoO core loop against the reference step.

``CoreExecution.run_until`` keeps its window state in locals, times ALU,
branch and fetch-stall ops inline, reads the ROB head straight out of the
completion list and resolves only the promises it has not resolved yet.
``tests/core_reference.py`` is the original one-op step it replaced.  Both
run identical random traces over every op kind on fresh, identical cores,
with ROB, LQ and SQ sizes small enough that every window fills, and with
external ops that complete either at a known cycle or through a promise
whose resolution is logged.  Every :class:`CoreResult` field, the level
breakdown, the core's stats counters and the order in which promises are
resolved must be equal.

The loop times a load or store with one probe that replays an L1-dTLB
hit and a FastMem L1-hit record in place, and falls back to
``Mmu.translate`` and ``access_from_core`` on a miss.  A second geometry,
with tiny private caches, more pages than the L1 dTLB holds, a 2MB huge
page and a read-only page, sends random load and store streams through
every translation outcome (L1-dTLB hit, L2-TLB hit, page walk) and every
cache level, against a reference whose hierarchy runs the unmemoized walk
(``tests/mem_reference.py``).  There the MMU and TLB counters must be
equal too, and so must the TLB sets in LRU order, every cache set with its
dirty bits and every set's epoch, also when the TLBs and private caches
are flushed between chunks.  Protection faults and unmapped accesses must
raise at the same op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro import small_config  # noqa: E402
from repro.config import CacheConfig  # noqa: E402
from repro.core.isa import CompletionPromise  # noqa: E402
from repro.cpu import OoOCore  # noqa: E402
from repro.cpu.isa import OpKind  # noqa: E402
from repro.cpu.multicore import run_multiprogrammed  # noqa: E402
from repro.cpu.trace import TraceBuilder  # noqa: E402
from repro.errors import (  # noqa: E402
    ProtectionFault,
    SegmentationFault,
    SimulationError,
)
from repro.mem import AddressSpace, MemoryHierarchy, Mmu, PhysicalMemory  # noqa: E402

from .core_reference import ReferenceExecution, reference_execute  # noqa: E402
from .mem_reference import memo_off  # noqa: E402

PAGES = 32
LINES = PAGES * 4096 // 64
#: (rob, lq, sq) sizes; the last is small_config()'s own core.
WINDOWS = [(4, 2, 2), (12, 3, 5), (32, 8, 6), (224, 72, 56)]
KINDS = list(OpKind)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


#: The wide geometry: twice the L1 dTLB's 64 entries, and private caches
#: of 1KB (L1, 2-way) and 8KB (L2, 4-way) so reuse reaches L2 and the LLC.
WIDE_PAGES = 128
WIDE_LINES = WIDE_PAGES * 4096 // 64
#: It also maps one 2MB huge page, which lines from WIDE_LINES on reach,
#: and one read-only page; the page between them and the rest stays
#: unmapped.
HUGE_BASE = 2 * 1024 * 1024
HUGE_LINES = HUGE_BASE // 64
READ_ONLY_LINE = WIDE_LINES + 64  # line 0 of page WIDE_PAGES + 2
UNMAPPED_LINE = WIDE_LINES  # line 0 of page WIDE_PAGES + 1


def vaddr_of(line):
    """Lines below WIDE_LINES + 128 are the small pages, then the huge page."""
    if line < WIDE_LINES + 128:
        return 4096 + line * 64
    return HUGE_BASE + (line - WIDE_LINES - 128) * 64


def build_cores(windows, num_cores=1, wide=False):
    """Fresh cores sharing one hierarchy and one mapped address space."""
    cfg = small_config()
    if wide:
        cfg = dataclasses.replace(
            cfg,
            core=dataclasses.replace(
                cfg.core, l1d=CacheConfig(1024, 2, 4), l2=CacheConfig(8192, 4, 14)
            ),
        )
    rob, lq, sq = windows
    core_cfg = dataclasses.replace(
        cfg.core, rob_entries=rob, load_queue_entries=lq, store_queue_entries=sq
    )
    hierarchy = MemoryHierarchy(cfg)
    space = AddressSpace(PhysicalMemory(cfg.memory_bytes))
    for page in range(1, (WIDE_PAGES if wide else PAGES) + 1):
        space.map_page(page * 4096)
    if wide:
        space.map_page(vaddr_of(READ_ONLY_LINE), writable=False)
        space.map_huge_page(HUGE_BASE)
    return [
        OoOCore(c, core_cfg, hierarchy, Mmu(space, [cfg.core.l1_dtlb, cfg.core.l2_tlb]))
        for c in range(num_cores)
    ]


#: One op: (kind, dep offsets, line, mispredicted, latency, promise?, extra).
OP = st.tuples(
    st.sampled_from(KINDS),
    st.lists(st.integers(-1, 40), max_size=3),
    st.integers(0, LINES - 1),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 12)),
    st.booleans(),
    st.integers(0, 3),
)
TRACE_SPECS = st.lists(OP, min_size=1, max_size=300)


def make_trace(specs, tag=0, extra_deps=None):
    """Build a well-formed trace: deps point backwards or are negative.

    ``extra_deps`` maps an op index to one more dependence to give it,
    which may point forwards (a malformed trace).
    """
    builder = TraceBuilder()
    for i, (kind, offsets, line, mispredicted, latency, promise, extra) in enumerate(
        specs
    ):
        deps = tuple(i - off if 0 < off <= i else -1 for off in offsets)
        if extra_deps and i in extra_deps:
            deps += (extra_deps[i],)
        vaddr = vaddr_of(line)
        payload = (tag, i, promise, (latency or 0) * 37, extra)
        if kind is OpKind.LOAD:
            builder.load(vaddr, deps)
        elif kind is OpKind.STORE:
            builder.store(vaddr, deps)
        elif kind is OpKind.ALU:
            builder.alu(deps, latency=latency)
        elif kind is OpKind.BRANCH:
            builder.branch(deps, mispredicted=mispredicted)
        elif kind is OpKind.IFETCH_STALL:
            builder.ifetch_stall(latency, deps)
        elif kind is OpKind.QUERY_B:
            builder.query_b(payload, deps)
        elif kind is OpKind.QUERY_NB:
            builder.query_nb(payload, deps)
        else:
            builder.wait_result(payload, deps)
    return builder.trace


def make_external(log):
    """A query port stand-in: int completions or logged promises."""

    def external(op, issue):
        tag, index, promise, latency, extra = op.payload
        done = issue + latency
        if not promise:
            return done, extra

        def resolve():
            log.append((tag, index))
            return done

        return CompletionPromise(resolve), extra

    return external


def run_both(specs, windows, chunks=None, wide=False):
    """Run one trace through the core loop and through the reference.

    The wide geometry's reference runs the unmemoized walk as well.
    """
    trace = make_trace(specs)
    (new_core,) = build_cores(windows, wide=wide)
    (ref_core,) = build_cores(windows, wide=wide)
    if wide:
        memo_off(ref_core.hierarchy)
    new_log, ref_log = [], []
    if chunks is None:
        new = new_core.execute(trace, start_cycle=5, external=make_external(new_log))
    else:
        execution = new_core.begin(
            trace, start_cycle=5, external=make_external(new_log)
        )
        rng = random.Random(chunks)
        while not execution.finished:
            if rng.random() < 0.5:
                execution.step()
            else:
                execution.run_until(execution._index + rng.randrange(1, 40))
        new = execution.finish()
    ref = reference_execute(
        ref_core, trace, start_cycle=5, external=make_external(ref_log)
    )
    return new, ref, new_log, ref_log, new_core, ref_core


def assert_same(new, ref, new_log, ref_log, new_core, ref_core):
    assert dataclasses.asdict(new) == dataclasses.asdict(ref)
    assert new.level_breakdown == ref.level_breakdown
    assert new_log == ref_log
    assert new_core.stats.snapshot() == ref_core.stats.snapshot()
    assert new_core.hierarchy.stats.snapshot() == ref_core.hierarchy.stats.snapshot()
    assert new_core.mmu.stats.snapshot() == ref_core.mmu.stats.snapshot()


def memory_state(core):
    """TLB sets in LRU order, cache sets with dirty bits, set epochs."""
    hierarchy = core.hierarchy
    caches = hierarchy.l1 + hierarchy.l2 + hierarchy.llc_slices
    return (
        [[list(s.items()) for s in tlb._sets] for tlb in core.mmu.tlbs],
        [[list(s.items()) for s in cache._sets] for cache in caches],
        [list(cache.set_epochs) for cache in caches],
    )


@given(specs=TRACE_SPECS, windows=st.sampled_from(WINDOWS))
@SETTINGS
def test_core_loop_matches_reference(specs, windows):
    assert_same(*run_both(specs, windows))


@given(
    specs=TRACE_SPECS,
    windows=st.sampled_from(WINDOWS),
    chunks=st.integers(0, 10_000),
)
@SETTINGS
def test_chunked_run_until_matches_reference(specs, windows, chunks):
    assert_same(*run_both(specs, windows, chunks=chunks))


def test_windows_saturate_on_default_core():
    """Long DRAM-missing load and store streams fill ROB, LQ and SQ."""
    specs = []
    for i in range(600):
        kind = [OpKind.LOAD, OpKind.STORE, OpKind.QUERY_B, OpKind.QUERY_NB][i % 4]
        specs.append((kind, [], (i * 67) % LINES, False, 10, i % 8 == 2, 0))
    new, ref, new_log, ref_log, new_core, ref_core = run_both(specs, WINDOWS[-1])
    assert_same(new, ref, new_log, ref_log, new_core, ref_core)
    assert ref_log, "no promise was ever resolved"
    # A full window throttles dispatch: far below 4 ops per cycle.
    assert new.cycles > len(specs) // 2


#: A load or store over the wide geometry: a hot line, a line in a hot
#: page, any small-page line, or a hot or any line of the huge page, so
#: each translation outcome and cache level recurs.
HUGE_FIRST = WIDE_LINES + 128
MEM_OP = st.tuples(
    st.sampled_from([OpKind.LOAD, OpKind.STORE]),
    st.lists(st.integers(-1, 40), max_size=2),
    st.one_of(
        st.integers(0, 15),
        st.integers(0, 4 * 64 - 1),
        st.integers(0, WIDE_LINES - 1),
        st.integers(HUGE_FIRST, HUGE_FIRST + 31),
        st.integers(HUGE_FIRST, HUGE_FIRST + HUGE_LINES - 1),
    ),
    st.just(False),
    st.none(),
    st.just(False),
    st.just(0),
)


@given(
    specs=st.lists(st.one_of(MEM_OP, MEM_OP, OP), min_size=1, max_size=300),
    windows=st.sampled_from(WINDOWS),
)
@SETTINGS
def test_memory_ops_match_reference_on_every_outcome(specs, windows):
    # memory_cycles, level_breakdown and the MMU/TLB counters included.
    new, ref, new_log, ref_log, new_core, ref_core = run_both(
        specs, windows, wide=True
    )
    assert_same(new, ref, new_log, ref_log, new_core, ref_core)
    assert memory_state(new_core) == memory_state(ref_core)


#: Between chunks: flush every TLB, shoot down one page, flush the
#: private caches or drop one line, on both sides alike.
FLUSH = st.sampled_from(["none", "tlb", "page", "private", "line"])


def apply_flush(core, flush, line):
    if flush == "tlb":
        core.mmu.flush()
    elif flush == "page":
        core.mmu.invalidate(vaddr_of(line) // 4096)
    elif flush == "private":
        core.hierarchy.flush_private(core.core_id)
    elif flush == "line":
        core.hierarchy.l1[core.core_id].invalidate(line)


@given(
    specs=st.lists(st.one_of(MEM_OP, MEM_OP, OP), min_size=1, max_size=300),
    cuts=st.lists(
        st.tuples(st.integers(1, 60), FLUSH, st.integers(0, WIDE_LINES - 1)),
        max_size=8,
    ),
    windows=st.sampled_from(WINDOWS),
)
@SETTINGS
def test_flushes_between_chunks_match_reference(specs, cuts, windows):
    """The probe holds the L1 dTLB's set list: flushes must reach it."""
    trace = make_trace(specs)
    (new_core,) = build_cores(windows, wide=True)
    (ref_core,) = build_cores(windows, wide=True)
    memo_off(ref_core.hierarchy)
    new = new_core.begin(trace, start_cycle=5, external=make_external([]))
    ref = ReferenceExecution(ref_core, trace, start_cycle=5,
                             external=make_external([]))
    for length, flush, line in cuts + [(len(trace), "none", 0)]:
        stop = min(len(trace), new._index + length)
        new.run_until(stop)
        while ref._index < stop:
            ref.step()
        apply_flush(new_core, flush, line)
        apply_flush(ref_core, flush, line)
    assert_same(new.finish(), ref.finish(), [], [], new_core, ref_core)
    assert memory_state(new_core) == memory_state(ref_core)


def outcome_counts(core, result):
    """Translation outcomes and cache levels one execution reached."""
    mmu = core.mmu.stats.snapshot()
    return (
        mmu["mmu.tlb0.hits"],  # L1-dTLB hits
        mmu["mmu.tlb1.hits"],  # L2-TLB hits
        mmu["mmu.page_walks"],
        *(result.level_breakdown.get(lv, 0) for lv in ("l1", "l2", "llc", "dram")),
    )


@pytest.mark.parametrize("kind", [OpKind.LOAD, OpKind.STORE])
def test_wide_stream_reaches_every_outcome(kind):
    """A seeded stream of one kind takes all 3 translations and 4 levels."""
    rng = random.Random(7)
    lines = [rng.choice([rng.randrange(16), rng.randrange(WIDE_LINES)])
             for _ in range(1500)]
    specs = [(kind, [], line, False, None, False, 0) for line in lines]
    new, ref, new_log, ref_log, new_core, ref_core = run_both(
        specs, WINDOWS[1], wide=True
    )
    assert_same(new, ref, new_log, ref_log, new_core, ref_core)
    counts = outcome_counts(new_core, new)
    assert all(counts), counts
    assert counts == outcome_counts(ref_core, ref)


@contextlib.contextmanager
def begin_with(execution_cls):
    """Make ``OoOCore.begin`` start a reference execution instead."""
    original = OoOCore.begin
    OoOCore.begin = lambda core, trace, **kw: execution_cls(core, trace, **kw)
    try:
        yield
    finally:
        OoOCore.begin = original


@given(
    specs=st.lists(st.lists(OP, min_size=1, max_size=120), min_size=2, max_size=3),
    windows=st.sampled_from(WINDOWS),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_multiprogrammed_matches_reference(specs, windows):
    traces = [make_trace(s, tag) for tag, s in enumerate(specs)]

    def run():
        cores = build_cores(windows, len(traces))
        log = []
        result = run_multiprogrammed(
            list(zip(cores, traces)),
            externals={c.core_id: make_external(log) for c in cores},
        )
        per_core = {k: dataclasses.asdict(v) for k, v in result.per_core.items()}
        return per_core, log, cores[0].hierarchy.stats.snapshot()

    new = run()
    with begin_with(ReferenceExecution):
        assert new == run()


def stop_state(execution, run):
    try:
        run()
    except (SimulationError, SegmentationFault, ProtectionFault) as exc:
        return (
            type(exc),
            str(exc),
            execution._index,
            dataclasses.asdict(execution.result),
            execution.local_time(),
        )
    raise AssertionError("trace did not raise")


def stop_states(trace, windows, wide=False):
    """Where the core loop and the reference stop on a trace that raises.

    In the wide geometry the reference runs the unmemoized walk, and the
    two memory states must also be equal where they stop.
    """
    (new_core,) = build_cores(windows, wide=wide)
    (ref_core,) = build_cores(windows, wide=wide)
    if wide:
        memo_off(ref_core.hierarchy)
    new = new_core.begin(trace, external=make_external([]))
    ref = ReferenceExecution(ref_core, trace, external=make_external([]))

    def step_reference():
        while not ref.finished:
            ref.step()

    states = (
        stop_state(new, lambda: new.run_until(len(trace))),
        stop_state(ref, step_reference),
    )
    if wide:
        assert memory_state(new_core) == memory_state(ref_core)
        assert new_core.mmu.stats.snapshot() == ref_core.mmu.stats.snapshot()
        assert (
            new_core.hierarchy.stats.snapshot() == ref_core.hierarchy.stats.snapshot()
        )
    return states


@given(
    specs=st.lists(OP, min_size=1, max_size=80),
    bad=st.integers(0, 79),
    forward=st.integers(0, 5),
    windows=st.sampled_from(WINDOWS),
)
@SETTINGS
def test_forward_dependence_raises_at_same_index(specs, bad, forward, windows):
    bad %= len(specs)
    trace = make_trace(specs, extra_deps={bad: bad + forward})
    new_state, ref_state = stop_states(trace, windows)
    assert new_state == ref_state
    assert new_state[2] == bad


def test_unmapped_load_faults_at_same_index():
    specs = [(OpKind.ALU, [1], 0, False, None, False, 0)] * 30
    # Line (PAGES + 4) * 64 lies in page PAGES + 5, which is never mapped.
    specs.insert(17, (OpKind.LOAD, [], (PAGES + 4) * 64, False, None, False, 0))
    trace = make_trace(specs)
    new_state, ref_state = stop_states(trace, WINDOWS[1])
    assert new_state == ref_state
    assert new_state[0] is SegmentationFault
    assert new_state[2] == 17


def read_only_load(offset):
    return (OpKind.LOAD, [], READ_ONLY_LINE + offset, False, None, False, 0)


@given(
    specs=st.lists(
        st.one_of(MEM_OP, OP, st.integers(0, 63).map(read_only_load)),
        min_size=1, max_size=80,
    ),
    bad=st.integers(0, 79),
    offset=st.integers(0, 63),
    windows=st.sampled_from(WINDOWS),
)
@SETTINGS
def test_store_to_read_only_page_faults_at_same_index(specs, bad, offset, windows):
    """Loads put the page in the L1 dTLB; the store must still fault."""
    bad %= len(specs)
    specs = specs[:bad] + [read_only_load(offset)] * 2 + specs[bad:]
    specs.insert(bad + 2, (OpKind.STORE, [], READ_ONLY_LINE + offset,
                           False, None, False, 0))
    new_state, ref_state = stop_states(make_trace(specs), windows, wide=True)
    assert new_state == ref_state
    assert new_state[0] is ProtectionFault
    assert new_state[2] == bad + 2


@given(
    specs=st.lists(st.one_of(MEM_OP, OP), min_size=1, max_size=80),
    bad=st.integers(0, 79),
    kind=st.sampled_from([OpKind.LOAD, OpKind.STORE]),
    offset=st.integers(0, 63),
    windows=st.sampled_from(WINDOWS),
)
@SETTINGS
def test_unmapped_access_faults_at_same_index(specs, bad, kind, offset, windows):
    bad %= len(specs)
    specs = list(specs)
    specs.insert(bad, (kind, [], UNMAPPED_LINE + offset, False, None, False, 0))
    new_state, ref_state = stop_states(make_trace(specs), windows, wide=True)
    assert new_state == ref_state
    assert new_state[0] is SegmentationFault
    assert new_state[2] == bad


@given(
    specs=st.lists(st.one_of(MEM_OP, OP), min_size=1, max_size=80),
    bad=st.integers(0, 79),
    kind=st.sampled_from([OpKind.LOAD, OpKind.STORE]),
    windows=st.sampled_from(WINDOWS),
)
@SETTINGS
def test_memory_op_without_address_raises_at_same_index(specs, bad, kind, windows):
    bad %= len(specs)
    trace = make_trace(specs)
    trace.kinds[bad] = kind
    trace.args[bad] = None
    new_state, ref_state = stop_states(trace, windows, wide=True)
    assert new_state == ref_state
    assert new_state[0] is SimulationError
    assert new_state[1] == "memory op without an address"
    assert new_state[2] == bad
