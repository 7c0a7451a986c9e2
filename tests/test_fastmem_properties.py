"""Lockstep property tests for the epoch-memoized memory fast path.

Two :class:`MemoryHierarchy` instances — one as built, one with the memo
layer unbound (``tests/mem_reference.py``) — are driven through identical
random access streams (mixed core/slice origin, reads and writes, per-line
and whole-cache invalidates, private/full flushes, warm sweeps, prefetch on
and off).  After every access the returned :class:`AccessResult`\\ s must
be equal, and at the end the *entire* visible state must match: every cache
set's contents in exact LRU order (dirty bits included), DRAM channel
timing, NoC link traffic, and the full stats snapshot.

This is the executable form of the epoch contract documented in
mem/fastpath.py: if a memoized replay ever diverged from the reference walk
— a missed epoch bump, a wrong LRU touch, a dropped counter — some stream
found by hypothesis would catch it here.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import (  # noqa: E402
    CacheConfig,
    CoreConfig,
    DramConfig,
    LlcConfig,
    NocConfig,
    SystemConfig,
    TlbConfig,
)
from repro.mem.hierarchy import MemoryHierarchy  # noqa: E402
from repro.noc.mesh import MeshNoc  # noqa: E402
from repro.sim.stats import StatsRegistry  # noqa: E402

from .mem_reference import MEMO_BOUND, memo_off  # noqa: E402

NUM_CORES = 2
#: Line-address universe: small enough that random streams revisit lines
#: (exercising the memo) and overflow the tiny sets (exercising epochs).
MAX_LINE = 64


def _tiny_config() -> SystemConfig:
    # Deliberately miniature caches: 2-4 lines per set so random streams
    # constantly evict, invalidating memo records mid-stream.
    return SystemConfig(
        num_cores=NUM_CORES,
        core=CoreConfig(
            l1d=CacheConfig(4 * 64, 2, 4),        # 2 sets x 2 ways
            l2=CacheConfig(8 * 64, 2, 14),        # 4 sets x 2 ways
            l1_dtlb=TlbConfig(8, 2, 1),
            l2_tlb=TlbConfig(16, 2, 9),
        ),
        llc=LlcConfig(
            total_size_bytes=NUM_CORES * 8 * 64,  # 4 lines/slice, 2-way
            associativity=2,
            slices=NUM_CORES,
        ),
        dram=DramConfig(channels=2),
        noc=NocConfig(width=2, height=1),
        memory_bytes=1024 * 1024,
    )


def _build_pair():
    config = _tiny_config()
    pair = []
    for _ in range(2):
        # One registry for the mesh and the hierarchy, as in a System, so
        # the hierarchy's snapshot covers the NoC counters too.
        stats = StatsRegistry()
        noc = MeshNoc(config.noc, stats=stats)
        pair.append((MemoryHierarchy(config, stats=stats, noc=noc), noc))
    (fast, fast_noc), (slow, slow_noc) = pair
    memo_off(slow)
    assert all(name in vars(fast) for name in MEMO_BOUND)
    assert not any(name in vars(slow) for name in MEMO_BOUND)
    return fast, fast_noc, slow, slow_noc


_core_access = st.tuples(
    st.just("core"),
    st.integers(0, NUM_CORES - 1),
    st.integers(0, MAX_LINE - 1),
    st.booleans(),  # write
    st.booleans(),  # fill_l1
    st.booleans(),  # fill_l2
)
_slice_access = st.tuples(
    st.just("slice"),
    st.integers(0, NUM_CORES - 1),
    st.integers(0, MAX_LINE - 1),
    st.booleans(),  # write
)
_invalidate = st.tuples(
    st.just("invalidate"),
    st.sampled_from(["l1", "l2", "llc"]),
    st.integers(0, NUM_CORES - 1),
    st.one_of(st.none(), st.integers(0, MAX_LINE - 1)),
)
_flush_private = st.tuples(st.just("flush_private"), st.integers(0, NUM_CORES - 1))
_flush_all = st.tuples(st.just("flush_all"))
_warm = st.tuples(
    st.just("warm"),
    st.integers(0, NUM_CORES - 1),
    st.lists(st.integers(0, MAX_LINE - 1), min_size=1, max_size=12),
)

_ops = st.lists(
    st.one_of(
        _core_access,
        _core_access,
        _core_access,  # weight toward accesses
        _slice_access,
        _slice_access,
        _invalidate,
        _flush_private,
        _flush_all,
        _warm,
    ),
    min_size=1,
    max_size=120,
)


def _apply(hierarchy, op, now):
    kind = op[0]
    if kind == "core":
        _, core, line, write, fill_l1, fill_l2 = op
        return hierarchy.access_from_core(
            core, line * 64 + 8, write=write, now=now,
            fill_l1=fill_l1, fill_l2=fill_l2,
        )
    if kind == "slice":
        _, slice_id, line, write = op
        return hierarchy.access_from_slice(
            slice_id, line * 64 + 8, write=write, now=now
        )
    if kind == "invalidate":
        _, level, idx, line = op
        target = {
            "l1": hierarchy.l1[idx],
            "l2": hierarchy.l2[idx],
            "llc": hierarchy.llc_slices[idx],
        }[level]
        target.invalidate(line)
        return None
    if kind == "flush_private":
        hierarchy.flush_private(op[1])
        return None
    if kind == "flush_all":
        hierarchy.flush_all()
        return None
    assert kind == "warm"
    hierarchy.warm_lines(op[1], [line * 64 for line in op[2]])
    return None


def _cache_state(cache):
    return [list(entry_set.items()) for entry_set in cache._sets]


def _assert_same_state(fast, fast_noc, slow, slow_noc):
    # Snapshots flush pending batched counts on both sides first.
    assert fast.stats.snapshot() == slow.stats.snapshot()
    for a, b in zip(fast.l1 + fast.l2 + fast.llc_slices,
                    slow.l1 + slow.l2 + slow.llc_slices):
        # Exact per-set contents, including LRU *order* and dirty bits.
        assert _cache_state(a) == _cache_state(b), a.name
    assert fast.dram._channel_free_at == slow.dram._channel_free_at
    fast_noc._flush_charges()
    assert fast_noc._link_bytes == slow_noc._link_bytes


@settings(max_examples=60, deadline=None)
@given(ops=_ops, prefetch=st.booleans())
def test_lockstep_random_streams(ops, prefetch):
    fast, fast_noc, slow, slow_noc = _build_pair()
    fast.next_line_prefetch = prefetch
    slow.next_line_prefetch = prefetch
    for step, op in enumerate(ops):
        now = step * 3
        fast_result = _apply(fast, op, now)
        slow_result = _apply(slow, op, now)
        assert fast_result == slow_result, (step, op)
    _assert_same_state(fast, fast_noc, slow, slow_noc)


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_lockstep_repeated_hot_lines(ops):
    # Replay the same stream three times: the later passes run almost
    # entirely out of the memo (MRU short-circuit included) and must still
    # track the reference exactly.
    fast, fast_noc, slow, slow_noc = _build_pair()
    for round_no in range(3):
        for step, op in enumerate(ops):
            now = (round_no * len(ops) + step) * 2
            assert _apply(fast, op, now) == _apply(slow, op, now), (round_no, op)
    _assert_same_state(fast, fast_noc, slow, slow_noc)


def test_mru_short_circuit_preserves_dirty_promotion():
    # A clean MRU line written through the memo must become dirty without
    # disturbing LRU order — the one mutation the short-circuit performs.
    fast, fast_noc, slow, slow_noc = _build_pair()
    for h in (fast, slow):
        h.access_from_core(0, 0, fill_l1=True)          # miss -> fill
        h.access_from_core(0, 0, fill_l1=True)          # hit (memoized)
        h.access_from_core(0, 0, write=True, fill_l1=True)  # MRU write
    _assert_same_state(fast, fast_noc, slow, slow_noc)
    tag, index = divmod(0, fast.l1[0].num_sets)
    assert fast.l1[0]._sets[index][tag] is True  # dirty bit promoted


def test_memo_invalidated_by_flush():
    fast, fast_noc, slow, slow_noc = _build_pair()
    for h in (fast, slow):
        h.access_from_core(0, 4096)
        h.access_from_core(0, 4096)
        h.flush_all()
        h.access_from_core(0, 4096)  # must re-walk: DRAM again, not L1 hit
    _assert_same_state(fast, fast_noc, slow, slow_noc)


def test_warm_lines_equivalent_to_loop():
    fast, fast_noc, slow, slow_noc = _build_pair()
    paddrs = [line * 64 for line in (0, 1, 2, 3, 0, 1, 2, 3, 0, 1)]
    fast.warm_lines(1, paddrs)
    for paddr in paddrs:
        slow.access_from_core(1, paddr)
    _assert_same_state(fast, fast_noc, slow, slow_noc)
