"""Lockstep property tests: the batched LLC warm-up against a per-line one.

``System.warm_llc`` buckets every mapped line by its home slice and hands
each slice its bucket in one ``Cache.fill_lines`` call, which inserts new
tags into sets with a free way inline and sends a present tag or a full
set through ``Cache.fill``.  :func:`reference_warm_llc` below is the
warm-up it replaced: ``slice_of`` plus ``Cache.fill`` for every line, in
mapping order.

Both run on identical systems with random page tables (scattered frames
and a 2MB huge page), a small LLC, and an LLC pre-filled with dirty and
clean lines, some of them mapped and some sets full to associativity, so
the warm-up takes the present-tag and eviction branches (the Fig. 7 warm-up
never evicts).  Every slice's set contents in LRU order with dirty bits,
its ``set_epochs``, its eviction and writeback counters, the dedicated
TLBs' contents and the whole stats snapshot must be equal.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro import small_config  # noqa: E402
from repro.config import CacheConfig, LlcConfig  # noqa: E402
from repro.mem import Cache  # noqa: E402
from repro.system import System  # noqa: E402

PAGE = 4096
HUGE = 2 * 1024 * 1024
#: Small pages live in the first 2MB; huge pages at 2MB-aligned hpn >= 1.
SMALL_VPNS = st.lists(st.integers(1, HUGE // PAGE - 1), max_size=24, unique=True)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def reference_warm_llc(system: System) -> None:
    """The per-line warm-up: home slice, then ``Cache.fill``, line by line."""
    space = system.space
    hierarchy = system.hierarchy
    page = space.page_bytes
    lines_per_page = page // 64
    pairs = []
    for vpn, entry in space.page_table:
        pairs.append((vpn, entry.frame_number * page))
        base_line = entry.frame_number * lines_per_page
        for i in range(lines_per_page):
            line = base_line + i
            hierarchy.llc_slices[hierarchy.slice_of(line)].fill(line)
    for hpn, base_frame in space.huge_pages():
        pairs.append((space.HUGE_KEY_BASE + hpn, base_frame * page))
        base_line = base_frame * lines_per_page
        for i in range(space.HUGE_PAGE_BYTES // 64):
            line = base_line + i
            hierarchy.llc_slices[hierarchy.slice_of(line)].fill(line)
    system.integration.warm_translations(pairs)


def build_system(ways, sets, vpns, huge_first, hpns, freed, prefill_seed):
    """A system with a random page table and a partly filled, dirty LLC."""
    cfg = small_config()
    cfg = dataclasses.replace(
        cfg,
        llc=LlcConfig(
            total_size_bytes=cfg.llc.slices * sets * ways * 64,
            associativity=ways,
            slices=cfg.llc.slices,
        ),
    )
    system = System(cfg, "cha-tlb")
    space = system.space
    physical = space.physical
    # Free some early frames so later pages land on scattered frames.
    held = [physical.allocate_frame() for _ in range(len(freed))]
    for frame, free in zip(held, freed):
        if free:
            physical.free_frame(frame)
    if huge_first:
        for hpn in hpns:
            space.map_huge_page(hpn * HUGE)
    for vpn in vpns:
        space.map_page(vpn * PAGE)
    if not huge_first:
        for hpn in hpns:
            space.map_huge_page(hpn * HUGE)

    rng = random.Random(prefill_seed)
    hierarchy = system.hierarchy
    mapped = [entry.frame_number * 64 + rng.randrange(64) for _, entry in space.page_table]
    mapped += [base * 64 + rng.randrange(HUGE // 64) for _, base in space.huge_pages()]
    # Mapped lines already resident (dirty or clean) in their home slice.
    for line in rng.sample(mapped, len(mapped) // 2):
        hierarchy.llc_slices[hierarchy.slice_of(line)].fill(
            line, dirty=rng.random() < 0.5
        )
    # Whole sets filled to associativity with unrelated, mostly dirty lines.
    for cache in hierarchy.llc_slices:
        for index in rng.sample(range(cache.num_sets), max(1, cache.num_sets // 4)):
            for _ in range(cache.associativity):
                tag = rng.randrange(1 << 20, 1 << 21)
                cache.fill(tag * cache.num_sets + index, dirty=rng.random() < 0.8)
    return system


def cache_state(cache: Cache):
    return (
        [list(entry_set.items()) for entry_set in cache._sets],
        list(cache.set_epochs),
        cache._evictions.value,
        cache._writebacks.value,
    )


def system_state(system: System):
    return (
        [cache_state(cache) for cache in system.hierarchy.llc_slices],
        [[list(s.items()) for s in tlb._sets] for tlb in system.integration.cha_tlbs],
        system.stats.snapshot(),
    )


SYSTEMS = st.tuples(
    st.sampled_from([2, 4, 11]),          # ways
    st.sampled_from([8, 64, 512]),        # sets per slice
    SMALL_VPNS,
    st.booleans(),                        # huge page mapped before the small ones
    st.lists(st.integers(1, 6), min_size=1, max_size=1),
    st.lists(st.booleans(), max_size=40),  # early frames held, some freed
    st.integers(0, 2**32),
)


@given(spec=SYSTEMS)
@SETTINGS
def test_warm_llc_matches_per_line_reference(spec):
    new = build_system(*spec)
    ref = build_system(*spec)
    assert system_state(new) == system_state(ref)
    new.warm_llc()
    reference_warm_llc(ref)
    assert system_state(new) == system_state(ref)


def test_warm_llc_takes_every_fill_branch():
    """The prefilled shape reaches present tags, evictions and writebacks."""
    new = build_system(4, 64, list(range(1, 20)), False, [3], [True, False] * 8, 5)
    ref = build_system(4, 64, list(range(1, 20)), False, [3], [True, False] * 8, 5)
    before = [cache_state(c) for c in new.hierarchy.llc_slices]
    new.warm_llc()
    reference_warm_llc(ref)
    assert system_state(new) == system_state(ref)
    after = [cache_state(c) for c in new.hierarchy.llc_slices]
    assert sum(a[2] - b[2] for a, b in zip(after, before)) > 0  # evictions
    assert sum(a[3] - b[3] for a, b in zip(after, before)) > 0  # writebacks


@given(
    ways=st.integers(1, 4),
    sets=st.sampled_from([1, 2, 8]),
    prefill=st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=40),
    lines=st.lists(st.integers(0, 63), max_size=120),
)
@settings(max_examples=200, deadline=None)
def test_fill_lines_matches_fill_per_line(ways, sets, prefill, lines):
    def build():
        cache = Cache(CacheConfig(ways * sets * 64, ways, 1))
        for line, dirty in prefill:
            cache.fill(line, dirty=dirty)
        return cache

    new, ref = build(), build()
    new.fill_lines(lines)
    for line in lines:
        ref.fill(line)
    assert cache_state(new) == cache_state(ref)
