"""Property-based tests on the OoO core timing model.

Random traces must obey structural timing invariants: issue-width bounds,
monotonicity under added work, and dependence causality.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import small_config
from repro.cpu import OoOCore, TraceBuilder
from repro.mem import AddressSpace, MemoryHierarchy, Mmu, PhysicalMemory

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fresh_core():
    cfg = small_config()
    hierarchy = MemoryHierarchy(cfg)
    space = AddressSpace(PhysicalMemory(cfg.memory_bytes))
    for i in range(1, 128):
        space.map_page(i * 4096)
    mmu = Mmu(space, [cfg.core.l1_dtlb, cfg.core.l2_tlb])
    return OoOCore(0, cfg.core, hierarchy, mmu), cfg


def random_trace(seed: int, length: int) -> TraceBuilder:
    """A random but well-formed trace (deps always point backwards)."""
    rng = random.Random(seed)
    builder = TraceBuilder()
    for i in range(length):
        deps = ()
        if i and rng.random() < 0.5:
            deps = (rng.randrange(i),)
        kind = rng.random()
        if kind < 0.4:
            builder.load(0x1000 + rng.randrange(100) * 512, deps)
        elif kind < 0.5:
            builder.branch(deps, mispredicted=rng.random() < 0.2)
        else:
            builder.alu(deps)
    return builder


@given(seed=st.integers(0, 10_000), length=st.integers(1, 300))
@SLOW
def test_cycles_bounded_below_by_issue_width(seed, length):
    core, cfg = fresh_core()
    result = core.execute(random_trace(seed, length).trace)
    assert result.cycles >= (length - 1) // cfg.core.issue_width
    assert result.instructions == length


@given(seed=st.integers(0, 10_000), length=st.integers(1, 150))
@SLOW
def test_appending_work_never_reduces_cycles(seed, length):
    core, _ = fresh_core()
    builder = random_trace(seed, length)
    short = core.execute(builder.trace).cycles

    core2, _ = fresh_core()
    longer = random_trace(seed, length)
    longer.alu(count=20)
    assert core2.execute(longer.trace).cycles >= short


@given(seed=st.integers(0, 10_000))
@SLOW
def test_mispredicts_never_speed_things_up(seed):
    core_a, _ = fresh_core()
    builder = TraceBuilder()
    rng = random.Random(seed)
    outcomes = [rng.random() < 0.5 for _ in range(60)]
    for flip in outcomes:
        builder.alu()
        builder.branch(mispredicted=False)
    clean = core_a.execute(builder.trace).cycles

    core_b, _ = fresh_core()
    builder = TraceBuilder()
    for flip in outcomes:
        builder.alu()
        builder.branch(mispredicted=flip)
    noisy = core_b.execute(builder.trace).cycles
    assert noisy >= clean


@given(seed=st.integers(0, 10_000), length=st.integers(2, 120))
@SLOW
def test_start_cycle_shifts_results_uniformly(seed, length):
    core_a, _ = fresh_core()
    base = core_a.execute(random_trace(seed, length).trace, start_cycle=0)
    core_b, _ = fresh_core()
    shifted = core_b.execute(random_trace(seed, length).trace, start_cycle=1000)
    assert shifted.cycles == base.cycles
    assert shifted.end_cycle == base.end_cycle + 1000


@given(seed=st.integers(0, 10_000))
@SLOW
def test_level_breakdown_accounts_every_load(seed):
    core, _ = fresh_core()
    trace = random_trace(seed, 120).trace
    result = core.execute(trace)
    assert sum(result.level_breakdown.values()) == result.loads
