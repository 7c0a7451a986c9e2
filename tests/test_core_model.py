"""Unit tests for the OoO core timing model.

The behaviours asserted here are exactly the ones the paper's analysis
depends on: MLP for independent loads, serialisation for dependent loads,
frontend cost of mispredicted branches, and ROB-window limits.
"""

import pytest

from repro.config import small_config
from repro.cpu import OoOCore, TraceBuilder
from repro.errors import SimulationError
from repro.mem import AddressSpace, MemoryHierarchy, Mmu, PhysicalMemory


@pytest.fixture
def system():
    cfg = small_config()
    hierarchy = MemoryHierarchy(cfg)
    space = AddressSpace(PhysicalMemory(cfg.memory_bytes))
    for i in range(1, 512):
        space.map_page(i * 4096)
    mmu = Mmu(space, [cfg.core.l1_dtlb, cfg.core.l2_tlb])
    core = OoOCore(0, cfg.core, hierarchy, mmu)
    return cfg, core, space


def warm(core, addrs):
    """Prime TLBs and caches so timing tests measure steady state."""
    b = TraceBuilder()
    for a in addrs:
        b.load(a)
    core.execute(b.trace)


def test_empty_trace_costs_nothing(system):
    _, core, _ = system
    res = core.execute(TraceBuilder().trace)
    assert res.cycles == 0
    assert res.instructions == 0


def test_alu_chain_serialises(system):
    _, core, _ = system
    b = TraceBuilder()
    b.alu(count=100)
    res = core.execute(b.trace)
    assert res.cycles >= 100


def test_independent_alus_reach_issue_width(system):
    cfg, core, _ = system
    b = TraceBuilder()
    for _ in range(400):
        b.alu()
    res = core.execute(b.trace)
    assert res.ipc == pytest.approx(cfg.core.issue_width, rel=0.1)


def test_independent_loads_overlap(system):
    _, core, _ = system
    addrs = [0x1000 + i * 4096 for i in range(8)]
    warm(core, [a for a in addrs])  # TLB warm, caches warm
    # Now evict caches but keep TLB: use fresh lines in the same pages.
    b_ind = TraceBuilder()
    for a in addrs:
        b_ind.load(a + 128)
    independent = core.execute(b_ind.trace).cycles

    b_dep = TraceBuilder()
    prev = b_dep.load(addrs[0] + 256)
    for a in addrs[1:]:
        prev = b_dep.load(a + 256, deps=(prev,))
    dependent = core.execute(b_dep.trace).cycles

    assert dependent > 3 * independent


def test_mispredicted_branch_stalls_frontend(system):
    cfg, core, _ = system
    b_good = TraceBuilder()
    for _ in range(50):
        b_good.alu()
        b_good.branch()
    good = core.execute(b_good.trace).cycles

    b_bad = TraceBuilder()
    for _ in range(50):
        b_bad.alu()
        b_bad.branch(mispredicted=True)
    bad = core.execute(b_bad.trace).cycles
    assert bad >= good + 40 * cfg.core.branch_mispredict_cycles


def test_rob_window_limits_mlp(system):
    cfg, core, space = system
    # More independent loads than the ROB can hold, with filler between
    # them, so the window limit binds.
    warm(core, [0x1000])
    b = TraceBuilder()
    for i in range(4):
        b.load(0x100000 + i * 4096)
        b.other_work(cfg.core.rob_entries)
    res = core.execute(b.trace)
    assert res.loads == 4
    # With the window full of filler, loads can't all overlap: the run must
    # be longer than one DRAM latency + filler issue time.
    assert res.cycles > cfg.dram.latency_cycles


def test_stores_do_not_block_pipeline(system):
    _, core, _ = system
    warm(core, [0x3000])
    b = TraceBuilder()
    for i in range(64):
        b.store(0x3000 + (i % 4) * 8)
    res = core.execute(b.trace)
    assert res.cycles < 200
    assert res.stores == 64


def test_query_without_resolver_raises(system):
    _, core, _ = system
    b = TraceBuilder()
    b.query_b(payload=None)
    with pytest.raises(SimulationError):
        core.execute(b.trace)


def test_external_resolver_invoked(system):
    _, core, _ = system
    b = TraceBuilder()
    q = b.query_b(payload="q1")
    b.alu(deps=(q,))
    seen = []

    def resolver(op, issue):
        seen.append((op.payload, issue))
        return issue + 500, 0

    res = core.execute(b.trace, external=resolver)
    assert seen and seen[0][0] == "q1"
    assert res.cycles >= 500
    assert res.queries_issued == 1


def test_external_completion_before_issue_rejected(system):
    _, core, _ = system
    b = TraceBuilder()
    b.alu(count=10)
    b.query_b(payload=None, deps=(9,))
    with pytest.raises(SimulationError):
        core.execute(b.trace, external=lambda op, issue: (0, 0))


def test_malformed_forward_dependence_rejected(system):
    _, core, _ = system
    b = TraceBuilder()
    b.alu(deps=(5,))  # op 0 depends on a later op
    with pytest.raises(SimulationError):
        core.execute(b.trace)


def test_level_breakdown_recorded(system):
    _, core, _ = system
    b = TraceBuilder()
    b.load(0x5000)
    b.load(0x5000)
    res = core.execute(b.trace)
    assert res.level_breakdown.get("dram") == 1
    assert res.level_breakdown.get("l1") == 1
