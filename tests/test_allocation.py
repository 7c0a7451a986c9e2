"""Allocation guards for a Fig. 7 pair.

A pair builds two Systems, generates a software-baseline trace of about
100k ops and drops everything again.  These tests pin the three ways that
used to cost host seconds without changing a simulated number: one
``MicroOp`` object per trace op, one dict per cache set, and Systems that
only the cyclic garbage collector could free.  The last also holds for the
serving tier and the cluster drills, whose Systems used to sit in
callback cycles until a full collection.
"""

from __future__ import annotations

import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.cpu import TraceBuilder
from repro.faults.chaos import run_recovery_chaos
from repro.mem import cache as cache_module
from repro.serve import serve_experiment
from repro.system import System

GOLDEN = json.loads(Path(__file__).with_name("golden_stats.json").read_text())


def _caches(system):
    hierarchy = system.hierarchy
    return hierarchy.l1 + hierarchy.l2 + hierarchy.llc_slices


def test_baseline_trace_allocates_no_per_op_objects():
    _, workload = experiments._build("snort", "cha-tlb", True)
    # The first call fills the address space's page-walk memos; the second
    # measures the trace alone.
    workload.baseline_trace()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        trace, _ = workload.baseline_trace()
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(trace) > 100_000
    assert added < len(trace) // 100


def test_system_construction_builds_no_cache_sets():
    system = System()
    caches = _caches(system)
    assert sum(c.num_sets for c in caches) > 10_000
    assert {id(s) for c in caches for s in c._sets} == {id(cache_module._EMPTY)}

    base = system.mem.alloc(8 * 64, align=64)
    builder = TraceBuilder()
    for line in range(8):
        builder.load(base + line * 64)
    system.run_trace(builder.trace)
    assert cache_module._EMPTY == {}
    private = [s for c in caches for s in c._sets if s is not cache_module._EMPTY]
    assert private and all(private)


def _pair(monkeypatch, refs=None):
    """``_pair_stats`` for dpdk/cha-tlb from an empty pair memo."""
    monkeypatch.setattr(experiments, "_PAIR_MEMO", {})
    if refs is not None:
        real_build = experiments._build

        def build(*args, **kwargs):
            system, workload = real_build(*args, **kwargs)
            refs.append(weakref.ref(system.hierarchy))
            refs.extend(weakref.ref(c) for c in _caches(system))
            return system, workload

        monkeypatch.setattr(experiments, "_build", build)
    return experiments._pair_stats("dpdk", "cha-tlb", True)


def test_pair_systems_are_freed_by_refcount(monkeypatch):
    expected = _pair(monkeypatch)
    refs = []
    gc.collect()
    gc.disable()
    try:
        baseline, qei, delta_b, delta_q = _pair(monkeypatch, refs)
        alive = [r() for r in refs if r() is not None]
    finally:
        gc.enable()
    per_system = 1 + len(_caches(System()))
    assert len(refs) == 2 * per_system
    assert alive == []
    golden = GOLDEN["pairs"]["dpdk/cha-tlb"]
    assert (baseline.cycles, qei.cycles) == (golden["baseline_cycles"], golden["qei_cycles"])
    assert (delta_b, delta_q) == expected[2:]


RUNS = {
    "serve": lambda: serve_experiment(
        schemes=["cha-tlb"], tenants=2, requests=300, seed=7
    ),
    "recovery-drill": lambda: run_recovery_chaos(
        "cha-tlb", seed=7, requests=120, nodes=4, tenants=2
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_finished_runs_free_their_systems(run, monkeypatch):
    refs = []
    real_init = System.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(System, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        RUNS[run]()
        alive = [r() for r in refs if r() is not None]
    finally:
        gc.enable()
    assert refs
    assert alive == []
