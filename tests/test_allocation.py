"""Allocation guards for a Fig. 7 pair.

A pair builds two Systems, generates a software-baseline trace of about
100k ops and drops everything again.  These tests pin the three ways that
used to cost host seconds without changing a simulated number: one
``MicroOp`` object per trace op, one dict per cache set, and Systems that
only the cyclic garbage collector could free.  The last also holds for the
serving tier and the cluster drills, whose Systems used to sit in
callback cycles until a full collection, for the accelerator's compiled
CFA step tables, whose hand-specialized closures used to call each other,
for a hierarchy built without a NoC, which used to hold its own bound
hop-latency method, and for the load balancer's resolved requests, which
used to sit in a cycle with their timeout events.  A cluster's pickled
replica image lives only while the cluster is being built, and a finished
chaos drill, like a cluster run whose engine is cleared, drops the events
still queued on its engine, which used to hold whole fleets in a cycle.
"""

from __future__ import annotations

import gc
import json
import sys
import types
import weakref
from pathlib import Path

import pytest

from repro import small_config
from repro.analysis import experiments
from repro.config import ClusterConfig
from repro.core.cfa import OP_UPDATE
from repro.core.mutations import make_mutator
from repro.core.programs import HashOfListsCfa
from repro.core.programs_ext import BPlusTreeCfa
from repro.cpu import TraceBuilder
from repro.datastructs import CuckooHashTable
from repro.faults.chaos import run_recovery_chaos
from repro.mem import cache as cache_module
from repro.mem.hierarchy import MemoryHierarchy
from repro.serve import SimulatedCluster, serve_experiment
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


def test_compiled_step_tables_die_by_refcount():
    system = System(small_config())
    system.enable_mutations()
    system.firmware.register(BPlusTreeCfa())
    system.firmware.register(HashOfListsCfa())
    table = CuckooHashTable(system.mem, key_length=16, num_buckets=8)
    key = b"k".ljust(16, b"_")
    table.insert(key, 1)
    # One write through the accelerator compiles both tables.
    system.mutations().run(make_mutator(system, table), OP_UPDATE, key, 2)
    accelerator = system.accelerator
    steps = [
        entry.step
        for compiled in (accelerator._compiled_lookup, accelerator._compiled_mut)
        for entry in compiled.values()
    ] + [accelerator._dispatch.step]
    assert len(steps) == 7 + 1 + 1
    # Every function a step can reach through closure cells must die too.
    reachable, stack = {}, list(steps)
    while stack:
        fn = stack.pop()
        if id(fn) not in reachable:
            reachable[id(fn)] = fn
            for cell in getattr(fn, "__closure__", None) or ():
                if isinstance(cell.cell_contents, types.FunctionType):
                    stack.append(cell.cell_contents)
    refs = [weakref.ref(fn) for fn in reachable.values()] + [weakref.ref(system)]
    del reachable, stack, fn
    del steps, accelerator, table
    gc.collect()
    gc.disable()
    try:
        del system
        alive = [r() for r in refs if r() is not None]
    finally:
        gc.enable()
    assert alive == []


def test_hierarchy_without_noc_dies_by_refcount():
    hierarchy = MemoryHierarchy(small_config())
    assert hierarchy._hop_latency(0, 3) > 0
    ref = weakref.ref(hierarchy)
    gc.collect()
    gc.disable()
    try:
        del hierarchy
        alive = ref()
    finally:
        gc.enable()
    assert alive is None


def test_resolved_cluster_requests_die_by_refcount():
    from repro.serve.cluster.lb import _Pending

    gc.collect()
    gc.disable()
    try:
        RUNS["recovery-drill"]()
        stranded = sum(type(obj) is _Pending for obj in gc.get_objects())
    finally:
        gc.enable()
    assert stranded == 0


def test_replica_image_is_dropped_when_the_cluster_is_built(monkeypatch):
    from repro.serve.cluster import cluster as cluster_module
    from repro.workloads import snapshot as workload_snapshot

    images, holders = [], []

    class Tracked(workload_snapshot.WorkloadSnapshot):
        # No __slots__: instances take weak references.
        def restore(self, scheme, **kwargs):
            # The snapshot's own slot and the call's argument: nothing
            # else holds the pickled bytes.
            holders.append(sys.getrefcount(self._template))
            return super().restore(scheme, **kwargs)

    real_init = Tracked.__init__

    def init(self, *args):
        real_init(self, *args)
        images.append(weakref.ref(self))

    monkeypatch.setattr(Tracked, "__init__", init)
    monkeypatch.setattr(cluster_module, "WorkloadSnapshot", Tracked)
    gc.collect()
    gc.disable()
    try:
        cluster = cluster_module.SimulatedCluster("cha-tlb", seed=7)
        alive = [ref() for ref in images if ref() is not None]
    finally:
        gc.enable()
    assert len(images) == 1
    assert holders == [2] * (cluster.config.nodes - 1)
    assert alive == []


def test_finished_drill_leaves_no_cyclic_garbage():
    # Seed 9 at drill size ends with probes, request timeouts and messages
    # still queued; their callbacks held the fleet, Systems included, in
    # a cycle with the engine until a full collection.
    gc.collect()
    gc.disable()
    try:
        run_recovery_chaos(
            "cha-tlb", seed=9, requests=400, nodes=6, replication=2, quorum=2,
            verify=False,
        )
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_cleared_cluster_run_leaves_no_cyclic_garbage():
    # A finished cluster still has probes and request timeouts queued on
    # its engine; they held the fleet in a cycle with it.
    gc.collect()
    gc.disable()
    try:
        cluster = SimulatedCluster(
            "cha-tlb", cluster_config=ClusterConfig(nodes=4), requests=100
        )
        cluster.run()
        cluster.engine.clear()
        del cluster
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
