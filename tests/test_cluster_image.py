"""One image per fleet: a cluster's replicas restore node 0's dataset.

``SimulatedCluster`` populates node 0 with ``make_workload`` and restores
every other node from one pickled ``WorkloadSnapshot`` of it.  The claim
is that a restored replica is indistinguishable from a fresh build: the
same page table, the same frame bytes, the same workload attributes.  And
since the drills are deterministic, a drill report must not depend on
whether the image is used: the test builds a cold fleet, every node
populated, by patching the cluster's image step out.
"""

from __future__ import annotations

from repro.config import small_config
from repro.faults.chaos import run_recovery_chaos
from repro.serve.cluster import cluster as cluster_module
from repro.serve.cluster.cluster import CLUSTER_CORES, CLUSTER_DPDK, SimulatedCluster
from repro.system import System
from repro.workloads import make_workload
from repro.workloads import snapshot as workload_snapshot

SEED = 11


def _canonical(obj, ids):
    """A structural image of ``obj``'s object graph.

    Two graphs get equal images iff they hold equal values in the same
    shape, with the same mutable objects shared; which equal strings or
    ints happen to be one object (interning) does not matter.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, tuple):
        return ("tuple", [_canonical(item, ids) for item in obj])
    if id(obj) in ids:
        return ("ref", ids[id(obj)])
    ids[id(obj)] = len(ids)
    if isinstance(obj, bytearray):
        return ("bytearray", bytes(obj))
    if isinstance(obj, list):
        return ("list", [_canonical(item, ids) for item in obj])
    if isinstance(obj, dict):
        return ("dict", [
            (_canonical(k, ids), _canonical(v, ids)) for k, v in obj.items()
        ])
    assert not isinstance(obj, (set, frozenset)), "order-free; compare sorted"
    slots = [
        (name, getattr(obj, name))
        for cls in type(obj).__mro__
        for name in cls.__dict__.get("__slots__", ())
        if hasattr(obj, name)
    ]
    return (type(obj).__qualname__, _canonical(getattr(obj, "__dict__", {}), ids),
            _canonical(slots, ids))


def _image(system, workload):
    """Page table, frames and workload attributes, as a fresh build has them."""
    space = system.mem.space
    state = {k: v for k, v in vars(workload).items() if k != "system"}
    return (
        list(space.page_table._entries.items()),
        space.physical._frames,
        _canonical(state, {}),
    )


def test_restored_replicas_equal_a_fresh_build(monkeypatch):
    # Record each replica's image the moment it is restored, before the
    # node wraps it (servers, replication and LLC warm-up come after).
    restored = []

    class Recording(workload_snapshot.WorkloadSnapshot):
        __slots__ = ()

        def restore(self, scheme, **kwargs):
            system, built = super().restore(scheme, **kwargs)
            restored.append(_image(system, built))
            return system, built

    monkeypatch.setattr(cluster_module, "WorkloadSnapshot", Recording)
    cluster = SimulatedCluster("cha-tlb", seed=SEED)
    assert len(restored) == cluster.config.nodes - 1

    system = System(small_config(CLUSTER_CORES), "cha-tlb")
    fresh = _image(system, make_workload("dpdk", system, seed=SEED, **CLUSTER_DPDK))
    assert fresh[0] and fresh[1]
    for image in restored:
        assert image[0] == fresh[0]  # page table, in mapping order
        assert image[1] == fresh[1]  # frame number -> frame bytes
        assert image[2] == fresh[2]  # workload attributes, minus system


def test_no_snapshot_drill_report_is_byte_identical(monkeypatch):
    # The drill's seed 6 at drill size (400 requests, 6 nodes, R=2, W=2):
    # the fleet built node by node reports exactly what the restored fleet
    # does, the violation included.
    def drill():
        return run_recovery_chaos(
            "cha-tlb", seed=6, requests=400, nodes=6, replication=2, quorum=2,
            verify=False,
        ).dump()

    restored = drill()
    # No image: every node finds none and populates its own dataset.
    monkeypatch.setattr(cluster_module, "WorkloadSnapshot", lambda *args: None)
    assert drill() == restored
