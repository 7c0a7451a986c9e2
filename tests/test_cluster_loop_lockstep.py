"""Lockstep tests: the work-driven cluster loop against the reference loop.

``SimulatedCluster.run`` and ``drain`` pump only the nodes whose server's
wake hook fired since their last pump.  ``tests/cluster_reference.py``
holds the original bodies, which pumped every node after every engine
event.  With the reference patched in, each drill below must produce a
byte-identical ``report.dump()``.  The invariant test checks why that
holds: after every step, a node outside the ready set has a pump that
would do nothing.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import run_cluster_chaos, run_recovery_chaos
from repro.serve.cluster import SimulatedCluster

from . import cluster_reference

DRILLS = {
    **{
        f"recovery-120x4-seed{seed}": (
            lambda seed=seed: run_recovery_chaos(
                "cha-tlb", seed=seed, requests=120, nodes=4, verify=False
            )
        )
        for seed in (1, 2, 3)
    },
    # Violates the W=2 contract today (ROADMAP item 1), hence verify=False.
    "recovery-400x6-seed6": lambda: run_recovery_chaos(
        "cha-tlb", seed=6, requests=400, nodes=6, verify=False
    ),
    "cluster-160x4": lambda: run_cluster_chaos(
        "cha-tlb", seed=7, requests=160, nodes=4
    ),
    "cluster-8x4": lambda: run_cluster_chaos(
        "cha-tlb", seed=7, requests=8, nodes=4
    ),
}


@pytest.mark.parametrize("drill", sorted(DRILLS))
def test_drill_matches_reference_loop(drill, monkeypatch):
    run = DRILLS[drill]
    actual = run().dump()
    monkeypatch.setattr(SimulatedCluster, "run", cluster_reference.run)
    monkeypatch.setattr(SimulatedCluster, "drain", cluster_reference.drain)
    assert actual == run().dump()


def _pump_has_work(node) -> bool:
    server = node.server
    return bool(
        server._completions
        or (server.frontend.pending and server._outstanding < server.limit)
    )


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_recovery_chaos(
            "cha-tlb", seed=1, requests=120, nodes=4, verify=False
        ),
        lambda: run_cluster_chaos("cha-tlb", seed=7, requests=160, nodes=4),
    ],
    ids=["recovery-120x4", "cluster-160x4"],
)
def test_nodes_outside_the_ready_set_have_nothing_to_pump(run, monkeypatch):
    step = SimulatedCluster._step
    seen = {"steps": 0, "ready": 0}

    def checked_step(self):
        ready = set(self._ready)
        progressed = step(self)
        seen["steps"] += 1
        seen["ready"] += len(ready)
        for node in self.nodes:
            if node.node_id not in self._ready:
                assert not _pump_has_work(node), (
                    f"node {node.node_id} has work but is not ready"
                )
        return progressed

    monkeypatch.setattr(SimulatedCluster, "_step", checked_step)
    run()
    assert seen["steps"] > 1000
    assert seen["ready"] > 0
