"""Reference cluster loop: the test oracle for ``SimulatedCluster``'s loop.

These are the original ``SimulatedCluster.run`` and ``drain`` bodies,
which pumped every node after every engine event.  They are kept
unchanged except for the imports.  The cluster now pumps only the nodes
whose server woke it; with these bodies patched in, every drill must
produce a byte-identical ``report.dump()``
(``tests/test_cluster_loop_lockstep.py``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.serve.cluster.cluster import (
    _STALL_GUARD_STEPS,
    ClusterError,
    ClusterReport,
    SimulatedCluster,
)


def run(
    self,
    *,
    on_tick: Optional[Callable[["SimulatedCluster"], None]] = None,
) -> ClusterReport:
    """Drive the whole fleet to completion and build the report.

    Mirrors :meth:`QueryServer.run` one level up: step the shared
    engine, then pump every node outside the step so software-fallback
    detours (which advance engine time) never nest inside it.
    """
    start = self.engine.now
    self.slo.begin_phase("baseline", start)
    self.prober.start()
    for manager in self.managers:
        manager.start()
    for generator in self.generators:
        generator.start()
    steps = 0
    while not self._finished():
        progressed = self.engine.step()
        for node in self.nodes:
            node.pump()
        if on_tick is not None:
            on_tick(self)
        if not progressed:
            if self._finished():
                break
            if any([node.flush() for node in self.nodes]):
                continue
            raise ClusterError(
                "cluster loop stalled: no events pending but "
                f"{self.lb.outstanding} requests outstanding at the LB"
            )
        steps += 1
        if steps > _STALL_GUARD_STEPS:
            raise ClusterError("cluster loop exceeded its step guard")
    return self._report(self.engine.now - start)


def drain(self, cycles: int) -> None:
    """Advance the simulation with no client load (chaos stragglers)."""
    deadline = self.engine.now + cycles
    while self.engine.peek_time() is not None and (
        self.engine.peek_time() <= deadline
    ):
        self.engine.step()
        for node in self.nodes:
            node.pump()
