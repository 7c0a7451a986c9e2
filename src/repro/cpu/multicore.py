"""Multi-programmed multicore execution.

Interleaves several cores' trace executions in (approximate) global time
order: each scheduling step advances the core whose local frontier is
earliest, so accesses from different cores reach the shared LLC slices,
NoC links and DRAM channels in a realistic order and contend there.

This is a *multi-programmed* model (independent traces, no shared-data
races), which matches the paper's context: many tenants' query-heavy
processes sharing one CPU's uncore.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .core import CoreExecution, CoreResult, ExternalResolver, OoOCore
from .trace import Trace


@dataclass
class MulticoreResult:
    """Per-core results plus aggregate statistics."""

    per_core: Dict[int, CoreResult]

    @property
    def total_instructions(self) -> int:
        return sum(r.instructions for r in self.per_core.values())

    @property
    def makespan(self) -> int:
        """Cycles until the slowest core finished."""
        return max(r.end_cycle for r in self.per_core.values()) - min(
            r.start_cycle for r in self.per_core.values()
        )

    @property
    def aggregate_throughput(self) -> float:
        """Instructions per cycle summed over all cores."""
        return self.total_instructions / self.makespan if self.makespan else 0.0


def run_multiprogrammed(
    jobs: Sequence[Tuple[OoOCore, Trace]],
    *,
    externals: Optional[Dict[int, ExternalResolver]] = None,
) -> MulticoreResult:
    """Run one trace per core, interleaved by local time.

    Args:
        jobs: (core, trace) pairs; each core may appear at most once.
        externals: optional per-core-id query-port resolvers.

    Returns:
        Per-core results; each core's cycles reflect the contention its
        accesses saw from the other cores' interleaved traffic.
    """
    seen = set()
    for core, _ in jobs:
        if core.core_id in seen:
            raise SimulationError(f"core {core.core_id} appears twice")
        seen.add(core.core_id)

    externals = externals or {}
    executions: List[CoreExecution] = [
        core.begin(trace, external=externals.get(core.core_id))
        for core, trace in jobs
    ]

    # Min-heap over (local_time, order, execution): always advance the
    # core that is earliest in simulated time.
    heap = [
        (execution.local_time(), order, execution)
        for order, execution in enumerate(executions)
    ]
    heapq.heapify(heap)
    while heap:
        _, order, execution = heapq.heappop(heap)
        execution.step()
        if not execution.finished:
            heapq.heappush(heap, (execution.local_time(), order, execution))

    return MulticoreResult(
        per_core={
            execution.core.core_id: execution.finish() for execution in executions
        }
    )
