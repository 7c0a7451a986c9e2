"""Co-runner interference study: QEI vs software under a noisy neighbour.

Cloud CPUs are shared; query latency on a real machine depends on what the
*other* cores are doing to the LLC and DRAM.  This study co-runs each query
workload with a streaming antagonist (a memory-bandwidth hog on another
core) and compares how much the software baseline and the QEI version each
degrade — a consequence of the paper's design the evaluation section
doesn't isolate, but that its QoS motivation (Sec. II-B challenge 2)
implies.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import small_config
from ..cpu import TraceBuilder, run_multiprogrammed
from ..system import System
from . import snapshot
from .experiments import workload_params
from .report import ExperimentResult

#: The streaming co-runner's private buffer (MB) and its passes over it.
ANTAGONIST_MB = 8
ANTAGONIST_PASSES = 2


def streaming_antagonist(system: System):
    """A core-1 trace that streams through a large private buffer."""
    footprint_bytes = ANTAGONIST_MB * 1024 * 1024
    base = system.mem.alloc(footprint_bytes, align=64)
    builder = TraceBuilder()
    for _ in range(ANTAGONIST_PASSES):
        for offset in range(0, footprint_bytes, 64 * 2):  # strided stream
            builder.load(base + offset)
            builder.alu()
    return builder.trace


def corun_interference(
    *,
    quick: bool = True,
    workloads: Optional[List[str]] = None,
) -> ExperimentResult:
    """Slowdown of software vs QEI queries under a streaming co-runner.

    Runs on the scaled-down 4-core machine so the antagonist's footprint
    actually exceeds the LLC and evicts the victim's working set (on the
    full 33MB-LLC machine an 8MB stream is absorbed without contention).
    """
    result = ExperimentResult(
        "Interference",
        f"query slowdown with a {ANTAGONIST_MB}MB streaming co-runner",
        [
            "workload",
            "software_slowdown_pct",
            "qei_slowdown_pct",
        ],
        notes=[
            "both victims degrade heavily once the antagonist exceeds the"
            " LLC: the software baseline is partially shielded by its"
            " private L1/L2 copies, while QEI's near-LLC compares depend"
            " on LLC residency — co-location effects matter for both",
        ],
    )
    for name in workloads or ["dpdk", "jvm"]:
        params = workload_params(name, quick)

        def machine():
            return snapshot.build(name, params, "core-integrated", small_config())

        def solo_baseline():
            system, workload = machine()
            system.warm_llc()
            trace, _ = workload.baseline_trace()
            return system.cores[0].execute(trace).cycles

        def corun_baseline():
            system, workload = machine()
            antagonist = streaming_antagonist(system)
            system.warm_llc()
            trace, _ = workload.baseline_trace()
            multi = run_multiprogrammed(
                [(system.cores[0], trace), (system.cores[1], antagonist)]
            )
            return multi.per_core[0].cycles

        def solo_qei():
            system, workload = machine()
            system.warm_llc()
            port = system.query_port(0)
            trace = workload.qei_trace()
            return system.run_trace(trace, port=port).cycles

        def corun_qei():
            system, workload = machine()
            antagonist = streaming_antagonist(system)
            system.warm_llc()
            port = system.query_port(0)
            trace = workload.qei_trace()
            multi = run_multiprogrammed(
                [(system.cores[0], trace), (system.cores[1], antagonist)],
                externals={0: port},
            )
            return multi.per_core[0].cycles

        base_solo, base_corun = solo_baseline(), corun_baseline()
        qei_solo, qei_corun = solo_qei(), corun_qei()
        result.add_row(
            workload=name,
            software_slowdown_pct=100 * (base_corun / base_solo - 1),
            qei_slowdown_pct=100 * (qei_corun / qei_solo - 1),
        )
    return result
