"""Chip-wide scalability study: offered load from many cores.

Tab. I grades the schemes' *scalability* qualitatively (CHA-based and
Core-integrated "Good", device-based "Medium").  This study quantifies it:
N cores concurrently offer query streams to the accelerator fabric and we
measure sustained throughput (queries per kilocycle) as N grows.

* Core-integrated: each core drives its own private engine (QST=10 each),
  so capacity scales with N by construction.
* CHA schemes: queries spread across the 24 per-slice accelerators.
* Device schemes: one centralized engine serves everyone; its single
  interface and NoC stop saturate.

The drive bypasses the core pipeline models (pure offered load), which is
exactly what a multi-programmed throughput experiment measures.
"""

from __future__ import annotations

from typing import List

from ..core.accelerator import QeiAccelerator, QueryRequest
from ..core.integration import build_integration
from ..core.programs import default_firmware
from ..datastructs import CuckooHashTable
from ..system import System
from ..workloads.generator import make_keys
from .report import ExperimentResult

#: Querying core counts swept, each core's query count and its issue gap.
CORE_COUNTS = (1, 4, 12, 24)
QUERIES_PER_CORE = 16
ISSUE_GAP_CYCLES = 30


def _build_core_private_accelerators(system: System, cores: int) -> List[QeiAccelerator]:
    """Per-core engines for the core-integrated scheme (one QST each)."""
    accelerators = [system.accelerator]
    for core in range(1, cores):
        integration = build_integration(
            "core-integrated",
            system.config,
            system.hierarchy,
            system.noc,
            system.space,
            system.core_mmus,
            stats=system.stats.scoped(f"extra{core}"),
        )
        accelerators.append(
            QeiAccelerator(
                system.engine,
                default_firmware(),
                integration,
                system.space,
                qst_entries=system.config.qei.qst_entries,
                stats=system.stats.scoped(f"extra{core}"),
                name=f"qei{core}",
            )
        )
    return accelerators


def scalability_study() -> ExperimentResult:
    """Sustained throughput versus number of querying cores."""
    result = ExperimentResult(
        "Scalability",
        "sustained query throughput vs querying cores (queries / kcycle)",
        ["cores", "core-integrated", "cha-tlb", "device-direct", "device-indirect"],
        notes=[
            "Tab. I: near-cache schemes scale 'Good', device schemes"
            " 'Medium' — the centralized engine saturates as cores grow",
        ],
    )
    for cores in CORE_COUNTS:
        row = {"cores": cores}
        for scheme in ("core-integrated", "cha-tlb", "device-direct", "device-indirect"):
            system = System(None, scheme)
            table = CuckooHashTable(system.mem, key_length=16, num_buckets=2048)
            keys = make_keys(1024, 16, seed=5)
            for i, key in enumerate(keys):
                table.insert(key, i)
            system.warm_llc()

            if scheme == "core-integrated":
                engines = _build_core_private_accelerators(system, cores)
            else:
                engines = [system.accelerator] * cores

            handles = []
            for core in range(cores):
                accel = engines[core if scheme == "core-integrated" else 0]
                for q in range(QUERIES_PER_CORE):
                    key = keys[(core * 131 + q * 7) % len(keys)]
                    handles.append(
                        accel.submit(
                            QueryRequest(
                                header_addr=table.header_addr,
                                key_addr=table.store_key(key),
                                core_id=core,
                            ),
                            q * ISSUE_GAP_CYCLES,
                        )
                    )
            done = 0
            for handle in handles:
                done = max(done, _wait(system, handle))
            total = cores * QUERIES_PER_CORE
            row[scheme] = 1000.0 * total / max(1, done)
        result.add_row(**row)
    return result


def _wait(system: System, handle) -> int:
    while not handle.done:
        if not system.engine.step():
            raise RuntimeError("engine drained with pending query")
    return handle.completion_cycle
