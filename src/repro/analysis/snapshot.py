"""The one place a workload image is built: once per key, then restored.

A populated process memory is a pure function of the workload and its
parameters; the scheme, caches, NoC, QST and interface latencies only shape
the runs afterwards.  So :func:`build` builds fresh on the first call for a
key, captures the result as a
:class:`~repro.workloads.snapshot.WorkloadSnapshot` (the bit-identity
argument is in that module), and restores that image onto the caller's
scheme and config on every later call.

The key is (workload name or class, params, ``config.memory_bytes``, heap
kind).  Each pickled image is byte-equal across all five schemes, fig8's
latency configs, A1's QST sizes and small configs of any core count; it
differs only by the physical frame count (512 MB by default, 64 MB on
small configs) and by the heap: 4 KB page scatter or A8's 2 MB
:class:`~repro.mem.allocator.HugePageArena`.  ``System.__init__``
allocates no simulated memory, so a System around a restored memory equals
a fresh one.  ``tests/test_fusion_snapshot.py`` checks a restore against a
fresh build for every (config, heap kind, scheme) a verb builds with.

Images live for the process.  ``SimulatedCluster`` keeps its own per-fleet
image instead (:mod:`repro.serve.cluster.cluster`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import SystemConfig
from ..mem.allocator import HugePageArena
from ..system import System
from ..workloads import make_workload
from ..workloads.base import QueryWorkload
from ..workloads.snapshot import WorkloadSnapshot

__all__ = ["WorkloadSnapshot", "build", "capture", "clear"]

#: A8's huge-page heap: 2MB pages from 2GB, 2MB aligned and clear of the
#: 4 KB heap.
HUGE_ARENA_BASE = 1 << 31
HUGE_ARENA_PAGES = 24

#: (workload, frozen params, memory bytes, huge pages) -> captured image.
_TEMPLATES: Dict[tuple, WorkloadSnapshot] = {}


def clear() -> None:
    """Drop all captured images (tests)."""
    _TEMPLATES.clear()


def _key(workload, params: dict, memory_bytes: int, huge_pages: bool) -> tuple:
    return workload, tuple(sorted(params.items())), memory_bytes, huge_pages


def capture(name, params: dict, system: System, workload: QueryWorkload) -> None:
    """Record a just-built (system, workload) as the image for its key."""
    key = _key(
        name, params, system.config.memory_bytes,
        isinstance(system.mem.heap, HugePageArena),
    )
    _TEMPLATES[key] = WorkloadSnapshot(system, workload)


def build(
    workload,
    params: dict,
    scheme: str,
    config: Optional[SystemConfig] = None,
    *,
    huge_pages: bool = False,
) -> Tuple[System, QueryWorkload]:
    """A fresh ``scheme`` System under ``config`` with ``workload`` built.

    ``workload`` is a name from ``WORKLOAD_CLASSES`` or a
    :class:`QueryWorkload` subclass; ``huge_pages`` places the heap in
    2 MB huge pages instead of scattered 4 KB pages.
    """
    memory_bytes = (config or SystemConfig).memory_bytes
    image = _TEMPLATES.get(_key(workload, params, memory_bytes, huge_pages))
    if image is not None:
        return image.restore(scheme, config=config)
    system = System(config, scheme)
    if huge_pages:
        system.mem.heap = HugePageArena(
            system.space, HUGE_ARENA_BASE, huge_pages=HUGE_ARENA_PAGES
        )
    built = make_workload(workload, system, **params)
    capture(workload, params, system, built)
    return system, built
