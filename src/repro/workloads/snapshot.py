"""A populated workload's functional image, pickled once and restored many times.

Populating a workload — allocating frames, filling page tables, inserting
every flow/object/item into the data structure — is a pure function of the
workload class, its parameters, the physical memory size and the heap kind;
only what runs afterwards depends on the integration scheme, the rest of
the machine config or on which replica a System plays.  :class:`WorkloadSnapshot` captures that functional state — the
:class:`~repro.datastructs.base.ProcessMemory` (physical frames, page
tables, allocator) plus the workload's own attributes (data-structure
roots, query lists, RNG state) — as one pickle, and :meth:`restore`
rebuilds it by unpickling instead of re-running O(dataset) population.
Unpickling rebuilds the object graph from a flat byte string in C, about
8-10x faster per image than a ``deepcopy``, which walks the template in
Python with a memo dict.  The bytes never leave the process that pickled
them.  A restore rebuilds what the workload touched: the physical frame
pool is lazy (:mod:`repro.mem.physical`), so the image holds the frames in
use and the frames given back, not a list of every frame the machine has.

Bit-identity argument: the image is captured right after
:meth:`QueryWorkload.build` and before anything runs, so it equals exactly
what a fresh build produces; one pickle keeps all internal aliasing (data
structures hold the same ``mem`` object; the address space's frame memos
alias the physical frame bytearrays) because memory and workload state
are pickled in one ``dumps`` call and come back from one ``loads``.  The
restored :class:`~repro.system.System` is constructed fresh — caches,
TLBs, accelerator sizing and stats all start cold, exactly as after an
ordinary build.

Two users: :func:`repro.analysis.snapshot.build`, through which every
experiment builds, keeps one image per (workload, params, memory size,
heap kind) for the process and restores it onto any scheme and config; a
:class:`~repro.serve.cluster.SimulatedCluster` builds its first replica
and restores the others from one image of its own.  Both paths are always
on; there is no cold-build mode.  ``tests/test_fusion_snapshot.py`` and
``tests/test_cluster_image.py`` build their fresh references in the test
and hold both paths to the same images and numbers, as do the golden
stats and the chaos sha256 pins.
"""

from __future__ import annotations

import pickle
import sys
from typing import Optional, Tuple

from ..config import SystemConfig
from ..sim.engine import Engine
from ..system import System
from .base import QueryWorkload

#: Linked data structures can chain deeper than CPython's default
#: 1000-frame limit while pickling; raise it just for the ``dumps``.
#: Bounded, so a genuinely cyclic pathology still fails instead of
#: exhausting the C stack.
_RECURSION_LIMIT = 20_000


def _dumps(obj) -> bytes:
    old = sys.getrecursionlimit()
    if old < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        return pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    finally:
        sys.setrecursionlimit(old)


class WorkloadSnapshot:
    """A pickled functional image of one populated workload.

    Construct it after :meth:`QueryWorkload.build` and before any run —
    the image then matches a fresh build exactly.  Raises
    ``pickle.PicklingError`` or ``RecursionError`` for a workload whose
    state cannot be pickled.
    """

    __slots__ = ("_cls", "_template")

    def __init__(self, system: System, workload: QueryWorkload) -> None:
        self._cls = type(workload)
        state = {k: v for k, v in workload.__dict__.items() if k != "system"}
        # One joint pickle keeps every shared reference consistent: data
        # structures hold this same mem; AddressSpace frame memos alias the
        # physical frames' bytearrays.
        self._template = _dumps((system.mem, state))

    def restore(
        self,
        scheme: str,
        *,
        config: Optional[SystemConfig] = None,
        engine: Optional[Engine] = None,
    ) -> Tuple[System, QueryWorkload]:
        """A fresh cold System for ``scheme`` with the warm memory image.

        ``config`` may be any config with the ``memory_bytes`` the image
        was built under; ``engine`` is adopted as :class:`System` does.
        """
        mem, state = pickle.loads(self._template)
        system = System(config, scheme, mem=mem, engine=engine)
        workload = self._cls.__new__(self._cls)
        workload.__dict__.update(state)
        workload.system = system
        return system, workload
