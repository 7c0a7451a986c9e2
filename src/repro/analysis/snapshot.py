"""Warm-system snapshots: build each workload's memory image once, reuse it.

Every (workload, scheme) sweep task — fig7/fig11/fig12 shards, perfbench
rounds, the golden-stats pairs — starts by populating an identical process
memory: allocate frames, fill page tables, insert every flow/object/item
into the data structure.  That setup is pure function of the workload name
and its parameters; only the *runs* afterwards depend on the integration
scheme.  So we capture the functional state once per (workload, params)
— the :class:`~repro.datastructs.base.ProcessMemory` (physical frames,
page tables, allocator) plus the workload's own attributes (data-structure
roots, query lists, RNG state) — as one pickle, and restore it for every
later build by unpickling instead of re-running O(dataset) population.
Unpickling rebuilds the object graph from a flat byte string in C, about
8-10x faster per image than the ``deepcopy`` this used to be, which walked
the template in Python with a memo dict.  The bytes never leave the
process that pickled them.  A restore rebuilds what the workload
touched: the physical frame pool is lazy (:mod:`repro.mem.physical`), so
the image holds the frames in use and the frames given back, not a list
of every frame the machine has.

Bit-identity argument: the template is captured *before* any ROI runs, so
it equals exactly what a fresh build produces; one pickle keeps all
internal aliasing (data structures hold the same ``mem`` object; the
address space's frame memos alias the physical frame bytearrays) because
memory and workload state are pickled in one ``dumps`` call and come back
from one ``loads``.  The restored :class:`~repro.system.System` is
constructed fresh per scheme — caches, TLBs, accelerator sizing and stats
all start cold, exactly as after an ordinary build.
``tests/test_golden_stats.py`` holds this path to the same hashes as cold
builds.

Snapshots apply only to default-config systems (``config is None``);
custom configs (fig8's latency sweep) always build fresh, mirroring the
``_PAIR_MEMO`` policy in :mod:`repro.analysis.experiments`.  A workload
whose state cannot be pickled is never snapshotted and always rebuilds.

Set ``QEI_NO_SNAPSHOT=1`` (or pass ``--no-snapshot`` to ``python -m
repro``) to disable and rebuild everything from scratch.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Dict, Optional, Set, Tuple

from ..system import System
from ..workloads.base import QueryWorkload

_Key = Tuple[str, Tuple[Tuple[str, object], ...]]

#: (workload name, frozen params) -> captured template.
_TEMPLATES: Dict[_Key, "WorkloadSnapshot"] = {}

#: Keys whose state could not be pickled — skip, don't retry.
_UNCOPYABLE: Set[_Key] = set()

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

_enabled = os.environ.get("QEI_NO_SNAPSHOT", "").lower() not in ("1", "true", "yes")


def enabled() -> bool:
    """Whether warm-system snapshot reuse is active in this process."""
    return _enabled


def set_enabled(value: bool) -> None:
    """Turn snapshot reuse on/off (e.g. ``--no-snapshot``, worker init)."""
    global _enabled
    _enabled = bool(value)


def clear() -> None:
    """Drop all captured templates (tests, memory pressure)."""
    _TEMPLATES.clear()
    _UNCOPYABLE.clear()


def _key(name: str, params: dict) -> Tuple[str, Tuple[Tuple[str, object], ...]]:
    return name, tuple(sorted(params.items()))


class WorkloadSnapshot:
    """A pickled functional image of one populated workload.

    ``capture`` must run after :meth:`QueryWorkload.build` and before any
    ROI run — the template then matches a fresh build exactly.
    """

    __slots__ = ("_cls", "_template")

    def __init__(self, system: System, workload: QueryWorkload) -> None:
        self._cls = type(workload)
        state = {k: v for k, v in workload.__dict__.items() if k != "system"}
        # One joint pickle keeps every shared reference consistent: data
        # structures hold this same mem; AddressSpace frame memos alias the
        # physical frames' bytearrays.
        self._template = _dumps((system.mem, state))

    def restore(self, scheme: str) -> Tuple[System, QueryWorkload]:
        """A fresh cold System for ``scheme`` with the warm memory image."""
        mem, state = pickle.loads(self._template)
        system = System(None, scheme, mem=mem)
        workload = self._cls.__new__(self._cls)
        workload.__dict__.update(state)
        workload.system = system
        return system, workload


def get(name: str, params: dict) -> Optional[WorkloadSnapshot]:
    """The captured template for (name, params), or None."""
    if not _enabled:
        return None
    return _TEMPLATES.get(_key(name, params))


def capture(name: str, params: dict, system: System, workload: QueryWorkload) -> None:
    """Record a just-built (system, workload) as the template for its key.

    A workload whose state cannot be pickled (an unpicklable object, or a
    graph too deep even at the raised recursion limit) is remembered as
    uncopyable and simply never snapshotted — later builds fall back to
    ordinary repopulation.
    """
    if not _enabled:
        return
    key = _key(name, params)
    if key in _UNCOPYABLE:
        return
    try:
        _TEMPLATES[key] = WorkloadSnapshot(system, workload)
    except (pickle.PicklingError, RecursionError):
        _UNCOPYABLE.add(key)
