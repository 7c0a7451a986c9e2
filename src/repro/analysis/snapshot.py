"""Warm-system snapshots: build each workload's memory image once, reuse it.

Every (workload, scheme) sweep task — fig7/fig11/fig12 shards, the
golden-stats pairs — starts by populating an identical process
memory.  That setup is a pure function of the workload name and its
parameters; only the *runs* afterwards depend on the integration scheme.
So the first default-config build per (workload, params) is captured as a
:class:`~repro.workloads.snapshot.WorkloadSnapshot` (one pickle of the
process memory plus the workload's attributes; the bit-identity argument
is in that module), and every later build restores it.
``tests/test_golden_stats.py`` holds this path to the same hashes as cold
builds.  Because every build of a workload starts from this one image, the
figure sweeps also emit its software-baseline trace once and share it
across the scheme pairs (``_PAIR_MEMO`` in
:mod:`repro.analysis.experiments`; ``tests/test_figure_pins.py``).

Snapshots apply only to default-config systems (``config is None``);
custom configs (fig8's latency sweep) always build fresh and are never
memoized.  A workload whose state cannot be pickled is never snapshotted:
it always rebuilds and emits its own baseline trace per pair.
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional, Set, Tuple

from ..system import System
from ..workloads.base import QueryWorkload
from ..workloads.snapshot import WorkloadSnapshot

__all__ = ["WorkloadSnapshot", "capture", "clear", "get"]

_Key = Tuple[str, Tuple[Tuple[str, object], ...]]

#: (workload name, frozen params) -> captured template.
_TEMPLATES: Dict[_Key, WorkloadSnapshot] = {}

#: Keys whose state could not be pickled — skip, don't retry.
_UNCOPYABLE: Set[_Key] = set()


def clear() -> None:
    """Drop all captured templates (tests, memory pressure)."""
    _TEMPLATES.clear()
    _UNCOPYABLE.clear()


def _key(name: str, params: dict) -> Tuple[str, Tuple[Tuple[str, object], ...]]:
    return name, tuple(sorted(params.items()))


def get(name: str, params: dict) -> Optional[WorkloadSnapshot]:
    """The captured template for (name, params), or None."""
    return _TEMPLATES.get(_key(name, params))


def capture(name: str, params: dict, system: System, workload: QueryWorkload) -> None:
    """Record a just-built (system, workload) as the template for its key.

    A workload whose state cannot be pickled (an unpicklable object, or a
    graph too deep even at the raised recursion limit) is remembered as
    uncopyable and simply never snapshotted — later builds fall back to
    ordinary repopulation.
    """
    key = _key(name, params)
    if key in _UNCOPYABLE:
        return
    try:
        _TEMPLATES[key] = WorkloadSnapshot(system, workload)
    except (pickle.PicklingError, RecursionError):
        _UNCOPYABLE.add(key)
