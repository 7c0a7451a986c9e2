"""Data Processing Unit resources: ALUs, comparators, and the hash unit.

Each pool is an occupancy model: ``issue(now, busy_cycles)`` picks the unit
that frees earliest and returns the operation's completion time.  Comparator
pools exist per CHA for the distributed schemes (two per CHA, Tab. II) and
as one larger local pool for device schemes (ten per DPU).
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import AcceleratorError
from ..sim.stats import StatsRegistry


class UnitPool:
    """N identical single-operation functional units."""

    def __init__(
        self,
        units: int,
        name: str,
        *,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if units <= 0:
            raise AcceleratorError(f"{name}: need at least one unit")
        self.name = name
        self._free_at: List[int] = [0] * units
        self.stats = (stats or StatsRegistry()).scoped(name)
        self._ops = self.stats.counter("ops")
        self._busy_cycles = self.stats.counter("busy_cycles")
        self._queue_cycles = self.stats.counter("queue_cycles")

    @property
    def units(self) -> int:
        return len(self._free_at)

    def issue(self, now: int, busy_cycles: int) -> int:
        """Occupy the earliest-free unit; returns the completion cycle."""
        if busy_cycles <= 0:
            raise AcceleratorError(f"{self.name}: busy_cycles must be positive")
        # The first unit that frees earliest; one per CEE micro-op, so the
        # scan and the counters stay inline (``.value +=``, sim/stats.py).
        free_at = self._free_at
        best = 0
        earliest = free_at[0]
        for unit in range(1, len(free_at)):
            if free_at[unit] < earliest:
                best, earliest = unit, free_at[unit]
        start = now if now > earliest else earliest
        self._queue_cycles.value += start - now
        completion = start + busy_cycles
        free_at[best] = completion
        self._ops.value += 1
        self._busy_cycles.value += busy_cycles
        return completion

    def reset_timing(self) -> None:
        self._free_at = [0] * len(self._free_at)


class ComparatorPool(UnitPool):
    """64-bit-per-cycle comparators (Sec. IV-B)."""

    def compare(self, now: int, num_bytes: int) -> int:
        qwords = max(1, (num_bytes + 7) // 8)
        return self.issue(now, qwords)


class HashUnit(UnitPool):
    """The DPU hashing unit: fixed setup plus one cycle per 8 key bytes."""

    def __init__(
        self,
        *,
        setup_cycles: int = 3,
        stats: Optional[StatsRegistry] = None,
        name: str = "hash_unit",
    ) -> None:
        super().__init__(1, name, stats=stats)
        self.setup_cycles = setup_cycles

    def hash(self, now: int, num_bytes: int) -> int:
        return self.issue(now, self.setup_cycles + max(1, (num_bytes + 7) // 8))


class AluPool(UnitPool):
    """General-purpose ALUs for intermediate arithmetic (five per DPU)."""

    def alu(self, now: int, cycles: int = 1) -> int:
        return self.issue(now, cycles)
