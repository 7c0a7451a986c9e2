"""Set-associative TLB model with LRU replacement.

Purely a timing/occupancy structure: it caches VPN -> PFN pairs that the MMU
has already resolved functionally.  Hit/miss statistics feed the integration
scheme comparison (CHA-TLB's dedicated 1024-entry TLB versus the
Core-integrated scheme's shared L2-TLB).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import TlbConfig
from ..sim.stats import StatsRegistry

#: The set every TLB slot starts as; never written (see ``Tlb._sets``).
_EMPTY: Dict[int, int] = {}


class Tlb:
    """A set-associative translation lookaside buffer."""

    def __init__(
        self, config: TlbConfig, *, stats: Optional[StatsRegistry] = None, name: str = "tlb"
    ) -> None:
        self.config = config
        self.name = name
        self.num_sets = config.entries // config.associativity
        self.associativity = config.associativity
        # Insertion-ordered {vpn: pfn} per set; LRU is pop-and-reinsert.
        # Every slot starts as the one shared, never-written ``_EMPTY``
        # dict and :meth:`insert` gives a set its own dict on first fill
        # (the ``Cache._sets`` pattern): a System builds dozens of TLBs
        # whose sets most runs never touch.  The list object itself lives
        # as long as the TLB, because the core's memory-op probe
        # (``cpu/core.py``) holds it: a full flush resets it in place.
        self._sets: List[Dict[int, int]] = [_EMPTY] * self.num_sets
        self.stats = (stats or StatsRegistry()).scoped(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the cached PFN for ``vpn``, updating LRU, or None.

        The core's memory-op probe replays this hit rule inline for the L1
        dTLB (:meth:`Mmu.l1_hit_probe`): pop and reinsert, one hit.
        """
        entry_set = self._sets[vpn % self.num_sets]
        if vpn in entry_set:
            pfn = entry_set.pop(vpn)
            entry_set[vpn] = pfn
            self._hits.value += 1
            return pfn
        self._misses.value += 1
        return None

    def insert(self, vpn: int, pfn: int) -> None:
        """Fill the TLB after a page walk, evicting LRU if needed."""
        entry_set = self._sets[vpn % self.num_sets]
        if vpn in entry_set:
            del entry_set[vpn]
            entry_set[vpn] = pfn
            return
        if len(entry_set) >= self.associativity:
            del entry_set[next(iter(entry_set))]
            self._evictions.value += 1
        if entry_set is _EMPTY:
            entry_set = self._sets[vpn % self.num_sets] = {}
        entry_set[vpn] = pfn

    def invalidate(self, vpn: Optional[int] = None) -> None:
        """Shoot down one VPN, or flush the whole TLB when ``vpn`` is None."""
        if vpn is None:
            self._sets[:] = [_EMPTY] * self.num_sets
            return
        self._sets[vpn % self.num_sets].pop(vpn, None)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
