"""MMU: timed address translation through a TLB hierarchy.

The MMU owns an L1 dTLB and an L2 TLB (Skylake-like).  A translation returns
both the physical address (functional, via the page table) and the number of
cycles the translation cost (timing: TLB hit levels or a page walk).

Integration schemes reuse this class in different positions:

* the core's MMU (used by software, and by CHA-noTLB accelerators with an
  extra round-trip);
* the Core-integrated scheme translates through the *L2 TLB only* (QEI sits
  next to the L2, Sec. V-A);
* the CHA-TLB scheme instantiates a dedicated single-level TLB per CHA.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ..config import TlbConfig
from ..sim.stats import StatsRegistry
from .paging import AddressSpace
from .tlb import Tlb

#: Cycles for a full radix page-table walk when every TLB level misses.
PAGE_WALK_CYCLES = 60


class Translation(NamedTuple):
    """Result of one timed translation.

    A named tuple rather than a frozen dataclass.  The core replays its
    L1-TLB hits inline (:meth:`Mmu.l1_hit_probe`), so it builds one only
    on a miss, and unpacks it in place.
    """

    paddr: int
    cycles: int
    tlb_hit_level: Optional[int]  # 0 = first TLB, None = page walk


class Mmu:
    """A TLB hierarchy in front of a page table."""

    def __init__(
        self,
        space: AddressSpace,
        tlb_configs: Sequence[TlbConfig],
        *,
        stats: Optional[StatsRegistry] = None,
        name: str = "mmu",
    ) -> None:
        if not tlb_configs:
            raise ValueError("an MMU needs at least one TLB level")
        self.space = space
        self.name = name
        registry = stats or StatsRegistry()
        self.tlbs = [
            Tlb(cfg, stats=registry, name=f"{name}.tlb{i}")
            for i, cfg in enumerate(tlb_configs)
        ]
        self.stats = registry.scoped(name)
        self._walks = self.stats.counter("page_walks")
        self._translations = self.stats.counter("translations")

    def translate(self, vaddr: int, access: str = "r") -> Translation:
        """Translate ``vaddr``; faults propagate from the page table.

        TLB entries are keyed by the page's *translation key*: a 4KB VPN
        for small pages, or a tagged huge-page number — so one slot covers
        an entire 2MB mapping.
        """
        self._translations.value += 1
        key, base_paddr, span = self.space.translation_entry(vaddr, access)
        offset = vaddr % span

        cycles = 0
        for level, tlb in enumerate(self.tlbs):
            cycles += tlb.config.latency_cycles
            cached_base = tlb.lookup(key)
            if cached_base is not None:
                if level:
                    self._fill_upper_levels(level, key, cached_base)
                return Translation(cached_base + offset, cycles, level)

        # Full page walk (the functional lookup above already resolved it,
        # memoized in :meth:`AddressSpace.translation_entry`).
        cycles += PAGE_WALK_CYCLES
        self._walks.value += 1
        self._fill_upper_levels(len(self.tlbs), key, base_paddr)
        return Translation(base_paddr + offset, cycles, None)

    def l1_hit_probe(self):
        """``(walk_get, page_bytes, sets, num_sets)`` to replay an L1-TLB hit.

        A translation that finds its page in the walk memo
        (``walk_get((vaddr // page_bytes, access))`` gives the entry
        :meth:`AddressSpace.translation_entry` would return) and its key in
        the first TLB's set (``sets[key % num_sets]``) is a level-0 hit:
        :meth:`translate` would only count the translation, pop and
        reinsert the key in that set (:meth:`Tlb.lookup`), count the hit
        and return ``cached_base + vaddr % span``.  A caller that replays
        that reports its hits through :meth:`count_l1_hits`; anything else
        goes through :meth:`translate`.  The set list is the TLB's own and
        lives as long as it does.
        """
        space = self.space
        tlb = self.tlbs[0]
        return space._walk_memo.get, space.page_bytes, tlb._sets, tlb.num_sets

    def count_l1_hits(self, count: int) -> None:
        """Fold ``count`` replayed L1-TLB hits into the counters."""
        self._translations.value += count
        self.tlbs[0]._hits.value += count

    def _fill_upper_levels(self, hit_level: int, key: int, base_paddr: int) -> None:
        for tlb in self.tlbs[:hit_level]:
            tlb.insert(key, base_paddr)

    def flush(self) -> None:
        """TLB shootdown of every level (context switch)."""
        for tlb in self.tlbs:
            tlb.invalidate()

    def invalidate(self, vpn: int) -> None:
        for tlb in self.tlbs:
            tlb.invalidate(vpn)
