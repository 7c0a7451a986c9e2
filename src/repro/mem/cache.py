"""Set-associative cache model with LRU replacement.

The cache tracks *presence* of physical cachelines (tags only; data lives in
:class:`~repro.mem.physical.PhysicalMemory`).  It is used for L1D, L2 and
each LLC slice.  Writeback/dirty state is tracked so eviction statistics are
meaningful, but coherence is modelled at the hierarchy level (single-writer
approximation — the paper evaluates single-threaded ROIs, Sec. VI-B).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional

from ..config import CacheConfig
from ..sim.stats import StatsRegistry


#: The set every cache slot starts as; never written (see ``Cache._sets``).
_EMPTY: Dict[int, bool] = {}


class CacheLevelName(str, enum.Enum):
    """Symbolic cache level names, used in access breakdowns."""

    L1 = "l1"
    L2 = "l2"
    LLC = "llc"
    DRAM = "dram"


class Cache:
    """One set-associative, write-back, write-allocate cache."""

    def __init__(
        self,
        config: CacheConfig,
        *,
        stats: Optional[StatsRegistry] = None,
        name: str = "cache",
    ) -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        # Set table (index -> insertion-ordered {tag: dirty}): the hot
        # access path is one list index plus one dict probe.  Plain dicts
        # preserve insertion order, so LRU is pop-and-reinsert.  Every slot
        # starts as the one shared, never-written ``_EMPTY`` dict, and only
        # the fills (:meth:`fill`, :meth:`fill_lines`) swap a slot for a
        # dict of its own: every other path only reads, or pops tags that
        # are present, and the fast path memoizes a set only after a hit in
        # it.  So a cold System builds no per-set dicts (an LLC slice has
        # thousands of sets).
        self._sets: List[Dict[int, bool]] = [_EMPTY] * self.num_sets
        # Per-set generation counters for the epoch-memoized fast path
        # (mem/fastpath.py): a set's epoch bumps whenever line *presence*
        # changes (new-tag fill, eviction, invalidate) — never on hits or
        # dirty-only refills — so "epoch unchanged" proves a memoized hit
        # outcome is still exact.
        self.set_epochs: List[int] = [0] * self.num_sets
        # Counters only, no registry reference: the registry's flush hook
        # list holds this cache (see StatsRegistry.add_flush_hook).
        scoped = (stats or StatsRegistry()).scoped(name)
        self._hits = scoped.counter("hits")
        self._misses = scoped.counter("misses")
        self._evictions = scoped.counter("evictions")
        self._writebacks = scoped.counter("writebacks")
        # Hits replayed by the fast path accumulate here (a plain int) and
        # fold into the real counter at flush; see sim/stats.py.
        self._pending_hits = 0
        scoped.add_flush_hook(self._flush_pending)

    def _flush_pending(self) -> None:
        if self._pending_hits:
            self._hits.value += self._pending_hits
            self._pending_hits = 0

    # ------------------------------------------------------------------ #

    def access(self, line_addr: int, *, write: bool = False) -> bool:
        """Look up a cacheline (by line address = paddr // 64).

        Returns True on hit.  On miss the line is *not* filled; callers
        decide (the hierarchy fills after resolving the next level).
        """
        tag, index = divmod(line_addr, self.num_sets)
        entry_set = self._sets[index]
        if tag in entry_set:
            dirty = entry_set.pop(tag)
            entry_set[tag] = dirty or write
            self._hits.value += 1
            return True
        self._misses.value += 1
        return False

    def probe(self, line_addr: int) -> bool:
        """Presence check without LRU update or statistics."""
        tag, index = divmod(line_addr, self.num_sets)
        return tag in self._sets[index]

    def fill(self, line_addr: int, *, dirty: bool = False) -> Optional[int]:
        """Insert a line; returns the evicted line address (or None)."""
        tag, index = divmod(line_addr, self.num_sets)
        entry_set = self._sets[index]
        victim_line = None
        if tag in entry_set:
            was_dirty = entry_set.pop(tag)
            entry_set[tag] = was_dirty or dirty
            return None
        if len(entry_set) >= self.associativity:
            victim_tag = next(iter(entry_set))
            victim_dirty = entry_set.pop(victim_tag)
            victim_line = victim_tag * self.num_sets + index
            self._evictions.value += 1
            if victim_dirty:
                self._writebacks.value += 1
        if entry_set is _EMPTY:
            entry_set = self._sets[index] = {}
        entry_set[tag] = dirty
        self.set_epochs[index] += 1  # presence changed: new tag (± victim)
        return victim_line

    def fill_lines(self, lines: Iterable[int]) -> None:
        """Insert clean lines in order: the state ``fill(line)`` per line gives.

        The LLC warm-up fills hundreds of thousands of lines into cold sets,
        so a new tag in a set with a free way is inserted inline; a present
        tag or a full set (LRU touch, eviction, writeback) goes through
        :meth:`fill`.
        """
        sets = self._sets
        epochs = self.set_epochs
        num_sets = self.num_sets
        ways = self.associativity
        fill = self.fill
        for line in lines:
            index = line % num_sets
            tag = line // num_sets
            entry_set = sets[index]
            if entry_set is _EMPTY:
                sets[index] = {tag: False}
            elif tag in entry_set or len(entry_set) >= ways:
                fill(line)
                continue
            else:
                entry_set[tag] = False
            epochs[index] += 1

    def invalidate(self, line_addr: Optional[int] = None) -> None:
        """Drop one line, or flush everything when ``line_addr`` is None."""
        if line_addr is None:
            epochs = self.set_epochs
            for index, entry_set in enumerate(self._sets):
                if entry_set:
                    entry_set.clear()
                    epochs[index] += 1
            return
        tag, index = divmod(line_addr, self.num_sets)
        if self._sets[index].pop(tag, None) is not None:
            self.set_epochs[index] += 1

    # ------------------------------------------------------------------ #

    @property
    def hits(self) -> int:
        return self._hits.value + self._pending_hits

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
