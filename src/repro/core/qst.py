"""The Query State Table (paper Sec. IV-B).

Each entry stores the architectural state of one in-flight query:
``key_address`` (8B), ``result_address`` (8B, non-blocking only), ``type``
(1B), ``state`` (1B), 64B of intermediate data, the query mode bit and the
ready bit.  The QST acts as the scheduler table: every cycle the CEE selects
a ready entry in FIFO order.

Here the table also carries the Python-side :class:`QueryContext` that backs
the architectural fields, and records occupancy samples for the paper's
50%–90% occupancy claim (Sec. VI-A).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from ..errors import AcceleratorError
from ..sim.stats import StatsRegistry
from .abort import AbortCode
from .cfa import QueryContext


@dataclass
class QstEntry:
    """One in-flight query's architectural state."""

    index: int
    ctx: Optional[QueryContext] = None
    mode_blocking: bool = True
    result_addr: int = 0
    ready: bool = False
    busy: bool = False  # allocated
    ready_since: int = 0
    #: CEE transitions charged to this query — the watchdog's counter.
    steps: int = 0
    #: Bumped on every allocation so wakeups scheduled for a released (e.g.
    #: flushed) query never act on the slot's next occupant.
    generation: int = 0
    #: True while the entry runs a mutation CFA (INSERT/DELETE/UPDATE).
    #: Flush/fail paths use it to tell write aborts (which may have left a
    #: seqlock held) from plain read aborts.
    write_intent: bool = False

    @property
    def state(self) -> str:
        return self.ctx.state if self.ctx else "IDLE"


class QueryStateTable:
    """Fixed-capacity table of in-flight queries with FIFO ready selection."""

    def __init__(
        self, entries: int, *, stats: Optional[StatsRegistry] = None
    ) -> None:
        if entries <= 0:
            raise AcceleratorError("QST needs at least one entry")
        self.capacity = entries
        self._entries = [QstEntry(i) for i in range(entries)]
        #: Min-heap of free slot indices: the heap minimum IS the first
        #: empty entry a linear scan would find, so FIFO slot selection is
        #: preserved at O(log n) instead of O(capacity) per allocation.
        self._free = list(range(entries))
        self._busy_count = 0
        self.stats = (stats or StatsRegistry()).scoped("qst")
        self._occupancy = self.stats.histogram("occupancy")
        self._allocs = self.stats.counter("allocations")
        self._releases = self.stats.counter("releases")

    # ------------------------------------------------------------------ #

    @property
    def occupancy(self) -> int:
        # Maintained counter: sample_occupancy runs on every allocate and
        # release, so an O(capacity) scan here dominated drain profiles.
        return self._busy_count

    @property
    def free_slots(self) -> int:
        return self.capacity - self.occupancy

    def sample_occupancy(self) -> None:
        self._occupancy.record(self.occupancy / self.capacity)

    def allocate(
        self,
        ctx: QueryContext,
        *,
        blocking: bool,
        result_addr: int = 0,
        now: int = 0,
        write_intent: bool = False,
    ) -> Optional[QstEntry]:
        """Claim the first empty entry; None when the table is full.

        Software is responsible for tracking slot availability (Sec. IV-B);
        the accelerator's query queue holds overflow submissions.
        """
        if not self._free:
            return None
        entry = self._entries[heapq.heappop(self._free)]
        entry.busy = True
        entry.ready = True
        entry.ready_since = now
        entry.ctx = ctx
        entry.mode_blocking = blocking
        entry.result_addr = result_addr
        entry.steps = 0
        entry.generation += 1
        entry.write_intent = write_intent
        self._busy_count += 1
        self._allocs.add()
        if write_intent:
            # Created lazily so zero-write runs keep a byte-identical
            # stats snapshot (golden-stats discipline).
            self.stats.counter("write_intents").add()
        self.sample_occupancy()
        return entry

    def release(
        self, entry: QstEntry, *, abort_code: AbortCode = AbortCode.NONE
    ) -> None:
        if not entry.busy:
            raise AcceleratorError(f"double release of QST entry {entry.index}")
        entry.busy = False
        entry.ready = False
        entry.ctx = None
        entry.result_addr = 0
        entry.write_intent = False
        self._busy_count -= 1
        heapq.heappush(self._free, entry.index)
        self._releases.add()
        if abort_code.is_abort:
            self.stats.counter(f"aborts.{abort_code.name.lower()}").add()
        self.sample_occupancy()

    # ------------------------------------------------------------------ #

    def busy_entries(self) -> List[QstEntry]:
        return [e for e in self._entries if e.busy]

    def non_blocking_entries(self) -> List[QstEntry]:
        return [e for e in self._entries if e.busy and not e.mode_blocking]

    def write_entries(self) -> List[QstEntry]:
        """Entries currently executing a mutation CFA (write intents)."""
        return [e for e in self._entries if e.busy and e.write_intent]

    def mean_occupancy(self) -> float:
        return self._occupancy.mean
