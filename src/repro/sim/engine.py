"""A minimal discrete-event simulation engine with integer cycle time.

Components schedule callables at absolute or relative cycle times; the engine
pops events in (time, sequence) order so same-cycle events run in scheduling
order, which keeps runs deterministic.

Each event is one mutable ``[time, seq, callback]`` heap entry, and
:meth:`Engine.schedule` returns the entry itself as the cancel handle.  The
unique ``seq`` keeps heap comparisons off the callback.  :meth:`Engine.cancel`
sets the callback to None; cancelled entries are skipped lazily on pop, and
the queue is compacted in place once they outnumber live ones (see
:attr:`Engine.COMPACT_MIN_CANCELLED`), so long-lived simulations that cancel
many timers (the load balancer's request timeouts) don't leak heap space.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from ..errors import SimulationError


class Engine:
    """Priority-queue event loop with integer cycle timestamps."""

    #: Compact the heap only once at least this many cancelled entries have
    #: accumulated (and they outnumber live entries) — tiny queues aren't
    #: worth an O(n) sweep.
    COMPACT_MIN_CANCELLED = 64

    __slots__ = (
        "_queue",
        "_seq",
        "now",
        "_running",
        "events_processed",
        "_cancelled",
        "_horizon",
    )

    def __init__(self) -> None:
        self._queue: List[list] = []  # [time, seq, callback or None]
        self._seq = 0
        #: Current simulation time in cycles (written only by the engine).
        self.now = 0
        self._running = False
        self.events_processed = 0
        self._cancelled = 0  # cancelled entries still sitting in the heap
        self._horizon: Optional[int] = None  # active run()'s `until` bound

    def schedule(self, delay: int, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` ``delay`` cycles from now; returns its entry."""
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback]
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Skip ``entry`` when popped; compact once cancels dominate."""
        if entry[2] is None:
            return
        entry[2] = None
        self._cancelled += 1
        queue = self._queue
        if (
            self._cancelled >= self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(queue)
        ):
            # In-place so loops holding a local binding to the queue (run's
            # hot loop) keep seeing the live list.
            queue[:] = [live for live in queue if live[2] is not None]
            heapq.heapify(queue)
            self._cancelled = 0

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._queue) - self._cancelled

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None when the queue is empty.

        Cancelled entries at the head are discarded as a side effect (the
        same lazy cleanup :meth:`step` performs), so repeated peeks stay
        O(log n) amortized.  Used by the CEE's macro-step fusion to prove no
        event can interleave before a fused transition.
        """
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    def heap(self) -> List[list]:
        """The event queue itself, for a hot loop bounding the next event.

        When non-empty, ``heap[0][0]`` is at most the next live event's
        time (a cancelled entry may sit at the head), so a caller that
        finds it later than ``t`` knows no event runs by ``t`` without
        calling :meth:`peek_time` (``heap[0][2] is None`` marks a cancelled
        head).  The list is only mutated in place, so a binding to it stays
        live; callers must not modify it.
        """
        return self._queue

    @property
    def run_horizon(self) -> Optional[int]:
        """The active :meth:`run`'s ``until`` bound (None outside a run)."""
        return self._horizon

    def step(self) -> bool:
        """Run the single next event.  Returns False when queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, callback = heapq.heappop(queue)
            if callback is None:
                self._cancelled -= 1
                continue
            self.now = time
            self.events_processed += 1
            callback()
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: stop once simulation time would exceed this cycle.
            max_events: safety valve against runaway simulations.

        Returns:
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        self._horizon = until
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        if until is None and max_events is None:
            # Unbounded drain (the accelerator's hot path): no horizon or
            # budget to check, so pop directly instead of peek-then-pop and
            # batch the events_processed bumps into one write-back.
            dispatched = 0
            try:
                while queue:
                    time, _seq, callback = pop(queue)
                    if callback is None:
                        self._cancelled -= 1
                        continue
                    self.now = time
                    dispatched += 1
                    callback()
            finally:
                self.events_processed += dispatched
                self._running = False
                self._horizon = None
            return self.now
        try:
            while queue:
                time, _seq, callback = queue[0]
                if callback is None:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    self.now = until
                    break
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                pop(queue)
                self.now = time
                self.events_processed += 1
                callback()
                processed += 1
            else:
                if until is not None:
                    self.now = max(self.now, until)
        finally:
            self._running = False
            self._horizon = None
        return self.now

    def run_until(self, time: int) -> int:
        """Fast-forward to absolute cycle ``time``, running due events."""
        return self.run(until=time)

    def drain(self, max_events: Optional[int] = None) -> int:
        """Run every queued event to completion."""
        return self.run(max_events=max_events)

    def advance(self, cycles: int) -> int:
        """Run events for the next ``cycles`` cycles and advance time."""
        return self.run(until=self.now + cycles)

    def clear(self) -> None:
        """Drop every queued event: the simulation is over.

        Callbacks still queued at the end of a run (periodic probes,
        request timeouts, messages in flight) hold the components that
        scheduled them, and those hold this engine.  Dropping them lets a
        finished simulation be freed by reference counting instead of
        waiting, Systems and all, for the cyclic garbage collector.
        """
        self._queue.clear()
        self._cancelled = 0
