"""Multi-tenant request frontend: bounded admission queues + backpressure.

The frontend is the first stop on the serving path: every tenant gets a
bounded FIFO admission queue, and arrivals that find their queue full are
rejected with a *retry-after* hint instead of being buffered without bound.
Because the dispatcher only drains queues while the accelerator has QST
capacity, a saturated QST propagates backpressure naturally: queues fill,
then new arrivals bounce.  A full queue is the only reason to reject.

Admitted requests leave through :meth:`Frontend.next_request`, which scans
tenant queues round-robin so one hot tenant cannot starve the others.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..config import ServeConfig
from ..sim.stats import StatsRegistry


@dataclass(slots=True)
class ServeRequest:
    """One tenant request travelling through the serving tier."""

    tenant: int
    #: Which query of the workload's stream this request executes.
    index: int
    request_id: int
    #: Cycle the request was generated (latency is measured from here,
    #: so queueing, batching and fallback delays all count against the SLO).
    arrival_cycle: int
    attempts: int = 1
    admit_cycle: Optional[int] = None
    dispatch_cycle: Optional[int] = None
    #: Terminal disposition, set at resolution: "ok", or "failed" when the
    #: software fallback could not resolve an aborted read.  The cluster
    #: tier reads it to build the node's response to the LB.
    outcome: Optional[str] = None
    #: The query's result value when ``outcome`` is "ok".
    result_value: Optional[int] = None
    #: Operation code (:data:`~repro.core.cfa.OP_LOOKUP` by default; write
    #: ops route through the mutation CFAs, docs/mutations.md).
    op: int = 0
    #: Write payload: the new value for UPDATE/INSERT (ignored for reads).
    value: int = 0
    #: Seqlock commit ordinal of a published write, set at resolution.  The
    #: cluster tier keys quorum acks and commit-log replication off it
    #: (docs/recovery.md); None for reads and write misses.
    commit_seq: Optional[int] = None

    @property
    def is_write(self) -> bool:
        return self.op != 0


@dataclass(frozen=True)
class Admission:
    """The frontend's verdict on one arrival."""

    admitted: bool
    #: Cycles the client should wait before re-offering (rejections only).
    retry_after: int = 0


class Frontend:
    """Per-tenant bounded admission queues with round-robin drain."""

    #: Bounded per-tenant admission queue; arrivals beyond this are rejected
    #: with a retry-after hint (backpressure when the QST is saturated).
    QUEUE_DEPTH = 64
    #: Base retry-after hint returned with a rejection.
    RETRY_AFTER_CYCLES = 512
    #: Extra retry-after cycles charged per request already queued, so the
    #: hint grows with the backlog the rejected client would join.
    RETRY_BACKLOG_CYCLES = 8
    #: The (frozen) verdict every admitted arrival shares.
    _ADMITTED = Admission(True)

    def __init__(
        self,
        config: ServeConfig,
        *,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.stats = (stats or StatsRegistry()).scoped("serve.frontend")
        self._queues: List[Deque[ServeRequest]] = [
            deque() for _ in range(config.tenants)
        ]
        self._rr = 0
        #: Requests admitted but not yet dispatched (kept by ``offer`` and
        #: ``next_request``, so reading it costs nothing per pump).
        self.pending = 0
        self._offered = self.stats.counter("offered")
        self._admitted = self.stats.counter("admitted")
        self._rejected = self.stats.counter("rejected")
        self._queue_delay = self.stats.sketch("queue.delay")

    # ------------------------------------------------------------------ #

    def offer(self, request: ServeRequest, now: int) -> Admission:
        """Admit ``request`` or reject it with a retry-after hint."""
        self._offered.add()
        queue = self._queues[request.tenant]
        if len(queue) >= self.QUEUE_DEPTH:
            self._rejected.add()
            self.stats.counter(f"tenant{request.tenant}.rejected").add()
            retry_after = (
                self.RETRY_AFTER_CYCLES + self.RETRY_BACKLOG_CYCLES * len(queue)
            )
            return Admission(False, retry_after)
        request.admit_cycle = now
        queue.append(request)
        self.pending += 1
        self._admitted.add()
        return self._ADMITTED

    def next_request(self, now: int) -> Optional[ServeRequest]:
        """Pop the next admitted request, round-robin across tenants."""
        tenants = len(self._queues)
        for offset in range(tenants):
            queue = self._queues[(self._rr + offset) % tenants]
            if queue:
                self._rr = (self._rr + offset + 1) % tenants
                request = queue.popleft()
                self.pending -= 1
                assert request.admit_cycle is not None
                self._queue_delay.record(now - request.admit_cycle)
                return request
        return None

    # ------------------------------------------------------------------ #

    def queue_depth_of(self, tenant: int) -> int:
        return len(self._queues[tenant])
