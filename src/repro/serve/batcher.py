"""Batcher/sharder: coalesce admitted requests into QUERY_NB bursts.

Each admitted request is routed to the accelerator instance that will
execute its CFA — the *home* chosen by the integration scheme's probe
(:meth:`~repro.core.integration.Integration.home_node`): the NUCA home of
the primary bucket for hash tables, a key-content hash for pointer-chasing
structures, the device stop for the centralized schemes.  Requests sharing
a home are coalesced into bursts of ``batch_size`` and submitted through
:meth:`~repro.core.accelerator.QeiAccelerator.submit_batch`, which pays the
core-accelerator doorbell once per burst.

A partial burst does not wait forever: the first request entering an empty
burst arms a flush timer (``batch_timeout_cycles``), bounding the batching
delay any single request can absorb.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..config import ServeConfig
from ..core.accelerator import QueryHandle, QueryRequest
from ..errors import MemoryError_
from ..sim.stats import StatsRegistry
from ..system import System
from .frontend import ServeRequest


class Batcher:
    """Per-home-slice coalescing of serving requests into QUERY_NB bursts."""

    def __init__(
        self,
        system: System,
        config: ServeConfig,
        *,
        stats: Optional[StatsRegistry] = None,
        on_done: Callable[[ServeRequest, QueryHandle], None],
    ) -> None:
        self.system = system
        self.engine = system.engine
        self.accelerator = system.accelerator
        self.integration = system.integration
        self.config = config
        self.on_done = on_done
        self.stats = (stats or StatsRegistry()).scoped("serve.batcher")
        self._open: Dict[int, List[Tuple[ServeRequest, QueryRequest]]] = {}
        #: Bumped per home at every flush so a stale timeout event cannot
        #: flush the *next* burst that opened on the same home.
        self._epochs: Dict[int, int] = {}
        self._batches = self.stats.counter("batches")
        self._requests = self.stats.counter("requests")
        self._timeout_flushes = self.stats.counter("flushes.timeout")
        self._full_flushes = self.stats.counter("flushes.full")
        self._sizes = self.stats.histogram("batch.size")

    # ------------------------------------------------------------------ #

    def add(self, sreq: ServeRequest, qreq: QueryRequest) -> None:
        """Route one request to its home burst; flush when the burst fills."""
        self._requests.add()
        home = self._route(qreq)
        burst = self._open.setdefault(home, [])
        burst.append((sreq, qreq))
        if len(burst) >= self.config.batch_size:
            self._full_flushes.add()
            self._flush(home)
        elif len(burst) == 1:
            epoch = self._epochs.get(home, 0)
            self.engine.schedule(
                self.config.batch_timeout_cycles,
                lambda: self._timeout_flush(home, epoch),
            )

    def _route(self, qreq: QueryRequest) -> int:
        """The serving tier's copy of the hardware's home probe."""
        try:
            return self.integration.home_node(
                qreq.core_id, qreq.header_addr, qreq.key_addr
            )
        except MemoryError_:
            # A hostile header steered the probe off the map; group under
            # home 0 and let the submit path raise the proper abort code.
            return 0

    # ------------------------------------------------------------------ #

    def _timeout_flush(self, home: int, epoch: int) -> None:
        if self._epochs.get(home, 0) == epoch and self._open.get(home):
            self._timeout_flushes.add()
            self._flush(home)

    def _flush(self, home: int) -> None:
        burst = self._open.pop(home, [])
        self._epochs[home] = self._epochs.get(home, 0) + 1
        if not burst:
            return
        now = self.engine.now
        self._batches.add()
        self._sizes.record(len(burst))
        handles = self.accelerator.submit_batch(
            [qreq for _, qreq in burst], now
        )
        for (sreq, _), handle in zip(burst, handles):
            sreq.dispatch_cycle = now
            handle.on_done(lambda h, s=sreq: self.on_done(s, h))

    def flush_all(self) -> None:
        """Force every open burst out."""
        for home in [home for home, burst in self._open.items() if burst]:
            self._flush(home)
