"""DRAM channel model: fixed access latency plus per-channel bandwidth.

Six DDR4-2666 channels (Tab. II).  Cachelines map to channels by address
interleaving.  Timing model: each access costs ``latency_cycles``, and a
channel serialises accesses beyond its bandwidth (occupancy model), which is
enough to expose bandwidth saturation under batched non-blocking queries.

The timing state is table-driven for the fast path: ``_channel_free_at`` is
a plain list indexed by ``line % channels`` and the per-access costs
(``latency_cycles``, ``busy_cycles_per_access``) are hoisted to instance
attributes, so :meth:`access` is index arithmetic plus two pending-int
bumps.  Access counts batch into plain ints and fold into the
:class:`~repro.sim.stats.StatsRegistry` through a flush hook (see
sim/stats.py), and ``timing_epoch`` versions the queue state so the
epoch-memoized hierarchy fast path (mem/fastpath.py) can reason about DRAM:
DRAM outcomes are never memoized — the latency depends on ``now`` against
the channel queue — but the epoch proves when timing state was reset.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import CACHELINE_BYTES, DramConfig
from ..sim.stats import StatsRegistry


class Dram:
    """Interleaved multi-channel DRAM with a simple occupancy model."""

    def __init__(
        self,
        config: DramConfig,
        *,
        frequency_ghz: float = 2.5,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.config = config
        # Cycles a channel is busy per 64B transfer, from GB/s at core clock.
        bytes_per_cycle = config.bandwidth_gbps_per_channel / frequency_ghz
        self.busy_cycles_per_access = max(1, round(CACHELINE_BYTES / bytes_per_cycle))
        self.latency_cycles = config.latency_cycles
        self.channels = config.channels
        self._channel_free_at: List[int] = [0] * config.channels
        #: Bumped whenever the queue state is reset wholesale; a changed
        #: epoch tells fast paths any cached view of channel timing is stale.
        self.timing_epoch = 0
        # Counters only, no registry reference: the flush hook list holds
        # this Dram (see StatsRegistry.add_flush_hook).
        scoped = (stats or StatsRegistry()).scoped("dram")
        self._accesses = scoped.counter("accesses")
        self._stall_cycles = scoped.counter("queue_cycles")
        self._pending_accesses = 0
        self._pending_stall = 0
        scoped.add_flush_hook(self._flush_pending)

    def _flush_pending(self) -> None:
        if self._pending_accesses:
            self._accesses.value += self._pending_accesses
            self._pending_accesses = 0
        if self._pending_stall:
            self._stall_cycles.value += self._pending_stall
            self._pending_stall = 0

    def channel_of(self, line_addr: int) -> int:
        return line_addr % self.channels

    def access(self, line_addr: int, now: int) -> int:
        """Access one cacheline at cycle ``now``; returns total latency."""
        self._pending_accesses += 1
        channel = line_addr % self.channels
        free_at = self._channel_free_at[channel]
        if free_at > now:
            queue_wait = free_at - now
            self._pending_stall += queue_wait
        else:
            queue_wait = 0
        self._channel_free_at[channel] = now + queue_wait + self.busy_cycles_per_access
        return queue_wait + self.latency_cycles

    def reset_timing(self) -> None:
        self._channel_free_at = [0] * self.channels
        self.timing_epoch += 1
