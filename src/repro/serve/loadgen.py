"""Open- and closed-loop load generators for the serving tier.

Both generators follow the deterministic seed discipline of
:mod:`repro.faults`: each tenant owns one ``random.Random`` derived from the
run seed and the tenant id by integer arithmetic (never object hashing,
which is salted per interpreter), so the same seed and configuration always
produce the identical arrival sequence, query mix and — because the event
engine orders same-cycle events by scheduling order — the identical
simulated execution.

* :class:`OpenLoopGenerator` — Poisson arrivals at a fixed offered load,
  independent of completions (the cloud-frontend model: rejected requests
  are *dropped* and counted, the tenant does not slow down).
* :class:`ClosedLoopGenerator` — a fixed number of synchronous clients per
  tenant with think time; rejected requests honour the retry-after hint.
"""

from __future__ import annotations

import random
from typing import Optional

from ..config import ServeConfig
from ..core.cfa import OP_DELETE, OP_INSERT, OP_LOOKUP, OP_UPDATE
from ..sim.stats import StatsRegistry
from .frontend import ServeRequest

#: Large odd multipliers decorrelate per-tenant streams from the run seed.
_SEED_STRIDE = 1_000_003
_TENANT_STRIDE = 7_919


def tenant_rng(seed: int, tenant: int) -> random.Random:
    """A per-tenant RNG derived deterministically from the run seed."""
    return random.Random(seed * _SEED_STRIDE + tenant * _TENANT_STRIDE)


class LoadGenerator:
    """Shared bookkeeping: request budget, ids, and the resolution count.

    Each generator defines ``start()`` and the server callback
    ``on_rejected(request, retry_after)``.
    """

    def __init__(
        self,
        tenant: int,
        *,
        num_requests: int,
        num_queries: int,
        seed: int,
        stats: Optional[StatsRegistry] = None,
        write_ratio: float = 0.0,
    ) -> None:
        if num_requests <= 0:
            raise ValueError("load generator needs a positive request budget")
        if num_queries <= 0:
            raise ValueError("load generator needs a non-empty query stream")
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        self.tenant = tenant
        self.num_requests = num_requests
        self.num_queries = num_queries
        self.write_ratio = write_ratio
        self.rng = tenant_rng(seed, tenant)
        self.stats = (stats or StatsRegistry()).scoped(
            f"serve.tenant{tenant}.client"
        )
        self._dropped = self.stats.counter("dropped")
        self._retries = self.stats.counter("admission.retries")
        self._failed = self.stats.counter("admission.failed")
        self.issued = 0
        self.resolved = 0
        self.server = None
        self.engine = None

    # ------------------------------------------------------------------ #

    def bind(self, server) -> None:
        self.server = server
        self.engine = server.engine

    @property
    def finished(self) -> bool:
        return self.resolved >= self.num_requests

    # ------------------------------------------------------------------ #

    #: Write-op mix among writes: mostly in-place UPDATEs with a tail of
    #: route-add INSERTs and withdrawals (DELETEs), like a FIB control plane.
    WRITE_MIX = ((0.70, OP_UPDATE), (0.90, OP_INSERT), (1.01, OP_DELETE))

    def _make_request(self) -> ServeRequest:
        self.issued += 1
        op = OP_LOOKUP
        value = 0
        # Gate every extra RNG draw on the ratio so a read-only run consumes
        # the exact pre-mutation arrival stream (golden-stats discipline).
        if self.write_ratio and self.rng.random() < self.write_ratio:
            roll = self.rng.random()
            for cutoff, candidate in self.WRITE_MIX:
                if roll < cutoff:
                    op = candidate
                    break
            # Unique per (tenant, request) so the shadow oracle can tell
            # every write's payload apart when checking for torn reads.
            value = (self.tenant + 1) * 1_000_000 + self.issued
        return ServeRequest(
            tenant=self.tenant,
            index=self.rng.randrange(self.num_queries),
            request_id=self.issued,
            arrival_cycle=self.engine.now,
            op=op,
            value=value,
        )

    # Server callbacks ------------------------------------------------- #

    def on_resolved(self, request: ServeRequest) -> None:
        self.resolved += 1


class OpenLoopGenerator(LoadGenerator):
    """Poisson arrivals at ``rate`` queries/cycle, oblivious to completions."""

    def __init__(
        self,
        tenant: int,
        *,
        rate: float,
        num_requests: int,
        num_queries: int,
        seed: int,
        stats: Optional[StatsRegistry] = None,
        write_ratio: float = 0.0,
    ) -> None:
        super().__init__(
            tenant,
            num_requests=num_requests,
            num_queries=num_queries,
            seed=seed,
            stats=stats,
            write_ratio=write_ratio,
        )
        if rate <= 0:
            raise ValueError("open-loop rate must be positive")
        self.rate = rate

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.issued >= self.num_requests:
            return
        gap = max(1, round(self.rng.expovariate(self.rate)))
        self.engine.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        if self.issued >= self.num_requests:
            return
        request = self._make_request()
        self._schedule_next()
        self.server.accept(self, request)

    def on_rejected(self, request: ServeRequest, retry_after: int) -> None:
        # An open-loop client does not wait: the request is shed.  The
        # retry-after hint only shapes the *next* independent arrival in a
        # real deployment; here the arrival process is fixed by design.
        self._dropped.add()
        self.resolved += 1


class ClosedLoopGenerator(LoadGenerator):
    """``concurrency`` synchronous clients per tenant with think time."""

    def __init__(
        self,
        tenant: int,
        *,
        config: ServeConfig,
        num_requests: int,
        num_queries: int,
        seed: int,
        stats: Optional[StatsRegistry] = None,
        write_ratio: Optional[float] = None,
    ) -> None:
        super().__init__(
            tenant,
            num_requests=num_requests,
            num_queries=num_queries,
            seed=seed,
            stats=stats,
            write_ratio=(
                config.write_ratio if write_ratio is None else write_ratio
            ),
        )
        self.concurrency = config.concurrency
        self.think_cycles = config.think_cycles
        self.max_attempts = config.max_admission_attempts

    def start(self) -> None:
        # Stagger the initial wave one cycle apart so same-cycle arrival
        # order never depends on tenant iteration order.
        for slot in range(min(self.concurrency, self.num_requests)):
            self.engine.schedule(slot + 1, self._launch)

    def _launch(self) -> None:
        if self.issued >= self.num_requests:
            return
        self.server.accept(self, self._make_request())

    def on_rejected(self, request: ServeRequest, retry_after: int) -> None:
        if request.attempts >= self.max_attempts:
            # This client gives up on the request; the slot moves on.
            self._failed.add()
            self.resolved += 1
            self.engine.schedule(max(1, self.think_cycles), self._launch)
            return
        request.attempts += 1
        self._retries.add()
        self.engine.schedule(
            max(1, retry_after), lambda: self.server.accept(self, request)
        )

    def on_resolved(self, request: ServeRequest) -> None:
        super().on_resolved(request)
        self.engine.schedule(max(1, self.think_cycles), self._launch)
