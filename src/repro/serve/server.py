"""The query server: frontend -> batcher -> accelerator -> SLO tracker.

:class:`QueryServer` is the serving loop that real cloud traffic would
drive.  It is built *on top of* the :class:`~repro.system.System` facade:
the accelerator, fallback executor and event engine are the system's own,
so everything the fault campaign hardened (abort codes, watchdog, software
fallback) holds unchanged under load.

Two service disciplines are modelled:

* ``batched`` — admitted requests are coalesced into QUERY_NB bursts per
  home slice (the paper's non-blocking mode at cloud request rates); as
  many requests overlap as the scheme's QST holds.
* ``blocking`` — one QUERY_B per tenant at a time, the naive RPC-handler
  port of the ROI loop.  This is the baseline the throughput-vs-p99 curve
  in ``benchmarks/test_serving.py`` compares against.

Aborted queries flow through the system's :class:`FallbackExecutor`: the
software path re-executes the query, its backoff cycles are charged to the
shared clock, and the request's latency includes the whole detour.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..config import ServeConfig
from ..core.accelerator import QueryHandle, QueryRequest, QueryStatus
from ..errors import ReproError
from ..sim.stats import StatsRegistry
from ..sim.weak import weak_method
from ..system import System
from .batcher import Batcher
from .frontend import Frontend, ServeRequest
from .loadgen import LoadGenerator
from .slo import ServingReport, SloTracker

#: Service disciplines.
MODE_BATCHED = "batched"
MODE_BLOCKING = "blocking"

#: Safety valve: engine steps the serving loop may take without resolving a
#: request before it declares the run wedged.
_STALL_GUARD_STEPS = 50_000_000


class ServingError(ReproError):
    """The serving loop wedged or was misconfigured."""


def _no_wake() -> None:
    pass


class QueryServer:
    """Multi-tenant serving tier over one simulated machine."""

    def __init__(
        self,
        system: System,
        workload,
        config: ServeConfig,
        *,
        mode: str = MODE_BATCHED,
        seed: int = 7,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if mode not in (MODE_BATCHED, MODE_BLOCKING):
            raise ServingError(
                f"unknown serving mode {mode!r}; expected "
                f"{MODE_BATCHED!r} or {MODE_BLOCKING!r}"
            )
        self.system = system
        self.workload = workload
        self.config = config
        self.mode = mode
        self.seed = seed
        self.engine = system.engine
        self.accelerator = system.accelerator
        self.stats = stats or system.stats
        self._serve_stats = self.stats.scoped("serve")

        #: Dispatch window: requests in service at once.  Blocking mode runs
        #: one synchronous request per tenant thread; batched mode fills the
        #: QST.
        if self.mode == MODE_BLOCKING:
            self.limit = self.config.tenants
        else:
            self.limit = system.config.effective_qst_entries(system.scheme)
        self.frontend = Frontend(self.config, stats=self.stats)
        self.batcher = Batcher(
            system, stats=self.stats, on_done=weak_method(self._on_done)
        )
        self.slo = SloTracker(
            self.config,
            stats=self.stats,
            frequency_ghz=system.config.core.frequency_ghz,
        )
        #: Recycled 16B result records for the non-blocking path; the pool is
        #: sized to the dispatch window, so a slot is always free at dispatch.
        self._slots: List[int] = [
            system.mem.alloc(16, align=16) for _ in range(self.limit)
        ]
        self._slot_of: Dict[int, int] = {}  # request_id*tenants+tenant -> slot
        self._generators: List[LoadGenerator] = []
        self._generators_by_tenant: Dict[int, LoadGenerator] = {}
        self._completions: Deque[Tuple[ServeRequest, QueryHandle]] = deque()
        self._outstanding = 0
        self._tenant_outstanding = [0] * self.config.tenants
        #: Called wherever a pump could start doing work: a completion is
        #: queued, a dispatch slot frees up, or dispatch resumes.  The
        #: cluster loop binds it to its ready set so it pumps only the
        #: nodes that have work; :meth:`run` needs no such hint.
        self.wake: Callable[[], None] = _no_wake
        self._dispatched = self._serve_stats.counter("dispatched")
        #: Dispatch gate: the chaos harness pauses dispatch around a live
        #: firmware swap so the quiesce drains instead of racing new bursts.
        self._paused = False
        #: Write-path plumbing (docs/mutations.md) — built only when the
        #: config or an attached generator has a non-zero write ratio, so a
        #: read-only run constructs nothing and keeps a byte-identical stats
        #: snapshot.
        self._mutator = None
        self._oracle = None
        self._write_tokens: Dict[int, int] = {}
        self.write_problems: Optional[List[str]] = None
        if self.config.write_ratio > 0:
            self._enable_writes()

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def _enable_writes(self) -> None:
        """Load mutation firmware and build the mutator + shadow oracle."""
        if self._mutator is not None:
            return
        if not self.workload.supports_mutation():
            raise ServingError(
                f"workload {self.workload.name!r} has no mutable structure; "
                "set every write ratio to 0"
            )
        from .oracle import ShadowOracle

        self.system.enable_mutations()
        self._mutator = self.workload.make_mutator()
        self._oracle = ShadowOracle(self.workload, self._mutator)

    def attach(self, generator: LoadGenerator) -> None:
        """Register one tenant's load generator (exactly one per tenant)."""
        if getattr(generator, "write_ratio", 0.0) > 0:
            self._enable_writes()
        if generator.tenant >= self.config.tenants:
            raise ServingError(
                f"generator tenant {generator.tenant} outside the configured "
                f"{self.config.tenants} tenants"
            )
        if generator.tenant in self._generators_by_tenant:
            raise ServingError(
                f"tenant {generator.tenant} already has a generator attached"
            )
        # This server owns its generators; their way back is weak.
        generator.bind(weakref.proxy(self))
        self._generators.append(generator)
        self._generators_by_tenant[generator.tenant] = generator

    def core_of(self, tenant: int) -> int:
        """The core a tenant's requests submit from."""
        return tenant % self.system.config.num_cores

    # ------------------------------------------------------------------ #
    # Admission (called by load generators)
    # ------------------------------------------------------------------ #

    def accept(self, generator: LoadGenerator, request: ServeRequest) -> bool:
        admission = self.frontend.offer(request, self.engine.now)
        if not admission.admitted:
            self.slo.record_rejection(request.tenant)
            generator.on_rejected(request, admission.retry_after)
            return False
        self.slo.record_admission(request.tenant)
        self._dispatch()
        return True

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _dispatch(self) -> None:
        while not self._paused and self._outstanding < self.limit:
            request = self.frontend.next_request(self.engine.now)
            if request is None:
                return
            self._outstanding += 1
            self._tenant_outstanding[request.tenant] += 1
            self._dispatched.add()
            if self.mode == MODE_BLOCKING:
                self._submit_blocking(request)
            else:
                self.batcher.add(request, self._prepare_nb(request))

    def pause_dispatch(self) -> None:
        """Stop draining admission queues (new arrivals still queue up)."""
        self._paused = True

    def resume_dispatch(self) -> None:
        self._paused = False
        self.wake()
        self._dispatch()

    def _key(self, request: ServeRequest) -> int:
        return request.request_id * self.config.tenants + request.tenant

    def _stage_write(self, request: ServeRequest) -> int:
        """Stage a write's CFA operand and open its oracle window."""
        key = self.workload.key_for(request.index)
        operand = self._mutator.stage(request.op, key, request.value)
        self._write_tokens[self._key(request)] = self._oracle.begin_write(
            request.op, key, request.value, self.engine.now
        )
        self._serve_stats.counter("writes.dispatched").add()
        return operand

    def _prepare_nb(self, request: ServeRequest) -> QueryRequest:
        slot = self._slots.pop()
        self._slot_of[self._key(request)] = slot
        operand = self._stage_write(request) if request.is_write else 0
        return self.workload.request(
            request.index,
            core_id=self.core_of(request.tenant),
            blocking=False,
            result_addr=slot,
            op=request.op,
            operand=operand,
        )

    def _submit_blocking(self, request: ServeRequest) -> None:
        request.dispatch_cycle = self.engine.now
        operand = self._stage_write(request) if request.is_write else 0
        handle = self.accelerator.submit(
            self.workload.request(
                request.index,
                core_id=self.core_of(request.tenant),
                blocking=True,
                op=request.op,
                operand=operand,
            ),
            self.engine.now,
        )
        handle.on_done(lambda h, s=request: self._on_done(s, h))

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #

    def _on_done(self, request: ServeRequest, handle: QueryHandle) -> None:
        # Runs inside an engine event; defer the heavy lifting (fallback
        # execution mutates engine time) to the driving loop.
        self._completions.append((request, handle))
        self.wake()

    def _resolve(self, request: ServeRequest, handle: QueryHandle) -> None:
        if request.is_write:
            self._resolve_write(request, handle)
            return
        tenant = request.tenant
        accelerated = handle.status in (
            QueryStatus.FOUND,
            QueryStatus.NOT_FOUND,
        )
        if accelerated:
            completion = handle.completion_cycle or self.engine.now
            self.slo.record_completion(
                tenant, completion - request.arrival_cycle, accelerated=True
            )
            request.outcome = "ok"
            request.result_value = handle.value
            if not self._read_ok(request, handle.value, completion):
                self.slo.record_error()
        else:
            # Aborted under load: the PR-1 contract routes the query through
            # the system's software-fallback executor, on the shared clock.
            outcome = self.system.fallback.run_software(
                lambda idx=request.index: self.workload.software_lookup(idx),
                abort_code=handle.abort_code,
            )
            if not outcome.resolved:
                request.outcome = "failed"
                self.slo.record_failure(tenant)
            else:
                self.slo.record_completion(
                    tenant,
                    outcome.completion_cycle - request.arrival_cycle,
                    accelerated=False,
                )
                request.outcome = "ok"
                request.result_value = outcome.value
                if not self._read_ok(
                    request, outcome.value, outcome.completion_cycle
                ):
                    self.slo.record_error()
        self._release(request)

    def _release(self, request: ServeRequest) -> None:
        """Free a resolved request's result slot and dispatch credit."""
        tenant = request.tenant
        slot = self._slot_of.pop(self._key(request), None)
        if slot is not None:
            self._slots.append(slot)
        self._outstanding -= 1
        self._tenant_outstanding[tenant] -= 1
        self.wake()
        self._generators_by_tenant[tenant].on_resolved(request)

    def _read_ok(
        self, request: ServeRequest, value: Optional[int], completion: int
    ) -> bool:
        """Judge a read's value: static table when read-only, oracle when
        writes are in flight (the expected value is then time-dependent)."""
        if self._oracle is None:
            return value == self.workload.expected[request.index]
        dispatch = (
            request.dispatch_cycle
            if request.dispatch_cycle is not None
            else request.arrival_cycle
        )
        return self._oracle.check_read(request.index, value, dispatch, completion)

    def _resolve_write(self, request: ServeRequest, handle: QueryHandle) -> None:
        tenant = request.tenant
        token = self._write_tokens.pop(self._key(request), None)
        accelerated = handle.status in (
            QueryStatus.FOUND,
            QueryStatus.NOT_FOUND,
        )
        if accelerated:
            # FOUND carries the MUT_* result code; NOT_FOUND is an
            # UPDATE/DELETE miss (the structure is unchanged).
            result = handle.value if handle.status is QueryStatus.FOUND else None
            completion = handle.completion_cycle or self.engine.now
            commit_seq = handle.commit_version
            commit_cycle = handle.commit_cycle or completion
            if result is not None:
                self._mutator.note_accelerated(
                    request.op,
                    result,
                    key=self.workload.key_for(request.index),
                    value=request.value,
                    ordinal=commit_seq,
                    cycle=commit_cycle,
                )
            self.slo.record_completion(
                tenant, completion - request.arrival_cycle, accelerated=True
            )
        else:
            # Aborted write (version conflict, resize window, slice kill):
            # apply in software under the seqlock, on the shared clock.
            result = self.system.mutations().fallback(
                self._mutator,
                request.op,
                self.workload.key_for(request.index),
                request.value,
                code=handle.abort_code,
            )
            commit_seq = self._mutator.last_commit_version
            commit_cycle = self.engine.now
            self.slo.record_completion(
                tenant,
                self.engine.now - request.arrival_cycle,
                accelerated=False,
            )
        if token is not None:
            self._oracle.end_write(
                token, result, commit_seq=commit_seq, commit_cycle=commit_cycle
            )
        request.outcome = "ok"
        request.result_value = result
        if result is not None:
            request.commit_seq = commit_seq
        self._serve_stats.counter("writes.completed").add()
        self._release(request)

    def _drain_completions(self, on_event=None) -> None:
        # ``on_event`` runs after every resolution, not just once per engine
        # step: a software-fallback detour advances engine time, so a single
        # drain can retire an unbounded run of completions — the chaos
        # harness needs to observe each one to fire its schedule on time.
        while self._completions:
            self._resolve(*self._completions.popleft())
            if on_event is not None:
                on_event(self)

    # ------------------------------------------------------------------ #
    # The serving loop
    # ------------------------------------------------------------------ #

    def _finished(self) -> bool:
        return (
            not self._outstanding
            and not self.frontend.pending
            and not self._completions
            and all(generator.finished for generator in self._generators)
        )

    def run(
        self,
        *,
        on_tick: Optional[Callable[["QueryServer"], None]] = None,
    ) -> ServingReport:
        """Drive the run to completion and return the serving report.

        ``on_tick`` (if given) runs after every engine step — the chaos
        harness uses it to fire slice kills, recoveries and firmware swaps
        at deterministic points of the run.
        """
        if len(self._generators) != self.config.tenants:
            raise ServingError(
                f"{len(self._generators)} generators attached for "
                f"{self.config.tenants} tenants; attach exactly one each"
            )
        start = self.engine.now
        for generator in self._generators:
            generator.start()
        steps = 0
        while not self._finished():
            progressed = self.engine.step()
            if self._completions:
                self._drain_completions(on_tick)
            if self.frontend.pending:
                self._dispatch()
            if on_tick is not None:
                on_tick(self)
            if not progressed:
                if self._finished():
                    break
                # Every open burst holds a live flush timer, so an empty
                # engine with work outstanding is a lost request.
                raise ServingError(
                    "serving loop stalled: no events pending but "
                    f"{self._outstanding} requests outstanding, "
                    f"{self.frontend.pending} queued"
                )
            steps += 1
            if steps > _STALL_GUARD_STEPS:
                raise ServingError("serving loop exceeded its step guard")
        elapsed = self.engine.now - start
        if self._oracle is not None:
            # Lost/phantom-update audit: the drained structure must match
            # the oracle's sequential final state exactly.
            self.write_problems = self._oracle.final_check()
            self._serve_stats.counter("writes.lost_or_phantom").add(
                len(self.write_problems)
            )
            self._serve_stats.counter("reads.wrong").add(
                self._oracle.wrong_reads
            )
        return self.slo.report(
            scheme=self.system.scheme.value,
            mode=self.mode,
            seed=self.seed,
            elapsed_cycles=elapsed,
        )
