"""System facade: one simulated machine, ready to run queries.

Builds the full substrate stack (physical memory, process address space,
MMUs, cache hierarchy, mesh NoC, cores) plus the QEI accelerator for a
chosen integration scheme, and exposes the handful of operations the
workloads and experiment drivers need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .config import CACHELINE_BYTES, IntegrationScheme, SystemConfig
from .core.abort import AbortCode
from .core.accelerator import QeiAccelerator, QueryRequest, QueryStatus
from .core.integration import SliceState, build_integration
from .core.isa import QueryPort
from .core.programs import default_firmware
from .cpu.core import CoreResult, OoOCore
from .cpu.trace import Trace
from .datastructs.base import ProcessMemory
from .errors import ConfigurationError, MemoryError_
from .mem.hierarchy import MemoryHierarchy, nuca_slice_hash
from .mem.mmu import Mmu
from .noc.mesh import MeshNoc
from .sim.engine import Engine
from .sim.stats import StatsRegistry


@dataclass
class QueryOutcome:
    """Final disposition of one query after the fallback policy ran.

    ``accelerated`` is True when the accelerator produced the result;
    otherwise ``attempts`` software re-executions were made and ``resolved``
    says whether one of them succeeded within the retry budget.
    """

    value: Optional[int]
    accelerated: bool
    abort_code: AbortCode = AbortCode.NONE
    attempts: int = 0
    resolved: bool = True
    completion_cycle: int = 0


@dataclass
class FirmwareUpdate:
    """Ticket for one live firmware update (hot-swap).

    The swap commits only after every accelerator home has quiesced; until
    then queries keep executing against the old table.  ``completed_cycle``
    is set (and ``done`` turns True) at commit time.
    """

    programs: tuple
    requested_cycle: int
    completed_cycle: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.completed_cycle is not None


class FallbackExecutor:
    """Software retry path for aborted queries (graceful degradation).

    The accelerator is the fast path; when it aborts a query — corrupted
    header, broken pointer chain, watchdog, interrupt flush — the runtime
    re-executes the query on the simulated CPU path after an exponential
    backoff in simulated cycles, charging everything to the shared engine
    clock and recording per-abort-code counters plus the fallback fraction.
    """

    #: Software re-executions attempted before the query is reported failed.
    MAX_RETRIES = 3
    #: Simulated cycles waited before the first retry.
    BACKOFF_CYCLES = 64
    #: Growth factor applied to the wait between successive retries.
    BACKOFF_MULTIPLIER = 4

    def __init__(
        self,
        accelerator: QeiAccelerator,
        *,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.accelerator = accelerator
        self.engine = accelerator.engine
        self.stats = (stats or StatsRegistry()).scoped("fallback")
        self._accelerated = self.stats.counter("accelerated")
        self._taken = self.stats.counter("taken")
        self._retries = self.stats.counter("retries")
        self._exhausted = self.stats.counter("exhausted")

    # ------------------------------------------------------------------ #

    def execute(
        self,
        request: QueryRequest,
        software_fn: Callable[[], Optional[int]],
        *,
        before_retry: Optional[Callable[[], None]] = None,
    ) -> QueryOutcome:
        """Run ``request`` on the accelerator, falling back to software.

        ``software_fn`` is the CPU-path re-execution of the same query
        (e.g. :meth:`~repro.workloads.base.QueryWorkload.software_lookup`).
        ``before_retry`` runs once before the first software attempt — the
        hook where a campaign heals injected damage, modelling the OS
        repairing the faulting structure.
        """
        handle = self.accelerator.submit(request, self.engine.now)
        try:
            self.accelerator.wait_for(handle)
        except MemoryError_:
            # A fault escaping the accelerator means the submission path
            # itself touched bad memory; treat it like an aborted query.
            handle.status = QueryStatus.FAULT
            handle.abort_code = AbortCode.FAULT
        if handle.status in (QueryStatus.FOUND, QueryStatus.NOT_FOUND):
            self._accelerated.add()
            return QueryOutcome(
                value=handle.value,
                accelerated=True,
                completion_cycle=handle.completion_cycle or self.engine.now,
            )
        return self.run_software(
            software_fn, abort_code=handle.abort_code, before_retry=before_retry
        )

    def run_software(
        self,
        software_fn: Callable[[], Optional[int]],
        *,
        abort_code: AbortCode = AbortCode.NONE,
        before_retry: Optional[Callable[[], None]] = None,
    ) -> QueryOutcome:
        """The retry loop alone (for queries already known to have aborted)."""
        self._taken.add()
        if abort_code.is_abort:
            self.stats.counter(f"abort.{abort_code.name.lower()}").add()
        if before_retry is not None:
            before_retry()
        wait = self.BACKOFF_CYCLES
        for attempt in range(1, self.MAX_RETRIES + 1):
            self._retries.add()
            self.engine.advance(wait)
            wait *= self.BACKOFF_MULTIPLIER
            try:
                value = software_fn()
            except MemoryError_:
                continue  # damage not repaired yet; back off and retry
            return QueryOutcome(
                value=value,
                accelerated=False,
                abort_code=abort_code,
                attempts=attempt,
                completion_cycle=self.engine.now,
            )
        self._exhausted.add()
        return QueryOutcome(
            value=None,
            accelerated=False,
            abort_code=abort_code,
            attempts=self.MAX_RETRIES,
            resolved=False,
            completion_cycle=self.engine.now,
        )

    @property
    def fallback_fraction(self) -> float:
        """Fraction of executed queries that needed the software path."""
        return self.stats.fraction("taken", "taken", "accelerated")


class System:
    """A simulated machine: substrates + QEI under one integration scheme."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        scheme: "IntegrationScheme | str" = IntegrationScheme.CORE_INTEGRATED,
        *,
        mem: Optional[ProcessMemory] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.scheme = IntegrationScheme.parse(scheme)
        self.stats = StatsRegistry()
        # ``engine=`` adopts a shared event clock: the cluster tier
        # (serve/cluster/) runs every node's System on one engine so the
        # whole fleet is a single deterministic discrete-event simulation.
        self.engine = engine if engine is not None else Engine()

        self.noc = MeshNoc(self.config.noc, stats=self.stats)
        # Wiring the NoC object (not just its hooks) lets the hierarchy's
        # epoch-memoized fast path batch send charges (noc/mesh.py).
        self.hierarchy = MemoryHierarchy(self.config, stats=self.stats, noc=self.noc)
        # ``mem=`` adopts an already-populated process memory (frames, page
        # tables, allocator state) — the warm-system snapshot restore path
        # (analysis/snapshot.py).  Caches, TLBs and stats always start cold,
        # exactly as they would after a fresh build.
        self.mem = mem if mem is not None else ProcessMemory(
            physical_bytes=self.config.memory_bytes
        )
        self.space = self.mem.space
        self.core_mmus = [
            Mmu(
                self.space,
                [self.config.core.l1_dtlb, self.config.core.l2_tlb],
                stats=self.stats,
                name=f"core{i}.mmu",
            )
            for i in range(self.config.num_cores)
        ]
        self.cores = [
            OoOCore(
                i, self.config.core, self.hierarchy, self.core_mmus[i],
                stats=self.stats,
            )
            for i in range(self.config.num_cores)
        ]
        self.firmware = default_firmware(max_states=self.config.qei.max_states)
        self.integration = build_integration(
            self.scheme,
            self.config,
            self.hierarchy,
            self.noc,
            self.space,
            self.core_mmus,
            stats=self.stats,
        )
        self.accelerator = QeiAccelerator(
            self.engine,
            self.firmware,
            self.integration,
            self.space,
            qst_entries=self.config.effective_qst_entries(self.scheme),
            stats=self.stats,
            watchdog_steps=self.config.qei.watchdog_steps,
        )
        self.fallback = FallbackExecutor(self.accelerator, stats=self.stats)
        self._mutations = None

    # ------------------------------------------------------------------ #

    def mutations(self):
        """The write-path executor (docs/mutations.md), built on demand.

        Constructed lazily — and with lazily-created counters — so a
        read-only run keeps a byte-identical stats snapshot whether or not
        the mutation subsystem is loaded.
        """
        if self._mutations is None:
            from .core.mutations import MutationExecutor

            self._mutations = MutationExecutor(self)
        return self._mutations

    def enable_mutations(self) -> None:
        """Register the INSERT/UPDATE/DELETE CFA programs on live firmware.

        Idempotent: programs whose type already has a mutation CFA are left
        alone.
        """
        from .core.mutations import mutation_programs

        loaded = set(self.firmware.mutation_types())
        for program in mutation_programs():
            if program.TYPE_CODE not in loaded:
                self.firmware.register(program, mutation=True)

    def start_resize(self, table, *, chunk_buckets: int = 8):
        """An :class:`~repro.core.mutations.OnlineResizer` for ``table``.

        The caller drives ``start()`` / ``step()`` / ``commit()`` (or
        ``run_to_completion()``) while queries keep landing on the
        old-or-new versioned regions.
        """
        from .core.mutations import OnlineResizer

        return OnlineResizer(self, table, chunk_buckets=chunk_buckets)

    def query_port(self, core_id: int = 0) -> QueryPort:
        """A per-core port that QUERY micro-ops resolve through."""
        return QueryPort(self.accelerator, core_id)

    def run_trace(
        self,
        trace: Trace,
        *,
        port: Optional[QueryPort] = None,
    ) -> CoreResult:
        """Execute one micro-op trace on core 0, resolving queries via QEI.

        Successive calls continue from the simulation's current time so the
        accelerator's event clock and the core clock stay aligned.
        """
        resolver = port if port is not None else self.query_port()
        result = self.cores[0].execute(
            trace, start_cycle=self.engine.now, external=resolver
        )
        # Bring the event clock up to the core's completion point.
        if result.end_cycle > self.engine.now:
            self.engine.run(until=result.end_cycle)
        return result

    def make_server(
        self,
        workload,
        serve_config,
        *,
        mode: str = "batched",
        seed: int = 7,
    ):
        """A multi-tenant :class:`~repro.serve.QueryServer` over this machine.

        The server shares this system's engine, accelerator and fallback
        executor, so aborted queries under load follow the exact same
        hardened path the fault campaign validates.
        """
        from .serve import QueryServer

        return QueryServer(self, workload, serve_config, mode=mode, seed=seed)

    # ------------------------------------------------------------------ #
    # Infrastructure-fault control surface (slice failover, hot-swap)
    # ------------------------------------------------------------------ #

    def _check_home(self, home: int) -> None:
        homes = self.integration.accelerator_homes()
        if home not in homes:
            raise ConfigurationError(
                f"home {home} is not an accelerator home under "
                f"{self.scheme.value} (homes: {homes})"
            )

    def fail_slice(self, home: int) -> int:
        """Kill one accelerator home: abort its queries, reroute new ones.

        Returns the number of in-flight/queued queries aborted with
        ``SLICE_DOWN`` (each resolves through the software fallback).
        """
        self._check_home(home)
        return self.accelerator.fail_home(home)

    def recover_slice(self, home: int) -> None:
        """Return a failed (or draining) home to the routable set."""
        self._check_home(home)
        self.accelerator.restore_home(home)

    def update_firmware(
        self,
        programs,
        *,
        replace: bool = True,
        on_complete=None,
    ) -> FirmwareUpdate:
        """Live CFA firmware update: validate, quiesce, swap atomically.

        The new ``programs`` are registered on a *staged copy* of the live
        image first — a :class:`~repro.errors.FirmwareError` (bad program,
        state budget, duplicate without ``replace``) raises here and leaves
        the live table untouched (the rollback path).  Every HEALTHY home is
        then marked DRAINING; once all in-flight queries retire the staged
        table is adopted in one step, the drained homes return to HEALTHY,
        and ``on_complete(update)`` fires.  On an idle machine the swap
        commits before this method returns.

        Adoption bumps ``FirmwareImage.epoch``, which invalidates the
        accelerator's step table (``core/specialize.py``); the next
        accepted query lazily rebinds the swapped-in programs.
        Because the swap only commits after every home quiesces, no
        in-flight query can ever straddle a table rebuild.
        """
        staged = self.firmware.staged_copy()
        for program in programs:
            staged.register(program, replace=replace)
        update = FirmwareUpdate(
            programs=tuple(type(p).__name__ for p in programs),
            requested_cycle=self.engine.now,
        )
        integration = self.integration
        drained = [
            home
            for home in integration.accelerator_homes()
            if integration.home_state(home) is SliceState.HEALTHY
        ]

        def commit() -> None:
            self.firmware.adopt(staged)
            for home in drained:
                integration.set_home_state(home, SliceState.HEALTHY)
            update.completed_cycle = self.engine.now
            self.stats.scoped("qei").counter("firmware.swaps").add()
            if on_complete is not None:
                on_complete(update)

        self.accelerator.quiesce(on_quiesced=commit)
        return update

    # ------------------------------------------------------------------ #

    def warm_llc(self) -> None:
        """Install every mapped line into the LLC (steady-state start).

        The paper evaluates ROIs inside running benchmarks ("we generate
        queries as quickly and densely as possible"), so query data is
        LLC-resident at measurement time.  This fills LLC slices directly —
        private caches and TLBs stay cold and warm organically during the
        run, for both the software baseline and QEI.

        Lines are bucketed by home slice, in mapping order, and each slice
        takes its bucket in one :meth:`~repro.mem.cache.Cache.fill_lines`.
        """
        space = self.space
        page = space.page_bytes
        lines_per_page = page // CACHELINE_BYTES
        pairs = []
        runs = []  # (first line, line count) per mapping
        for vpn, entry in space.page_table:
            pairs.append((vpn, entry.frame_number * page))
            runs.append((entry.frame_number * lines_per_page, lines_per_page))
        huge_lines = space.HUGE_PAGE_BYTES // CACHELINE_BYTES
        for hpn, base_frame in space.huge_pages():
            pairs.append((space.HUGE_KEY_BASE + hpn, base_frame * page))
            runs.append((base_frame * lines_per_page, huge_lines))
        slices = self.hierarchy.llc_slices
        num_slices = len(slices)
        buckets = [[] for _ in slices]
        add = [bucket.append for bucket in buckets]
        for first, count in runs:
            for line in range(first, first + count):
                add[nuca_slice_hash(line, num_slices)](line)
        for cache, lines in zip(slices, buckets):
            cache.fill_lines(lines)
        self.integration.warm_translations(pairs)

    def flush_caches(self) -> None:
        """Cold-start the memory system (between experiment phases)."""
        self.hierarchy.flush_all()
        for mmu in self.core_mmus:
            mmu.flush()
        self.integration.flush_translations()
