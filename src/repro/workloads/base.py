"""Workload protocol and ROI runners.

A workload builds its data structures into a :class:`~repro.system.System`'s
process memory, then produces two micro-op traces for the same query stream:

* the **baseline** — the software routine walking the structure with loads,
  compares and data-dependent branches; and
* the **QEI** version — the routine rewritten around QUERY_B / QUERY_NB, the
  way the paper rewrites each benchmark's region of interest (Sec. VI-B).

Both traces carry the workload's characteristic *query density*: the number
of unrelated instructions executed per request (``roi_other_work``), which
determines how many queries the core can keep in flight (Sec. VII-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.accelerator import QueryRequest
from ..core.isa import NbBatch, QueryOperands, QueryPort
from ..cpu.core import CoreResult
from ..cpu.trace import Trace, TraceBuilder
from ..errors import WorkloadError
from ..system import System


@dataclass
class RoiRun:
    """Outcome of timing one ROI trace."""

    cycles: int
    instructions: int
    queries: int
    core_result: CoreResult
    values: List[Optional[int]] = field(default_factory=list)

    @property
    def cycles_per_query(self) -> float:
        return self.cycles / self.queries if self.queries else 0.0


@dataclass
class WorkloadResult:
    """Baseline-vs-QEI comparison for one workload on one scheme."""

    workload: str
    scheme: str
    baseline: RoiRun
    qei: RoiRun

    @property
    def speedup(self) -> float:
        return self.baseline.cycles / self.qei.cycles if self.qei.cycles else 0.0


class QueryWorkload:
    """Base class for the five benchmarks."""

    name = "abstract"
    #: Instructions of unrelated work per request inside the ROI loop.
    roi_other_work = 16
    #: Instructions of non-query application work per request (Fig. 1/9).
    app_other_work = 300
    #: Cycles of non-ROI application time per request, beyond what
    #: ``app_other_work``'s instructions account for.  Real applications
    #: spend a calibrated multiple of the query time outside the ROI
    #: (serialised work, I/O waits, code-footprint stalls our trace model
    #: does not capture); this budget is emitted as dependent long-latency
    #: chains so Fig. 1's query-share and Fig. 9's end-to-end numbers
    #: reflect the paper's profiled application mix.
    app_other_cycles = 0
    #: Latency of each link in the non-ROI dependency chain.
    APP_CHAIN_LINK_CYCLES = 8
    #: Emit application work every N queries (fan-out workloads such as
    #: FLANN issue several probes per application request).
    app_work_stride = 1
    #: Cachelines of per-request buffer (packet payload, request state) the
    #: non-query work touches.  This is what keeps the core's private caches
    #: busy in real request loops — and why near-LLC query execution avoids
    #: polluting them (Sec. V).
    request_buffer_lines = 8
    #: Distinct in-flight request buffers before the ring recycles (DPDK
    #: mbuf-pool-like).
    buffer_ring_requests = 128

    def __init__(self, system: System, *, num_queries: int = 200, seed: int = 7):
        self.system = system
        self.num_queries = num_queries
        self.seed = seed
        self._built = False
        self._queries: List[bytes] = []
        self._query_addrs: List[int] = []
        self._expected: List[Optional[int]] = []
        self._buffer_base = 0

    # ----------------- to implement per workload ----------------------- #

    def build(self) -> None:
        """Create the data structures and the query stream."""
        raise NotImplementedError

    def header_addr_for(self, index: int) -> int:
        """Header the ``index``-th query targets (single-structure default)."""
        raise NotImplementedError

    def emit_software_query(
        self, builder: TraceBuilder, index: int
    ) -> Optional[int]:
        """Emit the baseline routine for query ``index``; returns its value."""
        raise NotImplementedError

    def software_lookup(self, index: int) -> Optional[int]:
        """Functionally re-execute query ``index`` on the CPU path.

        This is the fallback executor's retry body: the same lookup the
        baseline trace models, run directly against the live simulated
        structure (so it observes any damage — or repair — the structure
        has seen since build time).  No timing is charged here; the
        :class:`~repro.system.FallbackExecutor` accounts for the retry cost
        via its backoff budget.
        """
        raise NotImplementedError

    # ----------------- provided machinery ------------------------------ #

    def _register_queries(
        self, queries: Sequence[bytes], expected: Sequence[Optional[int]]
    ) -> None:
        self._queries = list(queries)
        self._expected = list(expected)
        self._query_addrs = [
            self.system.mem.store_bytes(q) for q in self._queries
        ]
        if self.request_buffer_lines:
            ring_bytes = (
                self.buffer_ring_requests * self.request_buffer_lines * 64
            )
            self._buffer_base = self.system.mem.alloc(ring_bytes, align=64)
        self._built = True

    def _emit_other_work(
        self, builder: TraceBuilder, index: int, instructions: int
    ) -> None:
        """Unrelated per-request work: ALU chains plus buffer-line touches.

        The loads hit the request's own buffer in the ring (a packet payload
        or request object), so baseline and QEI runs face the same private-
        cache pressure from the application itself.
        """
        if instructions:
            builder.other_work(instructions)
        if not self.request_buffer_lines:
            return
        slot = index % self.buffer_ring_requests
        base = self._buffer_base + slot * self.request_buffer_lines * 64
        for line in range(self.request_buffer_lines):
            builder.load(base + line * 64)

    def _emit_app_work(self, builder: TraceBuilder, index: int) -> None:
        """Non-ROI application work: instructions plus a latency budget."""
        if index % self.app_work_stride:
            return
        self._emit_other_work(builder, index, self.app_other_work)
        if self.app_other_cycles:
            link = self.APP_CHAIN_LINK_CYCLES
            builder.alu(
                count=max(1, self.app_other_cycles // link), latency=link
            )

    # ----------------- mutation support (docs/mutations.md) ------------ #

    #: Workloads whose primary structure has a registered mutation CFA set
    #: this True and implement :meth:`mutable_structure`.
    MUTABLE = False

    def supports_mutation(self) -> bool:
        return self.MUTABLE

    def mutable_structure(self):
        """The structure write traffic targets (header + software side)."""
        raise WorkloadError(f"workload {self.name!r} has no mutable structure")

    def make_mutator(self):
        """A :class:`~repro.core.mutations.StructureMutator` for this
        workload's primary structure."""
        from ..core.mutations import make_mutator

        return make_mutator(self.system, self.mutable_structure())

    def key_for(self, index: int) -> bytes:
        """The ``index``-th query key (write generators mutate hot keys)."""
        self._require_built()
        return self._queries[index % len(self._queries)]

    @property
    def queries(self) -> List[bytes]:
        return self._queries

    @property
    def expected(self) -> List[Optional[int]]:
        return self._expected

    def request(self, index: int, **fields) -> QueryRequest:
        """The QUERY operands of query ``index``; ``fields`` set the rest
        (``blocking``, ``result_addr``, ``core_id``, ``op``, ``operand``)."""
        return QueryRequest(
            header_addr=self.header_addr_for(index),
            key_addr=self._query_addrs[index],
            **fields,
        )

    def _require_built(self) -> None:
        if not self._built:
            raise WorkloadError(f"workload {self.name!r} not built; call build()")

    # ----------------- trace builders ---------------------------------- #

    def baseline_trace(self) -> Tuple[Trace, List[Optional[int]]]:
        """The software ROI: per request, other work + the query routine."""
        self._require_built()
        builder = TraceBuilder()
        values = []
        for i in range(len(self._queries)):
            self._emit_other_work(builder, i, self.roi_other_work)
            values.append(self.emit_software_query(builder, i))
        return builder.trace, values

    def qei_trace(self, *, batch: int = 8) -> Trace:
        """The rewritten ROI: batched QUERY_B plus per-request other work.

        Queries issue in small *double-buffered* batches (the paper's List 2
        pattern): batch k's results are consumed only after batch k+1 has
        been issued, so the accelerator always has work while the core uses
        results — exactly how a performance engineer pipelines blocking
        queries against the QST capacity.
        """
        self._require_built()
        builder = TraceBuilder()
        previous: List[int] = []
        pending: List[int] = []
        for i in range(len(self._queries)):
            self._emit_other_work(builder, i, self.roi_other_work)
            op = builder.query_b(
                QueryOperands(self.header_addr_for(i), self._query_addrs[i])
            )
            pending.append(op)
            if len(pending) >= batch:
                for q in previous:
                    builder.alu(deps=(q,))  # consume the older batch
                previous, pending = pending, []
        for q in previous + pending:
            builder.alu(deps=(q,))
        return builder.trace

    def qei_nb_trace(self, *, poll_every: int = 32) -> Tuple[Trace, List[NbBatch]]:
        """Non-blocking ROI: QUERY_NB bursts polled every ``poll_every``."""
        self._require_built()
        builder = TraceBuilder()
        batches: List[NbBatch] = []
        result_base = self.system.mem.alloc(16 * len(self._queries), align=64)
        batch = NbBatch(result_base)
        batch_fill = 0  # queries assigned to the current batch at build time
        for i in range(len(self._queries)):
            self._emit_other_work(builder, i, self.roi_other_work)
            operands = QueryOperands(
                self.header_addr_for(i),
                self._query_addrs[i],
                result_addr=result_base + 16 * i,
            )
            builder.query_nb((operands, batch))
            batch_fill += 1
            if batch_fill >= poll_every:
                builder.wait_result(batch)
                batches.append(batch)
                batch = NbBatch(result_base)
                batch_fill = 0
        if batch_fill:
            builder.wait_result(batch)
            batches.append(batch)
        return builder.trace, batches

    def app_trace_baseline(self) -> Tuple[Trace, List[Optional[int]]]:
        """Whole-application request loop (non-ROI work + software query)."""
        self._require_built()
        builder = TraceBuilder()
        values = []
        for i in range(len(self._queries)):
            self._emit_app_work(builder, i)
            if self.roi_other_work:
                builder.other_work(self.roi_other_work)
            values.append(self.emit_software_query(builder, i))
        return builder.trace, values

    def app_trace_qei(self, *, batch: int = 8) -> Trace:
        """Whole-application request loop with the ROI offloaded to QEI."""
        self._require_built()
        builder = TraceBuilder()
        previous: List[int] = []
        pending: List[int] = []
        for i in range(len(self._queries)):
            self._emit_app_work(builder, i)
            if self.roi_other_work:
                builder.other_work(self.roi_other_work)
            op = builder.query_b(
                QueryOperands(self.header_addr_for(i), self._query_addrs[i])
            )
            pending.append(op)
            if len(pending) >= batch:
                for q in previous:
                    builder.alu(deps=(q,))
                previous, pending = pending, []
        for q in previous + pending:
            builder.alu(deps=(q,))
        return builder.trace

    def app_trace_other_only(self) -> Trace:
        """The application loop with the query routine removed.

        Used for Fig. 1's cycle attribution: the difference between the full
        application run and this run is the time spent in query operations.
        """
        self._require_built()
        builder = TraceBuilder()
        for i in range(len(self._queries)):
            self._emit_app_work(builder, i)
            if self.roi_other_work:
                builder.other_work(self.roi_other_work)
        return builder.trace

    # ----------------- verification ------------------------------------ #

    def verify_port(self, port: QueryPort) -> None:
        """Cross-check accelerator results against the software reference."""
        got = [h.value for h in port.handles]
        if len(got) != len(self._expected):
            raise WorkloadError(
                f"{self.name}: expected {len(self._expected)} results, "
                f"accelerator produced {len(got)}"
            )
        for i, (value, expected) in enumerate(zip(got, self._expected)):
            if value != expected:
                raise WorkloadError(
                    f"{self.name}: query {i} returned {value!r}, software "
                    f"reference says {expected!r}"
                )


# ------------------------------------------------------------------ #
# Runners
# ------------------------------------------------------------------ #


def run_baseline(
    system: System,
    workload: QueryWorkload,
    *,
    app: bool = False,
    warm: bool = True,
    emitted: Optional[Tuple[Trace, List[Optional[int]]]] = None,
) -> RoiRun:
    """Time the software ROI (or whole app) on core 0.

    ``emitted`` is the ``(Trace, values)`` pair that
    :meth:`QueryWorkload.baseline_trace` returned on an identical memory
    image (the figure sweeps share one per workload); without it the
    workload emits its own.  It is the ROI trace, so ``app`` must be False.
    """
    if app and emitted is not None:
        raise ValueError("emitted is a baseline_trace() pair; app runs emit their own")
    if warm:
        system.warm_llc()
    ops, values = emitted or (
        workload.app_trace_baseline() if app else workload.baseline_trace()
    )
    result = system.run_trace(ops)
    return RoiRun(
        cycles=result.cycles,
        instructions=result.instructions,
        queries=len(workload.queries),
        core_result=result,
        values=values,
    )


def run_qei(
    system: System,
    workload: QueryWorkload,
    *,
    app: bool = False,
    non_blocking: bool = False,
    batch: int = 8,
    poll_every: int = 32,
    verify: bool = True,
    warm: bool = True,
) -> RoiRun:
    """Time the QEI-offloaded ROI (or whole app) on core 0."""
    if warm:
        system.warm_llc()
    if non_blocking:
        trace, _ = workload.qei_nb_trace(poll_every=poll_every)
    elif app:
        trace = workload.app_trace_qei(batch=batch)
    else:
        trace = workload.qei_trace(batch=batch)
    port = system.query_port(0)
    result = system.run_trace(trace, port=port)
    if verify:
        workload.verify_port(port)
    return RoiRun(
        cycles=result.cycles,
        instructions=result.instructions,
        queries=len(workload.queries),
        core_result=result,
        values=[h.value for h in port.handles],
    )
