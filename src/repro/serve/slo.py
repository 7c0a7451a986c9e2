"""Per-tenant latency accounting, SLO budgets and the serving report.

Every completed request records its end-to-end latency — generation to
result, so admission queueing, batching delay, accelerator execution and
any software-fallback retries all count — into a per-tenant
:class:`~repro.sim.stats.PercentileSketch`.  The tracker folds the tenant
sketches into a fleet aggregate (sketch merges are exact) and judges each
tenant's p99 against its SLO budget.

:meth:`SloTracker.report` returns plain dictionaries; :meth:`SloTracker.dump`
serializes them canonically (sorted keys, fixed separators) so two runs with
the same seed and configuration produce byte-identical dumps — the
determinism contract ``tests/test_determinism.py`` enforces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import ServeConfig
from ..sim.stats import PercentileSketch, StatsRegistry

#: Report keys of serving policies the tier no longer has (deadline
#: shedding, a circuit breaker, hedged retries), always 0.  Pinned digests
#: hash report dumps byte for byte, so the keys stay; phase rows never
#: carried ``hedges``.
_RETIRED_PHASE_KEYS = {"breaker_rejected": 0, "deadline_shed": 0}
_RETIRED_KEYS = {**_RETIRED_PHASE_KEYS, "hedges": 0}


@dataclass
class ServingReport:
    """One serving run's results: per-tenant rows plus the aggregate."""

    scheme: str
    mode: str
    seed: int
    elapsed_cycles: int
    tenants: List[Dict[str, object]] = field(default_factory=list)
    aggregate: Dict[str, object] = field(default_factory=dict)
    #: Per-phase rows (chaos runs segment the timeline at every fault event;
    #: plain serving runs leave this empty).
    phases: List[Dict[str, object]] = field(default_factory=list)

    def dump(self) -> str:
        """Canonical JSON (byte-identical across same-seed runs)."""
        return json.dumps(
            {
                "scheme": self.scheme,
                "mode": self.mode,
                "seed": self.seed,
                "elapsed_cycles": self.elapsed_cycles,
                "tenants": self.tenants,
                "aggregate": self.aggregate,
                "phases": self.phases,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def tenant(self, tenant_id: int) -> Dict[str, object]:
        return self.tenants[tenant_id]


class SloTracker:
    """Latency sketches, outcome counters and SLO verdicts per tenant."""

    #: Per-tenant SLO: the p99 latency budget in cycles.
    SLO_P99_CYCLES = 50_000

    def __init__(
        self,
        config: ServeConfig,
        *,
        stats: Optional[StatsRegistry] = None,
        frequency_ghz: float = 2.5,
    ) -> None:
        self.config = config
        self.frequency_ghz = frequency_ghz
        self.stats = (stats or StatsRegistry()).scoped("serve.slo")
        self._sketches: List[PercentileSketch] = [
            self.stats.sketch(f"tenant{t}.latency")
            for t in range(config.tenants)
        ]
        self._completed = [
            self.stats.counter(f"tenant{t}.completed")
            for t in range(config.tenants)
        ]
        self._rejected = [
            self.stats.counter(f"tenant{t}.rejected")
            for t in range(config.tenants)
        ]
        self._fallbacks = [
            self.stats.counter(f"tenant{t}.fallbacks")
            for t in range(config.tenants)
        ]
        self._violations = [
            self.stats.counter(f"tenant{t}.slo_violations")
            for t in range(config.tenants)
        ]
        self._failed = [
            self.stats.counter(f"tenant{t}.failed")
            for t in range(config.tenants)
        ]
        self._admitted = [
            self.stats.counter(f"tenant{t}.admitted")
            for t in range(config.tenants)
        ]
        self._errors = self.stats.counter("result_errors")
        #: Phase segmentation (chaos runs): each phase accumulates its own
        #: sketch and outcome counters from ``begin_phase`` onwards.
        self._phases: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #

    def begin_phase(self, name: str, now: int) -> None:
        """Open a new accounting phase (availability/p99 reported per phase)."""
        self._phases.append(
            {
                "name": name,
                "start_cycle": now,
                "sketch": PercentileSketch(f"phase.{name}.latency"),
                "admitted": 0,
                "completed": 0,
                "fallbacks": 0,
                "failed": 0,
            }
        )

    def _phase(self) -> Optional[Dict[str, object]]:
        return self._phases[-1] if self._phases else None

    # ------------------------------------------------------------------ #

    def record_completion(
        self, tenant: int, latency: int, *, accelerated: bool
    ) -> None:
        self._sketches[tenant].record(latency)
        self._completed[tenant].add()
        if not accelerated:
            self._fallbacks[tenant].add()
        if latency > self.SLO_P99_CYCLES:
            self._violations[tenant].add()
        phase = self._phase()
        if phase is not None:
            phase["completed"] += 1
            phase["sketch"].record(latency)
            if not accelerated:
                phase["fallbacks"] += 1

    def record_rejection(self, tenant: int) -> None:
        self._rejected[tenant].add()

    def record_admission(self, tenant: int) -> None:
        """A request cleared admission (denominator of availability)."""
        self._admitted[tenant].add()
        phase = self._phase()
        if phase is not None:
            phase["admitted"] += 1

    def record_failure(self, tenant: int) -> None:
        """A request the fallback path could not resolve (or gave up on)."""
        self._failed[tenant].add()
        phase = self._phase()
        if phase is not None:
            phase["failed"] += 1

    def record_error(self) -> None:
        """An accelerated result disagreeing with the software oracle."""
        self._errors.add()

    def sketch_of(self, tenant: int) -> PercentileSketch:
        """The tenant's live latency sketch (the cluster merges it fleet-wide)."""
        return self._sketches[tenant]

    @property
    def terminal(self) -> int:
        """Requests with a terminal outcome (completion) so far.

        The chaos harness keys its fault schedule off this count, so the
        same seed fires every event at the same point of the run.
        """
        return sum(c.value for c in self._completed)

    # ------------------------------------------------------------------ #

    def _qps(self, completed: int, elapsed_cycles: int) -> float:
        if not elapsed_cycles:
            return 0.0
        seconds = elapsed_cycles / (self.frequency_ghz * 1e9)
        return completed / seconds

    def _tenant_row(self, tenant: int, elapsed_cycles: int) -> Dict[str, object]:
        sketch = self._sketches[tenant]
        completed = self._completed[tenant].value
        fallbacks = self._fallbacks[tenant].value
        return {
            "tenant": tenant,
            "admitted": self._admitted[tenant].value,
            "completed": completed,
            "rejected": self._rejected[tenant].value,
            **_RETIRED_KEYS,
            "failed": self._failed[tenant].value,
            "fallbacks": fallbacks,
            "fallback_fraction": fallbacks / completed if completed else 0.0,
            "p50": sketch.p50,
            "p95": sketch.p95,
            "p99": sketch.p99,
            "p999": sketch.p999,
            "mean": sketch.mean,
            "qps": self._qps(completed, elapsed_cycles),
            "slo_violations": self._violations[tenant].value,
            "slo_budget_p99": self.SLO_P99_CYCLES,
            "slo_met": sketch.p99 <= self.SLO_P99_CYCLES,
            "latency_sketch": sketch.to_dict(),
        }

    def report(
        self,
        *,
        scheme: str,
        mode: str,
        seed: int,
        elapsed_cycles: int,
    ) -> ServingReport:
        report = ServingReport(
            scheme=scheme, mode=mode, seed=seed, elapsed_cycles=elapsed_cycles
        )
        merged = PercentileSketch("aggregate.latency")
        completed = rejected = fallbacks = failed = violations = admitted = 0
        for tenant in range(self.config.tenants):
            row = self._tenant_row(tenant, elapsed_cycles)
            report.tenants.append(row)
            merged.merge(self._sketches[tenant])
            completed += self._completed[tenant].value
            rejected += self._rejected[tenant].value
            fallbacks += self._fallbacks[tenant].value
            failed += self._failed[tenant].value
            violations += self._violations[tenant].value
            admitted += self._admitted[tenant].value
        report.aggregate = {
            "completed": completed,
            "rejected": rejected,
            "admitted": admitted,
            **_RETIRED_KEYS,
            # Liveness: every admitted request must complete (possibly via
            # the fallback).  Anything else is a lost request, which the
            # chaos harness treats as a hang.
            "availability": completed / admitted if admitted else 1.0,
            "failed": failed,
            "fallbacks": fallbacks,
            "fallback_fraction": fallbacks / completed if completed else 0.0,
            "result_errors": self._errors.value,
            "p50": merged.p50,
            "p95": merged.p95,
            "p99": merged.p99,
            "p999": merged.p999,
            "mean": merged.mean,
            "qps": self._qps(completed, elapsed_cycles),
            "slo_violations": violations,
            "tenants_meeting_slo": sum(
                1 for row in report.tenants if row["slo_met"]
            ),
        }
        for phase in self._phases:
            sketch = phase["sketch"]
            admitted_p = phase["admitted"]
            report.phases.append(
                {
                    "name": phase["name"],
                    "start_cycle": phase["start_cycle"],
                    "admitted": admitted_p,
                    "completed": phase["completed"],
                    **_RETIRED_PHASE_KEYS,
                    "failed": phase["failed"],
                    "fallbacks": phase["fallbacks"],
                    "availability": (
                        phase["completed"] / admitted_p if admitted_p else 1.0
                    ),
                    "p50": sketch.p50,
                    "p99": sketch.p99,
                    "mean": sketch.mean,
                }
            )
        return report
