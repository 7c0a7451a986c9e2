"""The benchmark's three workloads, each a list of ops over public drivers.

Every workload exposes the same small surface to ``run.py``:

* ``setup()`` — set-up done once before the passes (fig7 only), timed as
  one ``setup_s`` sample and repeated ``SETUP_REPEATS`` times;
* ``before_pass()`` — empties the in-process result memo so a repeated
  pass recomputes instead of replaying;
* ``ops()`` — one pass: ``(op_id, callable)`` pairs, each returning an
  :class:`OpResult` that separates the op's own set-up from its timed
  region;
* ``verify()`` — reference checks that run outside the timed region;
* ``layer_metrics()`` — counts only the workload itself can see (report
  objects), merged into the traced run's per-layer metrics.

Host time is measured here with ``time.perf_counter``; every count comes
from the simulator's own report objects and is simulated, not host, work.
"""

from __future__ import annotations

import hashlib
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter

#: The seed at which the recorded reference outputs were taken.
DEFAULT_SEED = 7

#: Per-layer counts read from report objects; a workload fills its own and
#: the rest read 0 because that layer never runs in it.
REPORT_METRICS = (
    "cpu.distinct_frac", "cpu.instructions",
    "serve.requests", "serve.rejected_frac", "serve.sim_p99_cycles",
    "cluster.retries", "cluster.timeouts", "cluster.resyncs",
    "faults.history_ops", "faults.violations", "faults.deadline_hits",
)


@dataclass
class OpResult:
    timed_s: float
    setup_s: float = 0.0
    #: Ops this call completed (a serve call completes many requests).
    count: int = 1
    failed: int = 0
    #: Reference mismatches and unexpected errors; any makes the run
    #: incorrect (a drill's own contract failure is counted, not listed).
    problems: List[str] = field(default_factory=list)
    #: The timed seconds already at reference speed, when the op fixed them
    #: itself (a drill cut off at its deadline ran exactly its budget).
    scaled_s: Optional[float] = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Defaults for the hooks a workload does not need."""

    SETUP_REPEATS = 0
    #: How much slower than the reference machine the host runs right now
    #: (set before each op from the latest yardstick sample).
    slowdown = 1.0

    def setup(self) -> float:
        return 0.0

    def before_pass(self) -> None:
        pass

    def verify(self) -> List[str]:
        return []


# ---------------------------------------------------------------------- #
# fig7-sweep
# ---------------------------------------------------------------------- #


class Fig7Sweep(Workload):
    """``fig7_speedup(quick=True)``, one (workload, scheme) pair per op.

    The figure is the paper's, at its own fixed workload seeds, so the
    inputs do not depend on ``--seed`` and every pair is checked against
    the recorded baseline/QEI cycles on every run.
    """

    name = "fig7-sweep"
    SETUP_REPEATS = 3

    def __init__(self, seed: int, tracer, reference: Dict[str, object]) -> None:
        from repro.analysis import experiments

        self.experiments = experiments
        self.tracer = tracer
        self.reference = reference
        #: (workload, baseline cycles, baseline instructions) per run.
        self.baselines: List[Tuple[str, int, int]] = []
        self.outputs: Dict[str, List[int]] = {}

    def setup(self) -> float:
        """Populate every dataset and capture its warm-system snapshot."""
        from repro.analysis import snapshot
        from repro.system import System
        from repro.workloads import make_workload

        start = perf_counter()
        for name in self.experiments.BENCH_WORKLOADS:
            params = self.experiments.workload_params(name, True)
            system = System(None, self.experiments.SCHEME_ORDER[0])
            workload = make_workload(name, system, **params)
            snapshot.capture(name, params, system, workload)
        return perf_counter() - start

    def before_pass(self) -> None:
        memo = getattr(self.experiments, "_PAIR_MEMO", None)
        if memo is not None:
            memo.clear()

    def ops(self) -> List[Tuple[str, Callable[[], OpResult]]]:
        return [
            (f"{name}/{scheme}", lambda n=name, s=scheme: self._pair(n, s))
            for name in self.experiments.BENCH_WORKLOADS
            for scheme in self.experiments.SCHEME_ORDER
        ]

    def _pair(self, name: str, scheme: str) -> OpResult:
        start = perf_counter()
        result = self.experiments.fig7_speedup(
            quick=True, workloads=[name], schemes=[scheme]
        )
        timed = perf_counter() - start
        baseline = self.tracer.take("cpu.run")
        qei = self.tracer.take("core.run")
        key = f"{name}/{scheme}"
        if len(baseline) != 1 or len(qei) != 1:
            return OpResult(timed, failed=1, problems=[
                f"{key}: expected one baseline and one QEI run, saw "
                f"{len(baseline)} and {len(qei)}"
            ])
        base, acc = baseline[0], qei[0]
        self.baselines.append((name, base.cycles, base.instructions))
        cycles = [base.cycles, acc.cycles]
        self.outputs[key] = cycles
        problems = []
        if result.rows[0][scheme] != base.cycles / acc.cycles:
            problems.append(f"{key}: figure speedup disagrees with its runs")
        if self.reference.get(key) != cycles:
            problems.append(
                f"{key}: cycles {cycles} differ from reference "
                f"{self.reference.get(key)}"
            )
        return OpResult(timed, failed=1 if problems else 0, problems=problems)

    def layer_metrics(self) -> Dict[str, float]:
        runs = len(self.baselines)
        return {
            "cpu.distinct_frac": len(set(self.baselines)) / runs if runs else 0.0,
            "cpu.instructions": sum(b[2] for b in self.baselines),
        }


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #


class ServeMixed(Workload):
    """The single-node serving tier, all five schemes, 95/5 read/write.

    Mirrors ``run_serving`` with the build split from the run: 4 tenants,
    open-loop Poisson arrivals in simulated time at the default offered
    load, 2000 requests per scheme.  The host drives the simulation from
    one thread as fast as it can, so the generator never runs late.
    """

    name = "serve-mixed"
    TENANTS = 4
    REQUESTS = 2000
    WRITE_RATIO = 0.05

    def __init__(self, seed: int, tracer, reference: Dict[str, object]) -> None:
        from repro.serve.driver import SCHEME_ORDER

        self.seed = seed
        self.schemes = list(SCHEME_ORDER)
        self.reference = reference
        self.outputs: Dict[str, str] = {}
        self.requests = 0
        self.rejected = 0
        self.p99: Dict[str, float] = {}

    def _run(self, scheme: str, seed: int):
        from repro.config import ServeConfig
        from repro.serve import OpenLoopGenerator, QueryServer, build_serving_system

        start = perf_counter()
        config = ServeConfig(tenants=self.TENANTS, write_ratio=self.WRITE_RATIO)
        system, built = build_serving_system(scheme, seed=seed, serve_config=config)
        server = QueryServer(system, built, config, seed=seed)
        for tenant in range(config.tenants):
            server.attach(
                OpenLoopGenerator(
                    tenant,
                    rate=config.offered_load,
                    num_requests=self.REQUESTS // config.tenants,
                    num_queries=len(built.queries),
                    seed=seed,
                    stats=system.stats,
                    write_ratio=config.write_ratio_of(tenant),
                )
            )
        built_at = perf_counter()
        report = server.run()
        end = perf_counter()
        return built_at - start, end - built_at, report, server

    def ops(self) -> List[Tuple[str, Callable[[], OpResult]]]:
        return [(scheme, lambda s=scheme: self._op(s)) for scheme in self.schemes]

    def _op(self, scheme: str) -> OpResult:
        setup, timed, report, server = self._run(scheme, self.seed)
        aggregate = report.aggregate
        write_problems = getattr(server, "write_problems", []) or []
        failed = (
            aggregate["failed"]
            + aggregate["rejected"]
            + aggregate["deadline_shed"]
            + aggregate["breaker_rejected"]
            + aggregate["result_errors"]
            + len(write_problems)
        )
        problems = []
        if aggregate["result_errors"] or write_problems:
            problems.append(
                f"{scheme}: {aggregate['result_errors']} wrong results, "
                f"shadow-oracle audit {write_problems}"
            )
        digest = _digest(report.dump())
        previous = self.outputs.setdefault(scheme, digest)
        if previous != digest:
            problems.append(f"{scheme}: same-seed passes produced different reports")
        if self.seed == DEFAULT_SEED:
            problems += self._against_reference(scheme, digest)
        if problems:
            failed = self.REQUESTS
        self.requests += self.REQUESTS
        self.rejected += aggregate["rejected"]
        self.p99[scheme] = aggregate["p99"]
        return OpResult(
            timed, setup_s=setup, count=self.REQUESTS,
            failed=min(failed, self.REQUESTS), problems=problems,
        )

    def _against_reference(self, scheme: str, digest: str) -> List[str]:
        expected = self.reference.get(f"serve/{scheme}")
        if digest != expected:
            return [f"{scheme}: report digest {digest[:12]} differs from reference"]
        return []

    def verify(self) -> List[str]:
        """At another seed, re-run the default seed untimed for the digest."""
        if self.seed == DEFAULT_SEED:
            return []
        problems = []
        for scheme in self.schemes:
            report = self._run(scheme, DEFAULT_SEED)[2]
            problems += self._against_reference(scheme, _digest(report.dump()))
        return problems

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "serve.requests": self.requests,
            "serve.rejected_frac": self.rejected / self.requests if self.requests else 0.0,
            "serve.sim_p99_cycles": max(self.p99.values(), default=0.0),
        }


# ---------------------------------------------------------------------- #
# recovery-drill
# ---------------------------------------------------------------------- #


class DrillDeadline(BaseException):
    """Raised by SIGALRM inside a drill; a BaseException so no handler in
    the program swallows it."""


class RecoveryDrill(Workload):
    """``run_recovery_chaos`` on cha-tlb (400 requests, 6 nodes, R=2, W=2)
    over a fixed range of consecutive seeds, each under a host deadline.

    The range is fixed rather than offset by ``--seed``: per-seed checker
    cost spans 0.02 s to over 100 s, so any range short enough to fit a
    run would change its total by far more than the noise bound whenever
    the start seed moved.  Every seed in the range runs; a drill that
    violates the durability contract or passes the deadline counts as a
    failed op.
    """

    name = "recovery-drill"
    SEEDS = range(1, 17)
    DEADLINE_S = 15.0

    def __init__(self, seed: int, tracer, reference: Dict[str, object]) -> None:
        self.tracer = tracer
        self.deadline_hits = 0
        self.verdicts: list = []
        self.fleets: list = []
        self.outcomes: Dict[int, str] = {}

    def ops(self) -> List[Tuple[str, Callable[[], OpResult]]]:
        return [(f"seed{s}", lambda s=s: self._drill(s)) for s in self.SEEDS]

    def _drill(self, seed: int) -> OpResult:
        from repro.faults.chaos import ChaosError, run_recovery_chaos

        outcome, problems = "ok", []
        armed = [True]

        def on_alarm(signum, frame):
            if armed[0]:
                raise DrillDeadline()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        start = perf_counter()
        try:
            # The deadline is in reference-machine seconds, so whether a
            # drill misses it does not depend on the machine's momentary
            # speed.
            signal.setitimer(signal.ITIMER_REAL, self.DEADLINE_S * self.slowdown)
            try:
                run_recovery_chaos(
                    "cha-tlb", seed=seed, requests=400, nodes=6,
                    replication=2, quorum=2,
                )
            finally:
                # Disarmed inside the outer try, so an alarm landing here
                # is still caught below as a deadline hit.
                armed[0] = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ChaosError as exc:
            outcome = f"contract: {str(exc)[:160]}"
        except DrillDeadline:
            outcome = "deadline"
            self.deadline_hits += 1
            self.tracer.unwind()
        except Exception as exc:  # noqa: BLE001 - any other raise is a bug
            outcome = f"error: {exc!r}"[:200]
            problems.append(f"seed {seed}: {outcome}")
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
        self.outcomes[seed] = outcome
        self.verdicts += self.tracer.take("faults.check")
        self.fleets += [report.fleet for report in self.tracer.take("cluster.run")]
        build = sum(self.tracer.take("cluster.build"))
        capped = None
        if outcome == "deadline":
            capped = self.DEADLINE_S - build / self.slowdown
        return OpResult(
            elapsed - build, setup_s=build, scaled_s=capped,
            failed=0 if outcome == "ok" else 1, problems=problems,
        )

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "cluster.retries": sum(f.get("retries", 0) for f in self.fleets),
            "cluster.timeouts": sum(f.get("timeouts", 0) for f in self.fleets),
            "cluster.resyncs": sum(
                f.get("replication", {}).get("resyncs", 0) for f in self.fleets
            ),
            "faults.history_ops": sum(v.ops for v in self.verdicts),
            "faults.violations": sum(len(v.violations) for v in self.verdicts),
            "faults.deadline_hits": self.deadline_hits,
        }


WORKLOADS = {w.name: w for w in (Fig7Sweep, ServeMixed, RecoveryDrill)}
