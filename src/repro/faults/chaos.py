"""Chaos harness: infrastructure faults under closed-loop serving load.

``python -m repro chaos`` drives one scaled-down machine with multi-tenant
closed-loop load while a deterministic event schedule kills and recovers
accelerator slices and hot-swaps CFA firmware mid-run.  The contract it
asserts is the ROADMAP's availability story:

* **zero wrong results** — every completed request matches the software
  oracle, whether it ran accelerated, rerouted to a survivor slice, or
  resolved through the software fallback after a ``SLICE_DOWN`` abort;
* **zero hangs** — every admitted request reaches a terminal outcome
  (completion or an explicit deadline shed), i.e. availability is 100%;
* **determinism** — the same seed reproduces a byte-identical report,
  faults included (``--repeats`` re-runs and compares the dumps).

Events fire when the fleet-wide terminal-request count crosses seeded
thresholds — a cycle-free trigger, so the schedule is identical across
runs regardless of how timing shifts as the code evolves.  The timeline is
segmented into phases at every event; the report carries availability and
p99 per phase.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import ClusterConfig, IntegrationScheme, ServeConfig
from ..core.programs import HashOfListsCfa
from ..core.programs_ext import BPlusTreeCfa
from ..errors import ReproError

#: Event actions (single-machine chaos).
SLICE_FAIL = "slice-fail"
SLICE_RECOVER = "slice-recover"
FIRMWARE_SWAP = "firmware-swap"

#: Event actions (mixed read/write chaos, docs/mutations.md).
RESIZE_START = "resize-start"
RESIZE_COMMIT = "resize-commit"

#: Event actions (cluster chaos; kill/flap/partition mirror the
#: FaultKind.NODE_KILL / NODE_FLAP / NET_PARTITION taxonomy entries).
NODE_KILL = "node-kill"
NODE_FLAP = "node-flap"
NODE_RECOVER = "node-recover"
NET_PARTITION = "net-partition"
NET_HEAL = "net-heal"

#: A flapped node restarts this many cycles after its kill.
FLAP_OUTAGE_CYCLES = 3_000

#: Event actions (recovery chaos; mirror FaultKind.REPLICA_LAG /
#: LOG_TRUNCATE in the fault taxonomy).
REPLICA_LAG = "replica-lag"
LOG_TRUNCATE = "log-truncate"

#: Extra node->node delivery latency a REPLICA_LAG event injects.
REPLICA_LAG_CYCLES = 4_096

#: Post-run drain quantum while replicas converge / catch-up completes.
RECOVERY_DRAIN_CYCLES = 8_192


class ChaosError(ReproError):
    """The chaos contract was violated (wrong result, hang, lost event)."""


@dataclass
class ChaosEvent:
    """One scheduled infrastructure fault.

    ``trigger`` is the fleet-wide terminal-request count at which the
    event fires; ``home`` identifies the victim slice for fail/recover.
    """

    action: str
    trigger: int
    home: Optional[int] = None
    fired_cycle: Optional[int] = None
    #: SLICE_DOWN aborts caused (slice-fail only).
    aborted: int = 0

    def row(self) -> Dict[str, object]:
        return {
            "action": self.action,
            "trigger": self.trigger,
            "home": self.home,
            "fired_cycle": self.fired_cycle,
            "aborted": self.aborted,
        }


@dataclass
class ChaosReport:
    """One chaos run: the event log, the serving report, and the verdicts."""

    scheme: str
    seed: int
    requests: int
    events: List[Dict[str, object]] = field(default_factory=list)
    serving: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, object] = field(default_factory=dict)

    def dump(self) -> str:
        """Canonical JSON (byte-identical across same-seed runs)."""
        return json.dumps(
            {
                "scheme": self.scheme,
                "seed": self.seed,
                "requests": self.requests,
                "events": self.events,
                "serving": self.serving,
                "checks": self.checks,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def chaos_schedule(homes: List[int], requests: int) -> List[ChaosEvent]:
    """The canonical event schedule: 2 kills, 2 recoveries, 1 hot-swap.

    Victims are the first two accelerator homes (the same home twice for
    single-home schemes — kill, recover, kill again).  Triggers sit at
    fixed fractions of the request budget so the schedule scales with run
    length.
    """
    first = homes[0]
    second = homes[1] if len(homes) > 1 else homes[0]
    return [
        ChaosEvent(SLICE_FAIL, max(1, requests * 15 // 100), home=first),
        ChaosEvent(SLICE_RECOVER, max(2, requests * 30 // 100), home=first),
        ChaosEvent(SLICE_FAIL, max(3, requests * 45 // 100), home=second),
        ChaosEvent(SLICE_RECOVER, max(4, requests * 60 // 100), home=second),
        ChaosEvent(FIRMWARE_SWAP, max(5, requests * 75 // 100)),
    ]


def run_chaos(
    scheme: str,
    *,
    seed: int = 7,
    requests: int = 400,
    tenants: int = 4,
    workload: str = "dpdk",
    serve_config: Optional[ServeConfig] = None,
    verify: bool = True,
) -> ChaosReport:
    """One closed-loop serving run under the canonical chaos schedule."""
    from ..serve import ClosedLoopGenerator, build_serving_system

    if serve_config is None:
        serve_config = ServeConfig(tenants=tenants)
    system, built = build_serving_system(
        scheme, seed=seed, serve_config=serve_config, workload=workload
    )
    server = system.make_server(built, serve_config, seed=seed)
    per_tenant = max(1, requests // serve_config.tenants)
    for tenant in range(serve_config.tenants):
        server.attach(
            ClosedLoopGenerator(
                tenant,
                config=serve_config,
                num_requests=per_tenant,
                num_queries=len(built.queries),
                seed=seed,
                stats=system.stats,
            )
        )
    budget = per_tenant * serve_config.tenants

    events = chaos_schedule(system.integration.accelerator_homes(), budget)
    pending = list(events)
    swap_tickets = []
    server.slo.begin_phase("baseline", system.engine.now)

    def fire(event: ChaosEvent) -> None:
        event.fired_cycle = system.engine.now
        if event.action == SLICE_FAIL:
            event.aborted = system.fail_slice(event.home)
        elif event.action == SLICE_RECOVER:
            system.recover_slice(event.home)
        else:
            # Live hot-swap: stop pulling new work, push the open bursts
            # through, then quiesce-and-commit; dispatch resumes at commit.
            server.pause_dispatch()
            server.batcher.flush_all()
            ticket = system.update_firmware(
                [BPlusTreeCfa(), HashOfListsCfa()],
                on_complete=lambda upd: server.resume_dispatch(),
            )
            swap_tickets.append(ticket)
        label = (
            event.action
            if event.home is None
            else f"{event.action}-{event.home}"
        )
        server.slo.begin_phase(label, system.engine.now)

    def on_tick(srv) -> None:
        while pending and srv.slo.terminal >= pending[0].trigger:
            fire(pending.pop(0))

    serving_report = server.run(on_tick=on_tick)
    # A trigger past the budget (tiny runs) would never fire mid-run;
    # fire the stragglers now so the schedule always completes.
    while pending:
        fire(pending.pop(0))
        system.engine.run()

    aggregate = serving_report.aggregate
    swap_committed = all(t.done for t in swap_tickets)
    extensions_live = system.firmware.supports(
        BPlusTreeCfa.TYPE_CODE
    ) and system.firmware.supports(HashOfListsCfa.TYPE_CODE)
    report = ChaosReport(
        scheme=IntegrationScheme.parse(scheme).value,
        seed=seed,
        requests=budget,
        events=[event.row() for event in events],
        serving={
            "aggregate": aggregate,
            "phases": serving_report.phases,
            "tenants": serving_report.tenants,
            "elapsed_cycles": serving_report.elapsed_cycles,
        },
        checks={
            "result_errors": aggregate["result_errors"],
            "failed": aggregate["failed"],
            "availability": aggregate["availability"],
            "slice_kills": sum(
                1 for e in events if e.action == SLICE_FAIL
            ),
            "slice_recoveries": sum(
                1 for e in events if e.action == SLICE_RECOVER
            ),
            "firmware_swaps": len(swap_tickets),
            "swap_committed": swap_committed,
            "extension_programs_live": extensions_live,
            "slice_down_aborts": sum(e.aborted for e in events),
        },
    )
    if verify:
        _verify(report)
    return report


def _verify(report: ChaosReport) -> None:
    checks = report.checks
    problems = []
    if checks["result_errors"]:
        problems.append(f"{checks['result_errors']} wrong results")
    if checks["failed"]:
        problems.append(f"{checks['failed']} unresolved requests")
    if checks["availability"] != 1.0:
        problems.append(f"availability {checks['availability']:.4f} != 1.0")
    if not checks["swap_committed"]:
        problems.append("firmware hot-swap never committed")
    if not checks["extension_programs_live"]:
        problems.append("extension programs missing after hot-swap")
    if any(event["fired_cycle"] is None for event in report.events):
        problems.append("chaos schedule did not complete")
    if problems:
        raise ChaosError(
            f"chaos contract violated on {report.scheme}: "
            + "; ".join(problems)
        )


def run_mutation_chaos(
    scheme: str,
    *,
    seed: int = 7,
    requests: int = 400,
    tenants: int = 4,
    write_ratio: float = 0.5,
    workload: str = "dpdk",
    verify: bool = True,
) -> ChaosReport:
    """The mixed read/write chaos run (docs/mutations.md).

    The canonical slice-kill/recover/hot-swap schedule runs unchanged, but
    every tenant issues ``write_ratio`` of its requests as accelerated
    INSERT/UPDATE/DELETE traffic, and one full online hash-table resize is
    driven to completion mid-run: started at 20% of the budget, migrating
    one chunk per terminal request, committed (through the accelerator
    quiesce) the moment the migration drains.  On top of the read-only
    contract the run must show **zero wrong reads** (every read value was
    plausibly visible in the shadow oracle's timeline) and **zero lost or
    phantom updates** (the drained structure equals the oracle's
    sequential final state).
    """
    from ..serve import ClosedLoopGenerator, build_serving_system

    serve_config = ServeConfig(tenants=tenants, write_ratio=write_ratio)
    system, built = build_serving_system(
        scheme, seed=seed, serve_config=serve_config, workload=workload
    )
    server = system.make_server(built, serve_config, seed=seed)
    per_tenant = max(1, requests // serve_config.tenants)
    for tenant in range(serve_config.tenants):
        server.attach(
            ClosedLoopGenerator(
                tenant,
                config=serve_config,
                num_requests=per_tenant,
                num_queries=len(built.queries),
                seed=seed,
                stats=system.stats,
            )
        )
    budget = per_tenant * serve_config.tenants

    events = chaos_schedule(system.integration.accelerator_homes(), budget)
    pending = list(events)
    swap_tickets = []
    server.slo.begin_phase("baseline", system.engine.now)

    resizer = system.start_resize(
        built.mutable_structure(), chunk_buckets=8
    )
    resize_start = ChaosEvent(RESIZE_START, max(1, budget * 20 // 100))
    resize_commit = ChaosEvent(RESIZE_COMMIT, resize_start.trigger)
    events = events + [resize_start, resize_commit]
    resize = {"stepped_at": -1, "committing": False}

    def commit_resize() -> None:
        # Mirror the firmware hot-swap: stop pulling new work, push the
        # open bursts through, quiesce-and-flip, resume at commit.
        resize["committing"] = True
        server.pause_dispatch()
        server.batcher.flush_all()

        def committed() -> None:
            resize_commit.fired_cycle = system.engine.now
            server.resume_dispatch()

        resizer.commit(on_complete=committed)

    def drive_resize(terminal: int) -> None:
        if resize["committing"]:
            return
        if resize_start.fired_cycle is None:
            if terminal >= resize_start.trigger:
                resize_start.fired_cycle = system.engine.now
                resizer.start()
                server.slo.begin_phase("resize", system.engine.now)
        elif not resizer.finished:
            # One chunk per terminal request: the migration overlaps live
            # reads and writes instead of completing inside one tick.
            if terminal > resize["stepped_at"]:
                resize["stepped_at"] = terminal
                resizer.step()
        else:
            commit_resize()

    def fire(event: ChaosEvent) -> None:
        event.fired_cycle = system.engine.now
        if event.action == SLICE_FAIL:
            event.aborted = system.fail_slice(event.home)
        elif event.action == SLICE_RECOVER:
            system.recover_slice(event.home)
        else:
            server.pause_dispatch()
            server.batcher.flush_all()
            ticket = system.update_firmware(
                [BPlusTreeCfa(), HashOfListsCfa()],
                on_complete=lambda upd: server.resume_dispatch(),
            )
            swap_tickets.append(ticket)
        label = (
            event.action
            if event.home is None
            else f"{event.action}-{event.home}"
        )
        server.slo.begin_phase(label, system.engine.now)

    def on_tick(srv) -> None:
        while pending and srv.slo.terminal >= pending[0].trigger:
            fire(pending.pop(0))
        drive_resize(srv.slo.terminal)

    serving_report = server.run(on_tick=on_tick)
    while pending:
        fire(pending.pop(0))
        system.engine.run()
    if resize_commit.fired_cycle is None:
        # Tiny runs can drain the budget before the migration does; finish
        # the protocol so the run always includes one *complete* resize.
        if resize_start.fired_cycle is None:
            resize_start.fired_cycle = system.engine.now
            resizer.start()
        while not resizer.finished:
            resizer.step()
        if not resize["committing"]:
            commit_resize()
        system.engine.run()

    oracle = server._oracle
    aggregate = serving_report.aggregate
    swap_committed = all(t.done for t in swap_tickets)
    report = ChaosReport(
        scheme=IntegrationScheme.parse(scheme).value,
        seed=seed,
        requests=budget,
        events=[event.row() for event in events],
        serving={
            "aggregate": aggregate,
            "phases": serving_report.phases,
            "tenants": serving_report.tenants,
            "elapsed_cycles": serving_report.elapsed_cycles,
        },
        checks={
            "write_ratio": write_ratio,
            "result_errors": aggregate["result_errors"],
            "failed": aggregate["failed"],
            "availability": aggregate["availability"],
            "reads_checked": oracle.reads_checked,
            "wrong_reads": oracle.wrong_reads,
            "writes_tracked": oracle.writes_tracked,
            "lost_or_phantom": len(server.write_problems or []),
            "write_problems": list(server.write_problems or []),
            "slice_kills": sum(1 for e in events if e.action == SLICE_FAIL),
            "firmware_swaps": len(swap_tickets),
            "swap_committed": swap_committed,
            "resize_committed": resizer.committed,
            "slice_down_aborts": sum(e.aborted for e in events),
        },
    )
    if verify:
        _verify_mutation(report)
    return report


def _verify_mutation(report: ChaosReport) -> None:
    checks = report.checks
    problems = []
    if checks["wrong_reads"]:
        problems.append(f"{checks['wrong_reads']} wrong reads")
    if checks["result_errors"]:
        problems.append(f"{checks['result_errors']} result errors")
    if checks["lost_or_phantom"]:
        problems.append(
            f"{checks['lost_or_phantom']} lost/phantom updates: "
            + "; ".join(checks["write_problems"][:3])
        )
    if checks["failed"]:
        problems.append(f"{checks['failed']} unresolved requests")
    if checks["availability"] != 1.0:
        problems.append(f"availability {checks['availability']:.4f} != 1.0")
    if not checks["swap_committed"]:
        problems.append("firmware hot-swap never committed")
    if not checks["resize_committed"]:
        problems.append("online resize never committed")
    if any(event["fired_cycle"] is None for event in report.events):
        problems.append("mutation chaos schedule did not complete")
    if problems:
        raise ChaosError(
            f"mutation chaos contract violated on {report.scheme} "
            f"(write_ratio={checks['write_ratio']}): " + "; ".join(problems)
        )


def chaos_experiment(
    *,
    schemes=None,
    seed: int = 7,
    requests: int = 400,
    tenants: int = 4,
    repeats: int = 2,
):
    """Chaos campaign: slice kills, recoveries and a live firmware swap
    under closed-loop load, with a same-seed determinism re-run."""
    from ..analysis.report import ExperimentResult

    scheme_names = [
        IntegrationScheme.parse(s).value
        for s in (schemes or [IntegrationScheme.CHA_TLB.value])
    ]
    result = ExperimentResult(
        "chaos",
        (
            f"{requests} closed-loop requests x {tenants} tenants under "
            f"2 slice kills + 2 recoveries + 1 firmware hot-swap (seed {seed})"
        ),
        [
            "scheme",
            "phase",
            "admitted",
            "completed",
            "shed",
            "availability",
            "p99",
            "aborts",
            "errors",
        ],
    )
    for scheme in scheme_names:
        report = run_chaos(
            scheme, seed=seed, requests=requests, tenants=tenants
        )
        for _ in range(max(0, repeats - 1)):
            again = run_chaos(
                scheme, seed=seed, requests=requests, tenants=tenants
            )
            if again.dump() != report.dump():
                raise ChaosError(
                    f"chaos run on {scheme} is not deterministic: "
                    f"same-seed re-run produced a different report"
                )
        for phase in report.serving["phases"]:
            result.add_row(
                scheme=scheme,
                phase=phase["name"],
                admitted=phase["admitted"],
                completed=phase["completed"],
                shed=phase["deadline_shed"],
                availability=phase["availability"],
                p99=phase["p99"],
                aborts="",
                errors="",
            )
        checks = report.checks
        result.add_row(
            scheme=scheme,
            phase="all",
            admitted=report.serving["aggregate"]["admitted"],
            completed=report.serving["aggregate"]["completed"],
            shed=report.serving["aggregate"]["deadline_shed"],
            availability=checks["availability"],
            p99=report.serving["aggregate"]["p99"],
            aborts=checks["slice_down_aborts"],
            errors=checks["result_errors"],
        )
    # Mixed read/write phase (docs/mutations.md): the same schedule plus
    # one full online resize, under 95/5 and 50/50 write mixes.
    mixed_scheme = scheme_names[0]
    for label, write_ratio in (("mixed-95/5", 0.05), ("mixed-50/50", 0.5)):
        report = run_mutation_chaos(
            mixed_scheme,
            seed=seed,
            requests=requests,
            tenants=tenants,
            write_ratio=write_ratio,
        )
        for _ in range(max(0, repeats - 1)):
            again = run_mutation_chaos(
                mixed_scheme,
                seed=seed,
                requests=requests,
                tenants=tenants,
                write_ratio=write_ratio,
            )
            if again.dump() != report.dump():
                raise ChaosError(
                    f"mutation chaos run on {mixed_scheme} is not "
                    "deterministic: same-seed re-run produced a different "
                    "report"
                )
        checks = report.checks
        result.add_row(
            scheme=mixed_scheme,
            phase=label,
            admitted=report.serving["aggregate"]["admitted"],
            completed=report.serving["aggregate"]["completed"],
            shed=report.serving["aggregate"]["deadline_shed"],
            availability=checks["availability"],
            p99=report.serving["aggregate"]["p99"],
            aborts=checks["slice_down_aborts"],
            errors=checks["wrong_reads"] + checks["lost_or_phantom"],
        )
    result.notes.append(
        "contract: zero wrong results, zero hangs (availability 1.0), "
        "firmware swap commits with extension programs live"
    )
    result.notes.append(
        "mixed phases: accelerated writes under the same schedule plus one "
        "full online resize — zero wrong reads, zero lost/phantom updates "
        "(errors column = wrong reads + lost/phantom)"
    )
    result.notes.append(
        f"determinism: {repeats} same-seed runs produced byte-identical "
        "chaos reports"
    )
    return result


# ---------------------------------------------------------------------- #
# Cluster chaos: whole-node and network faults over the replicated tier
# ---------------------------------------------------------------------- #


@dataclass
class ClusterChaosEvent:
    """One scheduled cluster-scope fault (or its recovery).

    ``trigger`` is the fleet-wide terminal-request count at which the
    event fires; ``nodes`` lists the victims (one for kill/flap/recover,
    several for a partition, empty for the heal).
    """

    action: str
    trigger: int
    nodes: List[int] = field(default_factory=list)
    fired_cycle: Optional[int] = None
    #: In-flight requests lost to a kill/flap (the LB re-drives them).
    lost: int = 0

    def row(self) -> Dict[str, object]:
        return {
            "action": self.action,
            "trigger": self.trigger,
            "nodes": self.nodes,
            "fired_cycle": self.fired_cycle,
            "lost": self.lost,
        }


@dataclass
class ClusterChaosReport:
    """One cluster-chaos run: events, the cluster report, the verdicts."""

    scheme: str
    seed: int
    nodes: int
    replication: int
    requests: int
    events: List[Dict[str, object]] = field(default_factory=list)
    cluster: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, object] = field(default_factory=dict)

    def dump(self) -> str:
        """Canonical JSON (byte-identical across same-seed runs)."""
        return json.dumps(
            {
                "scheme": self.scheme,
                "seed": self.seed,
                "nodes": self.nodes,
                "replication": self.replication,
                "requests": self.requests,
                "events": self.events,
                "cluster": self.cluster,
                "checks": self.checks,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def cluster_chaos_schedule(
    nodes: int, requests: int
) -> List[ClusterChaosEvent]:
    """The canonical cluster schedule: a kill, a flap, and a partition.

    Victims are spread deterministically over the fleet: the kill takes
    node 0, the partition isolates the two highest node ids, and the flap
    takes the middle node (stepping to node 1 when the middle falls inside
    the partition set, as it does on tiny fleets).  Triggers sit at fixed
    fractions of the request budget so the schedule scales with run length.
    """
    if nodes < 4:
        raise ChaosError(
            f"cluster chaos needs at least 4 nodes, got {nodes}"
        )
    partitioned = [nodes - 2, nodes - 1]
    kill_victim = 0
    flap_victim = nodes // 2
    if flap_victim in partitioned or flap_victim == kill_victim:
        flap_victim = 1
    return [
        ClusterChaosEvent(
            NODE_KILL, max(1, requests * 15 // 100), nodes=[kill_victim]
        ),
        ClusterChaosEvent(
            NODE_FLAP, max(2, requests * 30 // 100), nodes=[flap_victim]
        ),
        ClusterChaosEvent(
            NODE_RECOVER, max(3, requests * 45 // 100), nodes=[kill_victim]
        ),
        ClusterChaosEvent(
            NET_PARTITION, max(4, requests * 60 // 100), nodes=partitioned
        ),
        ClusterChaosEvent(NET_HEAL, max(5, requests * 75 // 100)),
    ]


def _chaos_cluster_config(
    nodes: int, replication: int, availability_floor: float
) -> ClusterConfig:
    """The tuned fleet the chaos verb drives.

    Faster probing and shorter request timeouts than the library defaults,
    so one run walks victims through the full UP -> SUSPECT -> DOWN -> UP
    lifecycle and failover latency stays in the same ballpark as service
    latency.
    """
    return ClusterConfig(
        nodes=nodes,
        replication=replication,
        probe_interval_cycles=1_024,
        probe_timeout_cycles=256,
        request_timeout_cycles=8_192,
        timeout_embargo_cycles=2_048,
        availability_floor=availability_floor,
    )


def run_cluster_chaos(
    scheme: str,
    *,
    seed: int = 7,
    requests: int = 400,
    nodes: int = 10,
    replication: int = 2,
    tenants: int = 4,
    workload: str = "dpdk",
    availability_floor: float = 0.95,
    verify: bool = True,
) -> ClusterChaosReport:
    """One cluster run under the canonical kill/flap/partition schedule."""
    from ..serve.cluster import SimulatedCluster

    cluster_config = _chaos_cluster_config(
        nodes, replication, availability_floor
    )
    cluster = SimulatedCluster(
        scheme,
        cluster_config=cluster_config,
        serve_config=ServeConfig(tenants=tenants),
        seed=seed,
        requests=requests,
        workload=workload,
    )
    recorder = cluster.attach_history()
    budget = cluster.requests
    events = cluster_chaos_schedule(nodes, budget)
    pending = list(events)

    def fire(event: ClusterChaosEvent) -> None:
        event.fired_cycle = cluster.engine.now
        if event.action == NODE_KILL:
            event.lost = cluster.fail_node(event.nodes[0])
        elif event.action == NODE_FLAP:
            victim = event.nodes[0]
            event.lost = cluster.fail_node(victim)
            # The flap restarts on a cycle timer (not a request-count
            # trigger): a short outage that may race the DOWN marking.
            cluster.engine.schedule(
                FLAP_OUTAGE_CYCLES, lambda v=victim: cluster.recover_node(v)
            )
        elif event.action == NODE_RECOVER:
            cluster.recover_node(event.nodes[0])
        elif event.action == NET_PARTITION:
            cluster.partition(event.nodes)
        elif event.action == NET_HEAL:
            cluster.heal()
        else:
            raise ChaosError(f"unknown cluster chaos action {event.action!r}")
        label = (
            event.action
            if not event.nodes
            else event.action + "-" + "-".join(map(str, event.nodes))
        )
        cluster.slo.begin_phase(label, cluster.engine.now)

    def on_tick(cl) -> None:
        while pending and cl.slo.terminal >= pending[0].trigger:
            fire(pending.pop(0))

    cluster_report = cluster.run(on_tick=on_tick)
    # Triggers past the budget (tiny runs) never fire mid-run; fire the
    # stragglers and drain so recoveries land before the checks run.
    while pending:
        fire(pending.pop(0))
        cluster.drain(2 * FLAP_OUTAGE_CYCLES)

    verdict = recorder.check()
    fleet = cluster_report.fleet
    phases = cluster_report.phases
    terminal = fleet["completed"] + fleet["failed"] + fleet["giveups"]
    report = ClusterChaosReport(
        scheme=cluster.scheme,
        seed=seed,
        nodes=nodes,
        replication=replication,
        requests=budget,
        events=[event.row() for event in events],
        cluster={
            "fleet": fleet,
            "phases": phases,
            "tenants": cluster_report.tenants,
            "node_rows": cluster_report.node_rows,
            "membership_log": cluster_report.membership_log,
            "rebalances": cluster_report.rebalances,
            "elapsed_cycles": cluster_report.elapsed_cycles,
        },
        checks={
            "result_errors": fleet["result_errors"],
            "availability": fleet["availability"],
            "min_phase_availability": min(
                phase["availability"] for phase in phases
            ),
            "availability_floor": availability_floor,
            "terminal": terminal,
            "budget": budget,
            "issued_resolved": fleet["issued"]
            == fleet["completed"] + fleet["failed"],
            "node_kills": sum(
                1 for e in events if e.action in (NODE_KILL, NODE_FLAP)
            ),
            "partitions": sum(
                1 for e in events if e.action == NET_PARTITION
            ),
            "lost_inflight": fleet["lost_inflight"],
            "timeouts": fleet["timeouts"],
            "retries": fleet["retries"],
            "membership_transitions": len(cluster_report.membership_log),
            "history_ops": verdict.ops,
            "history_linearizable": verdict.linearizable,
            "history_violations": sorted(verdict.violations),
            "history_inconclusive": len(verdict.inconclusive),
        },
    )
    if verify:
        _verify_cluster(report)
    return report


def _verify_cluster(report: ClusterChaosReport) -> None:
    checks = report.checks
    problems = []
    if checks["result_errors"]:
        problems.append(f"{checks['result_errors']} wrong results")
    if checks["terminal"] != checks["budget"]:
        problems.append(
            f"{checks['budget'] - checks['terminal']} requests never "
            "reached a terminal outcome (hang)"
        )
    if not checks["issued_resolved"]:
        problems.append("issued requests unaccounted for at the LB (hang)")
    floor = checks["availability_floor"]
    if checks["min_phase_availability"] < floor:
        problems.append(
            f"phase availability {checks['min_phase_availability']:.4f} "
            f"below the {floor:.4f} floor"
        )
    if checks["availability"] < floor:
        problems.append(
            f"aggregate availability {checks['availability']:.4f} below "
            f"the {floor:.4f} floor"
        )
    if any(event["fired_cycle"] is None for event in report.events):
        problems.append("cluster chaos schedule did not complete")
    if not checks.get("history_linearizable", True):
        problems.append(
            "per-key history is not linearizable (keys "
            f"{checks['history_violations']})"
        )
    if checks.get("history_inconclusive"):
        problems.append(
            f"{checks['history_inconclusive']} keys exhausted the "
            "history checker's state budget (inconclusive)"
        )
    if problems:
        raise ChaosError(
            f"cluster chaos contract violated on {report.scheme}: "
            + "; ".join(problems)
        )


def cluster_chaos_experiment(
    *,
    schemes=None,
    seed: int = 7,
    requests: int = 400,
    nodes: int = 10,
    replication: int = 2,
    tenants: int = 4,
    repeats: int = 2,
):
    """Cluster chaos campaign: node kill, node flap and a network
    partition over the replicated serving tier, with a same-seed
    determinism re-run."""
    from ..analysis.report import ExperimentResult

    scheme_names = [
        IntegrationScheme.parse(s).value
        for s in (schemes or [IntegrationScheme.CHA_TLB.value])
    ]
    result = ExperimentResult(
        "cluster-chaos",
        (
            f"{requests} closed-loop requests x {tenants} tenants over "
            f"{nodes} nodes (R={replication}) under 1 node kill + 1 node "
            f"flap + 1 network partition (seed {seed})"
        ),
        [
            "scheme",
            "phase",
            "issued",
            "completed",
            "failed",
            "giveups",
            "availability",
            "p99",
        ],
    )
    for scheme in scheme_names:
        report = run_cluster_chaos(
            scheme,
            seed=seed,
            requests=requests,
            nodes=nodes,
            replication=replication,
            tenants=tenants,
        )
        for _ in range(max(0, repeats - 1)):
            again = run_cluster_chaos(
                scheme,
                seed=seed,
                requests=requests,
                nodes=nodes,
                replication=replication,
                tenants=tenants,
            )
            if again.dump() != report.dump():
                raise ChaosError(
                    f"cluster chaos run on {scheme} is not deterministic: "
                    f"same-seed re-run produced a different report"
                )
        for phase in report.cluster["phases"]:
            result.add_row(
                scheme=scheme,
                phase=phase["name"],
                issued=phase["issued"],
                completed=phase["completed"],
                failed=phase["failed"],
                giveups=phase["giveups"],
                availability=phase["availability"],
                p99=phase["p99"],
            )
        fleet = report.cluster["fleet"]
        result.add_row(
            scheme=scheme,
            phase="all",
            issued=fleet["issued"],
            completed=fleet["completed"],
            failed=fleet["failed"],
            giveups=fleet["giveups"],
            availability=report.checks["availability"],
            p99="",
        )
    result.notes.append(
        "contract: zero wrong results, zero hangs (every request terminal), "
        f"availability >= floor in every phase; fleet of {nodes} full-"
        "machine nodes on one shared event engine"
    )
    result.notes.append(
        f"determinism: {repeats} same-seed runs produced byte-identical "
        "cluster chaos reports"
    )
    return result


# ---------------------------------------------------------------------- #
# Recovery chaos: durability of acknowledged writes under crash/recovery
# ---------------------------------------------------------------------- #


def recovery_chaos_schedule(
    nodes: int, requests: int
) -> List[ClusterChaosEvent]:
    """The durability schedule: two crash legs over a mixed write run.

    Leg one exercises incremental replay: the primary-heavy node 0 dies
    mid-mix, a replica lags behind the apply stream, and the recovered
    node rejoins by replaying peers' commit logs (hinted handoff).  Leg
    two exercises gap detection: node 2 dies, its commit log is truncated
    while it is down, and its recovery must detect the ordinal gap and
    full-resync instead of serving a stale history.  A partition of the
    highest node id stretches quorum waits in between.
    """
    if nodes < 4:
        raise ChaosError(
            f"recovery chaos needs at least 4 nodes, got {nodes}"
        )
    return [
        ClusterChaosEvent(
            NODE_KILL, max(1, requests * 12 // 100), nodes=[0]
        ),
        ClusterChaosEvent(
            REPLICA_LAG, max(2, requests * 25 // 100), nodes=[1]
        ),
        ClusterChaosEvent(
            NODE_RECOVER, max(3, requests * 40 // 100), nodes=[0]
        ),
        ClusterChaosEvent(
            NET_PARTITION, max(4, requests * 55 // 100), nodes=[nodes - 1]
        ),
        ClusterChaosEvent(NET_HEAL, max(5, requests * 70 // 100)),
        ClusterChaosEvent(
            NODE_KILL, max(6, requests * 75 // 100), nodes=[2]
        ),
        ClusterChaosEvent(
            LOG_TRUNCATE, max(7, requests * 82 // 100), nodes=[2]
        ),
        ClusterChaosEvent(
            NODE_RECOVER, max(8, requests * 90 // 100), nodes=[2]
        ),
    ]


def _recover_when_down(cluster, victim: int) -> None:
    """Restart ``victim`` once the fleet has marked it DOWN.

    A dead node restarting before the fleet marks it DOWN would take the
    plain-restart path and skip catch-up; hold the restart until the
    failure detector has converged (probe-interval poll, deterministic).
    A module-level function, not a closure: a closure that reschedules
    itself refers to itself through its own cell, and that cycle would
    keep the whole cluster alive after the run.
    """
    from ..serve.cluster.membership import NodeState

    if (
        not cluster.nodes[victim].alive
        and cluster.membership.state_of(victim) is not NodeState.DOWN
    ):
        cluster.engine.schedule(
            cluster.config.probe_interval_cycles,
            lambda: _recover_when_down(cluster, victim),
        )
        return
    cluster.recover_node(victim)


def run_recovery_chaos(
    scheme: str,
    *,
    seed: int = 7,
    requests: int = 400,
    nodes: int = 6,
    replication: int = 2,
    quorum: int = 2,
    tenants: int = 4,
    workload: str = "dpdk",
    write_ratio: float = 0.5,
    availability_floor: float = 0.9,
    verify: bool = True,
) -> ClusterChaosReport:
    """One mixed-workload cluster run under the durability schedule.

    The contract (docs/recovery.md): **zero lost acknowledged writes** —
    after every node recovers and replication drains, each written key's
    natural replicas hold one converged value, and that value is among
    the finals some linearization of the recorded client history allows.
    The per-key history itself must be linearizable.
    """
    from ..serve.cluster import SimulatedCluster
    from dataclasses import replace as _dc_replace

    cluster_config = _dc_replace(
        _chaos_cluster_config(nodes, replication, availability_floor),
        write_quorum=quorum,
    )
    cluster = SimulatedCluster(
        scheme,
        cluster_config=cluster_config,
        serve_config=ServeConfig(tenants=tenants, write_ratio=write_ratio),
        seed=seed,
        requests=requests,
        workload=workload,
    )
    recorder = cluster.attach_history()
    budget = cluster.requests
    events = recovery_chaos_schedule(nodes, budget)
    pending = list(events)

    def fire(event: ClusterChaosEvent) -> None:
        event.fired_cycle = cluster.engine.now
        if event.action == NODE_KILL:
            event.lost = cluster.fail_node(event.nodes[0])
        elif event.action == NODE_RECOVER:
            _recover_when_down(cluster, event.nodes[0])
        elif event.action == REPLICA_LAG:
            cluster.inject_replica_lag(event.nodes[0], REPLICA_LAG_CYCLES)
        elif event.action == NET_PARTITION:
            cluster.partition(event.nodes)
        elif event.action == NET_HEAL:
            cluster.heal()
            # The heal also lifts any standing apply-stream lag.
            for node in range(nodes):
                cluster.inject_replica_lag(node, 0)
        elif event.action == LOG_TRUNCATE:
            # Drop the dead node's entire commit log: recovery must see
            # the ordinal gap (structure version past the log's tail).
            event.lost = cluster.truncate_log(event.nodes[0], 1 << 30)
        else:
            raise ChaosError(
                f"unknown recovery chaos action {event.action!r}"
            )
        label = (
            event.action
            if not event.nodes
            else event.action + "-" + "-".join(map(str, event.nodes))
        )
        cluster.slo.begin_phase(label, cluster.engine.now)

    def on_tick(cl) -> None:
        while pending and cl.slo.terminal >= pending[0].trigger:
            fire(pending.pop(0))

    cluster_report = cluster.run(on_tick=on_tick)
    while pending:
        fire(pending.pop(0))
        cluster.drain(2 * FLAP_OUTAGE_CYCLES)
    # Let deferred restarts land, then let the recoveries catch up and
    # every apply stream drain, before judging convergence (bounded).
    for _ in range(16):
        if all(node.alive for node in cluster.nodes):
            break
        cluster.drain(RECOVERY_DRAIN_CYCLES)
    replication_settled = cluster.drain_replication(RECOVERY_DRAIN_CYCLES)

    verdict = recorder.check()
    written = recorder.written_keys()
    finals = cluster.final_values(written)
    diverged = sorted(
        pos for pos, values in finals.items()
        if len(set(values.values())) > 1
    )
    lost_acked = sorted(
        pos
        for pos, values in finals.items()
        if not set(values.values())
        <= verdict.possible_finals.get(pos, frozenset())
    )
    write_problems = cluster.write_audit()

    fleet = cluster_report.fleet
    phases = cluster_report.phases
    terminal = fleet["completed"] + fleet["failed"] + fleet["giveups"]
    replication_stats = fleet.get("replication", {})
    from ..serve.cluster.membership import NodeState

    report = ClusterChaosReport(
        scheme=cluster.scheme,
        seed=seed,
        nodes=nodes,
        replication=replication,
        requests=budget,
        events=[event.row() for event in events],
        cluster={
            "fleet": fleet,
            "phases": phases,
            "tenants": cluster_report.tenants,
            "node_rows": cluster_report.node_rows,
            "membership_log": cluster_report.membership_log,
            "rebalances": cluster_report.rebalances,
            "elapsed_cycles": cluster_report.elapsed_cycles,
        },
        checks={
            "result_errors": fleet["result_errors"],
            "availability": fleet["availability"],
            "min_phase_availability": min(
                phase["availability"] for phase in phases
            ),
            "availability_floor": availability_floor,
            "terminal": terminal,
            "budget": budget,
            "issued_resolved": fleet["issued"]
            == fleet["completed"] + fleet["failed"],
            "write_quorum": quorum,
            "replication_settled": replication_settled,
            "history_ops": verdict.ops,
            "history_linearizable": verdict.linearizable,
            "history_violations": sorted(verdict.violations),
            "history_inconclusive": len(verdict.inconclusive),
            "written_keys": len(written),
            "diverged_keys": diverged,
            "lost_acked_writes": lost_acked,
            "write_problems": write_problems,
            "recoveries": len(cluster.recoveries),
            "node_kills": sum(
                1 for e in events if e.action == NODE_KILL
            ),
            "gaps_detected": replication_stats.get("gaps_detected", 0),
            "resyncs": replication_stats.get("resyncs", 0),
            "hint_overflows": replication_stats.get("hint_overflows", 0),
            "shipped": replication_stats.get("shipped", 0),
            "applies": replication_stats.get("applies", 0),
            "all_nodes_up": all(
                cluster.membership.state_of(node) is NodeState.UP
                for node in range(nodes)
            ),
            "lost_inflight": fleet["lost_inflight"],
            "timeouts": fleet["timeouts"],
            "retries": fleet["retries"],
        },
    )
    if verify:
        _verify_recovery(report)
    return report


def _verify_recovery(report: ClusterChaosReport) -> None:
    checks = report.checks
    problems = []
    if checks["result_errors"]:
        problems.append(f"{checks['result_errors']} wrong results")
    if checks["terminal"] != checks["budget"]:
        problems.append(
            f"{checks['budget'] - checks['terminal']} requests never "
            "reached a terminal outcome (hang)"
        )
    if not checks["issued_resolved"]:
        problems.append("issued requests unaccounted for at the LB (hang)")
    floor = checks["availability_floor"]
    if checks["min_phase_availability"] < floor:
        problems.append(
            f"phase availability {checks['min_phase_availability']:.4f} "
            f"below the {floor:.4f} floor"
        )
    if checks["availability"] < floor:
        problems.append(
            f"aggregate availability {checks['availability']:.4f} below "
            f"the {floor:.4f} floor"
        )
    if any(event["fired_cycle"] is None for event in report.events):
        problems.append("recovery chaos schedule did not complete")
    if not checks["replication_settled"]:
        problems.append("replication did not settle after the drain")
    if not checks["history_linearizable"]:
        problems.append(
            "per-key history is not linearizable (keys "
            f"{checks['history_violations']})"
        )
    if checks["history_inconclusive"]:
        problems.append(
            f"{checks['history_inconclusive']} keys exhausted the "
            "history checker's state budget (inconclusive)"
        )
    if checks["lost_acked_writes"]:
        problems.append(
            "acknowledged writes lost on keys "
            f"{checks['lost_acked_writes']}"
        )
    if checks["diverged_keys"]:
        problems.append(
            f"replicas diverged on keys {checks['diverged_keys']}"
        )
    if checks["write_problems"]:
        problems.append(
            f"shadow-oracle write audit: {checks['write_problems']}"
        )
    if checks["recoveries"] < checks["node_kills"]:
        problems.append(
            f"only {checks['recoveries']} of {checks['node_kills']} "
            "killed nodes completed catch-up"
        )
    if not checks["all_nodes_up"]:
        problems.append("a node ended the run below UP")
    if checks["gaps_detected"] < 1 or checks["resyncs"] < 1:
        problems.append(
            "the truncated-log leg exercised no gap detection / resync "
            f"(gaps={checks['gaps_detected']}, "
            f"resyncs={checks['resyncs']})"
        )
    if problems:
        raise ChaosError(
            f"recovery chaos contract violated on {report.scheme}: "
            + "; ".join(problems)
        )


def recovery_chaos_experiment(
    *,
    schemes=None,
    seed: int = 7,
    requests: int = 400,
    nodes: int = 6,
    replication: int = 2,
    quorum: int = 2,
    tenants: int = 4,
    repeats: int = 2,
):
    """Durability campaign: crash/recover the primary mid write mix, lag a
    replica, truncate a commit log, and assert zero lost acknowledged
    writes plus a linearizable per-key history, with a same-seed
    determinism re-run."""
    from ..analysis.report import ExperimentResult

    scheme_names = [
        IntegrationScheme.parse(s).value
        for s in (schemes or [IntegrationScheme.CHA_TLB.value])
    ]
    result = ExperimentResult(
        "recovery-chaos",
        (
            f"{requests} mixed read/write requests x {tenants} tenants "
            f"over {nodes} nodes (R={replication}, W={quorum}) under 2 "
            "node crashes + replica lag + 1 partition + 1 log truncation "
            f"(seed {seed})"
        ),
        [
            "scheme",
            "phase",
            "issued",
            "completed",
            "failed",
            "giveups",
            "availability",
            "p99",
        ],
    )
    for scheme in scheme_names:
        report = run_recovery_chaos(
            scheme,
            seed=seed,
            requests=requests,
            nodes=nodes,
            replication=replication,
            quorum=quorum,
            tenants=tenants,
        )
        for _ in range(max(0, repeats - 1)):
            again = run_recovery_chaos(
                scheme,
                seed=seed,
                requests=requests,
                nodes=nodes,
                replication=replication,
                quorum=quorum,
                tenants=tenants,
            )
            if again.dump() != report.dump():
                raise ChaosError(
                    f"recovery chaos run on {scheme} is not "
                    "deterministic: same-seed re-run produced a "
                    "different report"
                )
        for phase in report.cluster["phases"]:
            result.add_row(
                scheme=scheme,
                phase=phase["name"],
                issued=phase["issued"],
                completed=phase["completed"],
                failed=phase["failed"],
                giveups=phase["giveups"],
                availability=phase["availability"],
                p99=phase["p99"],
            )
        fleet = report.cluster["fleet"]
        result.add_row(
            scheme=scheme,
            phase="all",
            issued=fleet["issued"],
            completed=fleet["completed"],
            failed=fleet["failed"],
            giveups=fleet["giveups"],
            availability=report.checks["availability"],
            p99="",
        )
        result.notes.append(
            f"{scheme}: {report.checks['history_ops']} client ops over "
            f"{report.checks['written_keys']} written keys -- history "
            "linearizable, 0 lost acknowledged writes, 0 diverged "
            f"replicas; {report.checks['recoveries']} crash recoveries "
            f"({report.checks['resyncs']} full resyncs after "
            f"{report.checks['gaps_detected']} detected log gaps)"
        )
    result.notes.append(
        "contract: every write acknowledged at quorum W survives both "
        "crashes; recovered nodes replay peers' commit logs (or full-"
        "resync on a truncated log) before re-entering the ring"
    )
    result.notes.append(
        f"determinism: {repeats} same-seed runs produced byte-identical "
        "recovery chaos reports"
    )
    return result
