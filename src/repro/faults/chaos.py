"""Chaos drills: infrastructure faults under closed-loop serving load.

One runner, :func:`run_scenario`, serves every drill.  A :class:`Scenario`
is plain data: a fleet shape (one machine, or a cluster with nodes, R and
W), a load mix (tenants, budget, write ratio, optional online resize), a
``*_schedule`` builder (trigger -> action + targets) and the names of the
checks its report carries, each enforced by its rule in :data:`CONTRACT`.

Events fire when the fleet-wide terminal-request count crosses seeded
thresholds — a cycle-free trigger, so the schedule is identical across runs
regardless of how timing shifts as the code evolves.  The timeline is
segmented into phases at every event, and the same seed reproduces a
byte-identical report, faults included.  The four drills are
:data:`CHAOS`, :data:`MUTATION_CHAOS`, :data:`CLUSTER_CHAOS` and
:data:`RECOVERY_CHAOS` (table in docs/fault-injection.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..config import ClusterConfig, IntegrationScheme, ServeConfig
from ..core.programs import HashOfListsCfa
from ..core.programs_ext import BPlusTreeCfa
from ..errors import ReproError
from .history import HistoryVerdict
from .injector import FaultKind

# A fault event's action is its FaultKind; the actions that end a fault or
# step the online resize are not faults and keep plain names.
SLICE_RECOVER = "slice-recover"
NODE_RECOVER = "node-recover"
NET_HEAL = "net-heal"
RESIZE_START = "resize-start"
RESIZE_COMMIT = "resize-commit"

#: A flapped node restarts this many cycles after its kill.
FLAP_OUTAGE_CYCLES = 3_000

#: Extra node->node delivery latency a replica-lag event injects.
REPLICA_LAG_CYCLES = 4_096

#: Post-run drain quantum while replicas converge / catch-up completes.
RECOVERY_DRAIN_CYCLES = 8_192


class ChaosError(ReproError):
    """The chaos contract was violated (wrong result, hang, lost event)."""


@dataclass
class ChaosEvent:
    """One scheduled infrastructure fault (or its recovery).

    ``action`` is a :class:`FaultKind` (a ``str`` enum, so reports and
    phase labels carry its value) or one of the non-fault actions above.
    ``trigger`` is the fleet-wide terminal-request count at which the event
    fires.  A machine event names its victim slice in ``home`` (``None`` for
    a firmware swap); a cluster event lists its victims in ``nodes`` (one
    for kill/flap/recover, several for a partition, empty for the heal).
    """

    action: str
    trigger: int
    home: Optional[int] = None
    nodes: Optional[List[int]] = None
    fired_cycle: Optional[int] = None
    #: Requests the fault hit: SLICE_DOWN aborts on a machine; in-flight
    #: requests lost to a kill, or WAL records to a truncation, on a cluster.
    hit: int = 0

    def row(self) -> Dict[str, object]:
        row = {"action": self.action, "trigger": self.trigger, "fired_cycle": self.fired_cycle}
        if self.nodes is None:
            return {**row, "home": self.home, "aborted": self.hit}
        return {**row, "nodes": self.nodes, "lost": self.hit}

    @property
    def label(self) -> str:
        """The name of the phase this event opens."""
        targets = [self.home] if self.home is not None else self.nodes or []
        return "-".join([self.action, *map(str, targets)])


@dataclass(frozen=True)
class Scenario:
    """One chaos drill as data; :func:`run_scenario` runs it."""

    #: Names the drill in contract and determinism errors.
    name: str
    #: ``schedule(targets, budget) -> events``; targets are the machine's
    #: accelerator homes or the cluster's node count.
    schedule: Callable[..., List[ChaosEvent]]
    #: Check names, in report order; see :data:`CONTRACT`.
    checks: Tuple[str, ...]
    # Fleet shape: one machine when ``nodes`` is None.
    nodes: Optional[int] = None
    replication: int = 2
    quorum: int = 2
    availability_floor: float = 1.0
    # Load mix.
    requests: int = 400
    tenants: int = 4
    write_ratio: float = 0.0
    #: Drive one full online hash-table resize from the tick hook.
    resize: bool = False


@dataclass
class ChaosReport:
    """One drill: events, the serving (machine) or cluster report, checks."""

    scenario: Scenario
    scheme: str
    seed: int
    requests: int
    events: List[Dict[str, object]]
    checks: Dict[str, object]
    serving: Optional[Dict[str, object]] = None
    cluster: Optional[Dict[str, object]] = None
    nodes: Optional[int] = None
    replication: Optional[int] = None

    def dump(self) -> str:
        """Canonical JSON (byte-identical across same-seed runs)."""
        body = {k: v for k, v in vars(self).items() if v is not None}
        del body["scenario"]
        return json.dumps(body, sort_keys=True, separators=(",", ":"))


def chaos_schedule(homes: List[int], requests: int) -> List[ChaosEvent]:
    """The canonical machine schedule: 2 kills, 2 recoveries, 1 hot-swap.

    Victims are the first two accelerator homes (the same home twice for
    single-home schemes — kill, recover, kill again).  Triggers sit at
    fixed fractions of the request budget so the schedule scales with run
    length.
    """
    first = homes[0]
    second = homes[1] if len(homes) > 1 else homes[0]
    return [
        ChaosEvent(FaultKind.SLICE_FAIL, max(1, requests * 15 // 100), home=first),
        ChaosEvent(SLICE_RECOVER, max(2, requests * 30 // 100), home=first),
        ChaosEvent(FaultKind.SLICE_FAIL, max(3, requests * 45 // 100), home=second),
        ChaosEvent(SLICE_RECOVER, max(4, requests * 60 // 100), home=second),
        ChaosEvent(FaultKind.FIRMWARE_SWAP, max(5, requests * 75 // 100)),
    ]


def cluster_chaos_schedule(nodes: int, requests: int) -> List[ChaosEvent]:
    """The canonical cluster schedule: a kill, a flap, and a partition.

    Victims are spread deterministically over the fleet: the kill takes
    node 0, the partition isolates the two highest node ids, and the flap
    takes the middle node (stepping to node 1 when the middle falls inside
    the partition set, as it does on tiny fleets).  Triggers sit at fixed
    fractions of the request budget so the schedule scales with run length.
    """
    if nodes < 4:
        raise ChaosError(f"cluster chaos needs at least 4 nodes, got {nodes}")
    partitioned = [nodes - 2, nodes - 1]
    kill_victim = 0
    flap_victim = nodes // 2
    if flap_victim in partitioned or flap_victim == kill_victim:
        flap_victim = 1
    return [
        ChaosEvent(FaultKind.NODE_KILL, max(1, requests * 15 // 100), nodes=[kill_victim]),
        ChaosEvent(FaultKind.NODE_FLAP, max(2, requests * 30 // 100), nodes=[flap_victim]),
        ChaosEvent(NODE_RECOVER, max(3, requests * 45 // 100), nodes=[kill_victim]),
        ChaosEvent(FaultKind.NET_PARTITION, max(4, requests * 60 // 100), nodes=partitioned),
        ChaosEvent(NET_HEAL, max(5, requests * 75 // 100), nodes=[]),
    ]


def recovery_chaos_schedule(nodes: int, requests: int) -> List[ChaosEvent]:
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
        raise ChaosError(f"recovery chaos needs at least 4 nodes, got {nodes}")
    return [
        ChaosEvent(FaultKind.NODE_KILL, max(1, requests * 12 // 100), nodes=[0]),
        ChaosEvent(FaultKind.REPLICA_LAG, max(2, requests * 25 // 100), nodes=[1]),
        ChaosEvent(NODE_RECOVER, max(3, requests * 40 // 100), nodes=[0]),
        ChaosEvent(FaultKind.NET_PARTITION, max(4, requests * 55 // 100), nodes=[nodes - 1]),
        ChaosEvent(NET_HEAL, max(5, requests * 70 // 100), nodes=[]),
        ChaosEvent(FaultKind.NODE_KILL, max(6, requests * 75 // 100), nodes=[2]),
        ChaosEvent(FaultKind.LOG_TRUNCATE, max(7, requests * 82 // 100), nodes=[2]),
        ChaosEvent(NODE_RECOVER, max(8, requests * 90 // 100), nodes=[2]),
    ]


def _truthy(value, checks, floor) -> bool:
    return bool(value)


def _falsy(value, checks, floor) -> bool:
    return not value


def _below_floor(value, checks, floor) -> bool:
    return value < floor


#: Contract rules, keyed by the check each guards: ``violated(value, checks,
#: floor)`` and the problem, formatted with the checks and the availability
#: floor.  A drill obeys the rules of the checks its scenario lists.
CONTRACT: Dict[str, Tuple[Callable[[object, Dict, float], bool], str]] = {
    "result_errors": (_truthy, "{result_errors} wrong results"),
    "wrong_reads": (_truthy, "{wrong_reads} wrong reads"),
    "lost_or_phantom": (_truthy, "{lost_or_phantom} lost/phantom updates: {write_problems}"),
    # The mutation drill counts its audit failures under lost_or_phantom.
    "write_problems": (
        lambda value, checks, floor: value and "lost_or_phantom" not in checks,
        "shadow-oracle write audit: {write_problems}",
    ),
    "failed": (_truthy, "{failed} unresolved requests"),
    "terminal": (
        lambda value, checks, floor: value != checks["budget"],
        "{terminal} of {budget} requests reached a terminal outcome (hang)",
    ),
    "issued_resolved": (_falsy, "issued requests unaccounted for at the LB (hang)"),
    "availability": (_below_floor, "availability {availability:.4f} below the {floor:.4f} floor"),
    "min_phase_availability": (
        _below_floor, "phase availability {min_phase_availability:.4f} below the {floor:.4f} floor"
    ),
    "swap_committed": (_falsy, "firmware hot-swap never committed"),
    "extension_programs_live": (_falsy, "extension programs missing after hot-swap"),
    "resize_committed": (_falsy, "online resize never committed"),
    "replication_settled": (_falsy, "replication did not settle after the drain"),
    "history_linearizable": (_falsy, "history not linearizable (keys {history_violations})"),
    "history_inconclusive": (
        _truthy, "{history_inconclusive} keys exhausted the checker's state budget (inconclusive)"
    ),
    "lost_acked_writes": (_truthy, "acknowledged writes lost on keys {lost_acked_writes}"),
    "diverged_keys": (_truthy, "replicas diverged on keys {diverged_keys}"),
    "recoveries": (
        lambda value, checks, floor: value < checks["node_kills"],
        "only {recoveries} of {node_kills} killed nodes completed catch-up",
    ),
    "all_nodes_up": (_falsy, "a node ended the run below UP"),
    "resyncs": (
        lambda value, checks, floor: value < 1 or checks["gaps_detected"] < 1,
        "the truncated-log leg saw no gap / resync (gaps={gaps_detected}, resyncs={resyncs})",
    ),
}


def contract_problems(report: ChaosReport) -> List[str]:
    """One message per check ``report`` fails (empty when it passes)."""
    checks = report.checks
    floor = report.scenario.availability_floor
    # Messages show at most three audit failures.
    shown = {**checks, "write_problems": "; ".join(checks.get("write_problems", [])[:3])}
    problems = [
        f"{name}: " + CONTRACT[name][1].format(floor=floor, **shown)
        for name, value in checks.items()
        if name in CONTRACT and CONTRACT[name][0](value, checks, floor)
    ]
    if any(event["fired_cycle"] is None for event in report.events):
        problems.append("schedule did not complete")
    return problems


def check_contract(report: ChaosReport) -> None:
    """Raise :class:`ChaosError` naming every check ``report`` fails."""
    problems = contract_problems(report)
    if problems:
        raise ChaosError(
            f"{report.scenario.name} contract violated on {report.scheme}: " + "; ".join(problems)
        )


def _report(fleet, seed: int, events: List[ChaosEvent], measured: Dict, **parts) -> ChaosReport:
    scenario = fleet.scenario
    return ChaosReport(
        scenario, fleet.scheme, seed, fleet.budget, [event.row() for event in events],
        {name: measured[name] for name in scenario.checks}, **parts,
    )


def _fields(obj, *names: str) -> Dict[str, object]:
    return {name: getattr(obj, name) for name in names}


class _OnlineResize:
    """One full online hash-table resize driven from the tick hook: started
    at 20% of the budget, committed the moment the migration drains."""

    def __init__(self, system, server, built, budget: int) -> None:
        self.engine, self.server = system.engine, server
        self.resizer = system.start_resize(built.mutable_structure(), chunk_buckets=8)
        self.started = ChaosEvent(RESIZE_START, max(1, budget * 20 // 100))
        self.committed = ChaosEvent(RESIZE_COMMIT, self.started.trigger)
        self.stepped_at = -1
        self.committing = False

    def _start(self) -> None:
        self.started.fired_cycle = self.engine.now
        self.resizer.start()

    def _commit(self) -> None:
        # Mirror the firmware hot-swap: stop pulling new work, push the
        # open bursts through, quiesce-and-flip, resume at commit.  The
        # callback closes over locals only, never over ``self``.
        self.committing = True
        engine, server, event = self.engine, self.server, self.committed
        server.pause_dispatch()
        server.batcher.flush_all()

        def committed() -> None:
            event.fired_cycle = engine.now
            server.resume_dispatch()

        self.resizer.commit(on_complete=committed)

    def tick(self, terminal: int) -> None:
        if self.committing:
            return
        if self.started.fired_cycle is None:
            if terminal >= self.started.trigger:
                self._start()
                self.server.slo.begin_phase("resize", self.engine.now)
        elif not self.resizer.finished:
            # One chunk per terminal request: the migration overlaps live
            # reads and writes instead of completing inside one tick.
            if terminal > self.stepped_at:
                self.stepped_at = terminal
                self.resizer.step()
        else:
            self._commit()

    def finish(self) -> None:
        """Tiny runs can drain the budget before the migration does; finish
        the protocol so the run always includes one complete resize."""
        if self.committed.fired_cycle is not None:
            return
        if self.started.fired_cycle is None:
            self._start()
        while not self.resizer.finished:
            self.resizer.step()
        if not self.committing:
            self._commit()
        self.engine.run()


class _Machine:
    """One scaled-down serving machine: slice faults and firmware swaps."""

    def __init__(self, scenario: Scenario, scheme: str, seed: int) -> None:
        from ..serve import ClosedLoopGenerator, build_serving_system

        config = ServeConfig(tenants=scenario.tenants, write_ratio=scenario.write_ratio)
        system, built = build_serving_system(scheme, seed=seed, serve_config=config)
        server = system.make_server(built, config, seed=seed)
        per_tenant = max(1, scenario.requests // config.tenants)
        for tenant in range(config.tenants):
            server.attach(ClosedLoopGenerator(
                tenant, num_requests=per_tenant, num_queries=len(built.queries),
                seed=seed, stats=system.stats, write_ratio=config.write_ratio,
            ))
        self.scenario, self.system, self.server = scenario, system, server
        self.scheme = IntegrationScheme.parse(scheme).value
        self.engine, self.slo = system.engine, server.slo
        self.budget = per_tenant * config.tenants
        self.targets = system.integration.accelerator_homes()
        self.swap_tickets: list = []
        self.resize = (
            _OnlineResize(system, server, built, self.budget) if scenario.resize else None
        )
        self.slo.begin_phase("baseline", self.engine.now)

    def _swap_firmware(self, event: ChaosEvent) -> None:
        # Live hot-swap: stop pulling new work, push the open bursts
        # through, then quiesce-and-commit; dispatch resumes at commit.
        server = self.server
        server.pause_dispatch()
        server.batcher.flush_all()
        ticket = self.system.update_firmware(
            [BPlusTreeCfa(), HashOfListsCfa()], on_complete=lambda update: server.resume_dispatch()
        )
        self.swap_tickets.append(ticket)

    ACTIONS = {
        FaultKind.SLICE_FAIL: lambda self, event: self.system.fail_slice(event.home),
        SLICE_RECOVER: lambda self, event: self.system.recover_slice(event.home),
        FaultKind.FIRMWARE_SWAP: _swap_firmware,
    }

    def run(self, on_tick):
        return self.server.run(on_tick=on_tick)

    def drain(self) -> None:
        self.engine.run()

    def settle(self) -> None:
        if self.resize is not None:
            self.resize.finish()

    def report(self, served, events: List[ChaosEvent], seed: int) -> ChaosReport:
        if self.resize is not None:
            events = events + [self.resize.started, self.resize.committed]
        aggregate, firmware = served.aggregate, self.system.firmware
        measured = {
            "write_ratio": self.scenario.write_ratio,
            "result_errors": aggregate["result_errors"],
            "failed": aggregate["failed"],
            "availability": aggregate["availability"],
            "slice_kills": sum(1 for e in events if e.action == FaultKind.SLICE_FAIL),
            "slice_recoveries": sum(1 for e in events if e.action == SLICE_RECOVER),
            "firmware_swaps": len(self.swap_tickets),
            "swap_committed": all(t.done for t in self.swap_tickets),
            "extension_programs_live": firmware.supports(BPlusTreeCfa.TYPE_CODE)
            and firmware.supports(HashOfListsCfa.TYPE_CODE),
            "slice_down_aborts": sum(e.hit for e in events),
        }
        oracle = self.server._oracle
        if oracle is not None:
            write_problems = list(self.server.write_problems or [])
            measured.update(
                _fields(oracle, "reads_checked", "wrong_reads", "writes_tracked"),
                lost_or_phantom=len(write_problems),
                write_problems=write_problems,
            )
        if self.resize is not None:
            measured["resize_committed"] = self.resize.resizer.committed
        serving = {"aggregate": aggregate, **_fields(served, "phases", "tenants", "elapsed_cycles")}
        return _report(self, seed, events, measured, serving=serving)


def _recover_when_down(cluster, victim: int) -> None:
    """Restart ``victim`` once the fleet has marked it DOWN.

    A dead node restarting before the fleet marks it DOWN would take the
    plain-restart path and skip catch-up; hold the restart until the
    failure detector has converged (probe-interval poll, deterministic).
    A module-level function, not a closure: a closure that reschedules
    itself refers to itself through its own cell, and that cycle would
    keep the whole cluster alive after the run.
    """
    from ..serve.cluster.membership import NodeState, Prober

    if cluster.nodes[victim].alive or cluster.membership.state_of(victim) is NodeState.DOWN:
        cluster.recover_node(victim)
    else:
        cluster.engine.schedule(
            Prober.PROBE_INTERVAL_CYCLES, lambda: _recover_when_down(cluster, victim)
        )


class _Cluster:
    """A replicated fleet: node, network, replica-lag and WAL faults."""

    def __init__(self, scenario: Scenario, scheme: str, seed: int) -> None:
        from ..serve.cluster import SimulatedCluster

        config = ClusterConfig(
            nodes=scenario.nodes, replication=scenario.replication,
            write_quorum=scenario.quorum,
        )
        serve_config = ServeConfig(tenants=scenario.tenants, write_ratio=scenario.write_ratio)
        cluster = SimulatedCluster(
            scheme, cluster_config=config, serve_config=serve_config, seed=seed,
            requests=scenario.requests,
        )
        self.scenario, self.cluster, self.scheme = scenario, cluster, cluster.scheme
        self.recorder = cluster.attach_history()
        self.engine, self.slo = cluster.engine, cluster.slo
        self.budget = cluster.requests
        self.targets = scenario.nodes
        self.resize = None
        self.replication_settled = False
        #: The history checker's verdict, once :meth:`report` has run.
        self.verdict: Optional[HistoryVerdict] = None

    def _flap(self, event: ChaosEvent) -> int:
        cluster, victim = self.cluster, event.nodes[0]
        lost = cluster.fail_node(victim)
        # The flap restarts on a cycle timer (not a request-count
        # trigger): a short outage that may race the DOWN marking.
        cluster.engine.schedule(FLAP_OUTAGE_CYCLES, lambda: cluster.recover_node(victim))
        return lost

    def _recover(self, event: ChaosEvent) -> None:
        # Under writes the restart waits for DOWN so it takes the catch-up
        # path; a read-only fleet has nothing to replay and restarts at once.
        if self.scenario.write_ratio:
            _recover_when_down(self.cluster, event.nodes[0])
        else:
            self.cluster.recover_node(event.nodes[0])

    def _heal(self, event: ChaosEvent) -> None:
        # The heal also lifts any standing apply-stream lag.
        self.cluster.heal()
        for node in range(self.scenario.nodes):
            self.cluster.inject_replica_lag(node, 0)

    ACTIONS = {
        FaultKind.NODE_KILL: lambda self, event: self.cluster.fail_node(event.nodes[0]),
        FaultKind.NODE_FLAP: _flap,
        NODE_RECOVER: _recover,
        FaultKind.REPLICA_LAG: lambda self, event: self.cluster.inject_replica_lag(
            event.nodes[0], REPLICA_LAG_CYCLES
        ),
        FaultKind.NET_PARTITION: lambda self, event: self.cluster.partition(event.nodes),
        NET_HEAL: _heal,
        # Drop the dead node's entire commit log: recovery must see the
        # ordinal gap (structure version past the log's tail).
        FaultKind.LOG_TRUNCATE: lambda self, event: self.cluster.truncate_log(
            event.nodes[0], 1 << 30
        ),
    }

    def run(self, on_tick):
        return self.cluster.run(on_tick=on_tick)

    def drain(self) -> None:
        self.cluster.drain(2 * FLAP_OUTAGE_CYCLES)

    def settle(self) -> None:
        # Let deferred restarts land, then let the recoveries catch up and
        # every apply stream drain, before judging convergence (bounded).
        cluster = self.cluster
        for _ in range(16):
            if all(node.alive for node in cluster.nodes):
                break
            cluster.drain(RECOVERY_DRAIN_CYCLES)
        self.replication_settled = cluster.drain_replication(RECOVERY_DRAIN_CYCLES)

    def report(self, served, events: List[ChaosEvent], seed: int) -> ChaosReport:
        from ..serve.cluster.membership import NodeState

        cluster, scenario = self.cluster, self.scenario
        verdict = self.verdict = self.recorder.check()
        written = self.recorder.written_keys()
        finals = cluster.final_values(written).items()
        fleet = served.fleet
        replication = fleet.get("replication", {})
        measured = {
            "result_errors": fleet["result_errors"],
            "availability": fleet["availability"],
            "min_phase_availability": min(p["availability"] for p in served.phases),
            "availability_floor": scenario.availability_floor,
            "terminal": fleet["completed"] + fleet["failed"] + fleet["giveups"],
            "budget": self.budget,
            "issued_resolved": fleet["issued"] == fleet["completed"] + fleet["failed"],
            "write_quorum": scenario.quorum,
            "replication_settled": self.replication_settled,
            "history_ops": verdict.ops,
            "history_linearizable": verdict.linearizable,
            "history_violations": sorted(verdict.violations),
            "history_inconclusive": len(verdict.inconclusive),
            "written_keys": len(written),
            "diverged_keys": sorted(pos for pos, values in finals if len(set(values.values())) > 1),
            "lost_acked_writes": sorted(
                pos
                for pos, values in finals
                if not set(values.values()) <= verdict.possible_finals.get(pos, frozenset())
            ),
            "write_problems": cluster.write_audit(),
            "recoveries": len(cluster.recoveries),
            "node_kills": sum(
                1 for e in events if e.action in (FaultKind.NODE_KILL, FaultKind.NODE_FLAP)
            ),
            "partitions": sum(1 for e in events if e.action == FaultKind.NET_PARTITION),
            "all_nodes_up": all(
                cluster.membership.state_of(node) is NodeState.UP
                for node in range(scenario.nodes)
            ),
            "membership_transitions": len(served.membership_log),
            **{name: fleet[name] for name in ("lost_inflight", "timeouts", "retries")},
            **{name: replication.get(name, 0) for name in (
                "gaps_detected", "resyncs", "hint_overflows", "shipped", "applies"
            )},
        }
        cluster_report = {"fleet": fleet, **_fields(
            served, "phases", "tenants", "node_rows", "membership_log", "rebalances",
            "elapsed_cycles",
        )}
        return _report(
            self, seed, events, measured, cluster=cluster_report,
            nodes=scenario.nodes, replication=scenario.replication,
        )


def _fire(fleet, event: ChaosEvent) -> None:
    event.fired_cycle = fleet.engine.now
    if event.action not in fleet.ACTIONS:
        raise ChaosError(f"{fleet.scenario.name} cannot fire event {event.label!r}")
    event.hit = fleet.ACTIONS[event.action](fleet, event) or 0
    fleet.slo.begin_phase(event.label, fleet.engine.now)


def run_scenario(
    scenario: Scenario, scheme: str, seed: int = 7, *, verify: bool = True
) -> ChaosReport:
    """Run one drill: load the fleet, fire the schedule, settle, judge."""
    _, report = _run(scenario, scheme, seed)
    if verify:
        check_contract(report)
    return report


def _run(scenario: Scenario, scheme: str, seed: int) -> Tuple[object, ChaosReport]:
    """One unjudged drill: the settled fleet and its report."""
    fleet = (_Machine if scenario.nodes is None else _Cluster)(scenario, scheme, seed)
    pending = scenario.schedule(fleet.targets, fleet.budget)
    events = list(pending)

    def on_tick(_) -> None:
        while pending and fleet.slo.terminal >= pending[0].trigger:
            _fire(fleet, pending.pop(0))
        if fleet.resize is not None:
            fleet.resize.tick(fleet.slo.terminal)

    served = fleet.run(on_tick)
    # A trigger past the budget (tiny runs) never fires mid-run; fire the
    # stragglers now so the schedule always completes.
    while pending:
        _fire(fleet, pending.pop(0))
        fleet.drain()
    fleet.settle()
    report = fleet.report(served, events, seed)
    # The drill is over: queued probes, timeouts and in-flight messages
    # would hold the fleet in a cycle with its engine.
    fleet.engine.clear()
    return fleet, report


_MACHINE_CHECKS = (
    "result_errors", "failed", "availability", "slice_kills", "firmware_swaps",
    "swap_committed", "slice_down_aborts",
)
_CLUSTER_CHECKS = (
    "result_errors", "terminal", "budget", "issued_resolved", "availability",
    "min_phase_availability", "availability_floor", "history_linearizable",
    "history_violations", "history_inconclusive", "history_ops", "node_kills",
    "lost_inflight", "timeouts", "retries",
)

#: Slice kills, recoveries and a live firmware swap on one machine: zero
#: wrong results, zero hangs (availability 1.0), the swap commits.
CHAOS = Scenario(
    "chaos", chaos_schedule, _MACHINE_CHECKS + ("slice_recoveries", "extension_programs_live")
)
#: The same schedule under accelerated writes plus one full online resize
#: (docs/mutations.md): also zero wrong reads and zero lost/phantom updates.
MUTATION_CHAOS = Scenario(
    "mutation chaos", chaos_schedule,
    ("wrong_reads", "lost_or_phantom", "write_problems") + _MACHINE_CHECKS
    + ("resize_committed", "write_ratio", "reads_checked", "writes_tracked"),
    write_ratio=0.5, resize=True,
)
#: A node kill, a node flap and a partition over the replicated tier: zero
#: wrong results, zero hangs, availability above the floor in every phase
#: and a linearizable per-key history.
CLUSTER_CHAOS = Scenario(
    "cluster chaos", cluster_chaos_schedule,
    _CLUSTER_CHECKS + ("partitions", "membership_transitions"), nodes=10, availability_floor=0.95,
)
#: Two crash legs, replica lag and a log truncation under a write mix
#: (docs/recovery.md): also zero lost acknowledged writes, converged
#: replicas, every killed node caught up, and a detected log gap.
RECOVERY_CHAOS = Scenario(
    "recovery chaos", recovery_chaos_schedule,
    _CLUSTER_CHECKS + (
        "replication_settled", "lost_acked_writes", "diverged_keys", "write_problems",
        "recoveries", "all_nodes_up", "resyncs", "gaps_detected", "write_quorum",
        "written_keys", "hint_overflows", "shipped", "applies",
    ),
    nodes=6, write_ratio=0.5, availability_floor=0.9,
)


def run_chaos(
    scheme: str, *, seed: int = 7, requests: int = 400, tenants: int = 4,
    verify: bool = True,
) -> ChaosReport:
    """:data:`CHAOS` at this size."""
    scenario = replace(CHAOS, requests=requests, tenants=tenants)
    return run_scenario(scenario, scheme, seed, verify=verify)


def run_mutation_chaos(
    scheme: str, *, seed: int = 7, requests: int = 400, tenants: int = 4,
    write_ratio: float = 0.5, verify: bool = True,
) -> ChaosReport:
    """:data:`MUTATION_CHAOS` at this size and write ratio."""
    if write_ratio <= 0:
        # Without writes there is no shadow oracle to audit reads against.
        raise ChaosError(
            f"mutation chaos needs a write ratio above 0, got {write_ratio}; "
            "run_chaos is the read-only drill"
        )
    scenario = replace(
        MUTATION_CHAOS, requests=requests, tenants=tenants, write_ratio=write_ratio
    )
    return run_scenario(scenario, scheme, seed, verify=verify)


def run_cluster_chaos(
    scheme: str, *, seed: int = 7, requests: int = 400, nodes: int = 10,
    replication: int = 2, tenants: int = 4, availability_floor: float = 0.95,
    verify: bool = True,
) -> ChaosReport:
    """:data:`CLUSTER_CHAOS` at this size and fleet shape."""
    scenario = replace(
        CLUSTER_CHAOS, requests=requests, nodes=nodes, replication=replication,
        tenants=tenants, availability_floor=availability_floor,
    )
    return run_scenario(scenario, scheme, seed, verify=verify)


def run_recovery_chaos(
    scheme: str, *, seed: int = 7, requests: int = 400, nodes: int = 6,
    replication: int = 2, quorum: int = 2, tenants: int = 4,
    write_ratio: float = 0.5, availability_floor: float = 0.9, verify: bool = True,
) -> ChaosReport:
    """:data:`RECOVERY_CHAOS` at this size, fleet shape and write quorum."""
    scenario = replace(
        RECOVERY_CHAOS, requests=requests, nodes=nodes, replication=replication,
        quorum=quorum, tenants=tenants, write_ratio=write_ratio,
        availability_floor=availability_floor,
    )
    return run_scenario(scenario, scheme, seed, verify=verify)


def recovery_soak(
    seeds: Iterable[int], scheme: str = "cha-tlb", **shape
) -> Iterator[Dict[str, object]]:
    """The durability soak: :data:`RECOVERY_CHAOS` once per seed, judged
    but not raised.  ``shape`` replaces scenario fields (requests, nodes,
    replication, quorum, tenants).

    Yields one row per seed: its contract problems (empty when the drill
    passes), the keys whose history admits no linearization, and the most
    search states any one key cost the history checker.
    """
    scenario = replace(RECOVERY_CHAOS, **shape)
    for seed in seeds:
        fleet, report = _run(scenario, scheme, seed)
        yield dict(
            seed=seed,
            problems=contract_problems(report),
            violations=sorted(fleet.verdict.violations),
            max_states=fleet.verdict.max_states,
        )


# ---------------------------------------------------------------------- #
# The campaign driver behind the chaos verbs
# ---------------------------------------------------------------------- #

_MACHINE_COLUMNS = [
    "scheme", "phase", "admitted", "completed", "shed", "availability", "p99", "aborts", "errors",
]
_CLUSTER_COLUMNS = [
    "scheme", "phase", "issued", "completed", "failed", "giveups", "availability", "p99"
]


def _repeated(scenario, scheme: str, seed: int, repeats: int) -> ChaosReport:
    """One run plus ``repeats - 1`` same-seed re-runs that must match it."""
    report = run_scenario(scenario, scheme, seed)
    dump = report.dump()
    for _ in range(max(0, repeats - 1)):
        if run_scenario(scenario, scheme, seed).dump() != dump:
            raise ChaosError(f"{scenario.name} run on {scheme} is not deterministic: "
                             "same-seed re-run produced a different report")
    return report


def _machine_row(scheme, phase, counts, availability, aborts="", errors=""):
    return dict(
        scheme=scheme, phase=phase, admitted=counts["admitted"],
        completed=counts["completed"], shed=counts["deadline_shed"],
        availability=availability, p99=counts["p99"], aborts=aborts, errors=errors,
    )


def _rows(scheme: str, report: ChaosReport):
    """The per-phase rows, then the whole-run row."""
    checks = report.checks
    if report.cluster is None:
        for phase in report.serving["phases"]:
            yield _machine_row(scheme, phase["name"], phase, phase["availability"])
        yield _machine_row(
            scheme, "all", report.serving["aggregate"], checks["availability"],
            checks["slice_down_aborts"], checks["result_errors"],
        )
        return
    columns = _CLUSTER_COLUMNS[2:]
    for phase in report.cluster["phases"]:
        yield dict(scheme=scheme, phase=phase["name"], **{c: phase[c] for c in columns})
    fleet = report.cluster["fleet"]
    yield dict(
        scheme=scheme, phase="all", **{c: fleet[c] for c in columns[:4]},
        availability=checks["availability"], p99="",
    )


def chaos_campaign(
    verb: str, scenario: Scenario, schemes, seed: int, repeats: int, title: str,
    notes: Tuple[str, ...], scheme_note: str = "", mixed: Tuple[Tuple[str, float], ...] = (),
):
    """Run ``scenario`` on every scheme, each with ``repeats - 1`` same-seed
    determinism re-runs, and tabulate it phase by phase as ``verb``.

    ``title`` and ``notes`` format with the seed and the scenario's fields;
    ``scheme_note`` is appended once per scheme, formatted with the scheme
    and the checks; ``mixed`` adds (phase label, write ratio) rows of
    :data:`MUTATION_CHAOS` on the first scheme.
    """
    from ..analysis.report import ExperimentResult

    fields = vars(scenario)
    scheme_names = [IntegrationScheme.parse(s).value for s in schemes or ["cha-tlb"]]
    columns = _MACHINE_COLUMNS if scenario.nodes is None else _CLUSTER_COLUMNS
    result = ExperimentResult(verb, title.format(seed=seed, **fields), columns)
    for scheme in scheme_names:
        report = _repeated(scenario, scheme, seed, repeats)
        for row in _rows(scheme, report):
            result.add_row(**row)
        if scheme_note:
            result.notes.append(scheme_note.format(scheme=scheme, **report.checks))
    for label, write_ratio in mixed:
        mutation = replace(
            MUTATION_CHAOS, requests=scenario.requests, tenants=scenario.tenants,
            write_ratio=write_ratio,
        )
        report = _repeated(mutation, scheme_names[0], seed, repeats)
        *_, total = _rows(scheme_names[0], report)
        errors = report.checks["wrong_reads"] + report.checks["lost_or_phantom"]
        result.add_row(**{**total, "phase": label, "errors": errors})
    result.notes.extend(note.format(**fields) for note in notes)
    result.notes.append(
        f"determinism: {repeats} same-seed runs produced byte-identical {scenario.name} reports"
    )
    return result


def chaos_experiment(
    *, schemes=None, seed: int = 7, requests: int = 400, tenants: int = 4, repeats: int = 2
):
    """Chaos campaign: slice kills, recoveries and a live firmware swap
    under closed-loop load, with a same-seed determinism re-run."""
    return chaos_campaign(
        "chaos", replace(CHAOS, requests=requests, tenants=tenants), schemes, seed, repeats,
        "{requests} closed-loop requests x {tenants} tenants under 2 slice kills + 2 "
        "recoveries + 1 firmware hot-swap (seed {seed})",
        (
            "contract: zero wrong results, zero hangs (availability 1.0), firmware swap "
            "commits with extension programs live",
            "mixed phases: accelerated writes under the same schedule plus one full online "
            "resize — zero wrong reads, zero lost/phantom updates (errors column = wrong "
            "reads + lost/phantom)",
        ),
        mixed=(("mixed-95/5", 0.05), ("mixed-50/50", 0.5)),
    )


def cluster_chaos_experiment(
    *, schemes=None, seed: int = 7, requests: int = 400, nodes: int = 10,
    replication: int = 2, tenants: int = 4, repeats: int = 2,
):
    """Cluster chaos campaign: node kill, node flap and a network
    partition over the replicated serving tier, with a same-seed
    determinism re-run."""
    scenario = replace(
        CLUSTER_CHAOS, requests=requests, nodes=nodes, replication=replication, tenants=tenants
    )
    return chaos_campaign(
        "cluster-chaos", scenario, schemes, seed, repeats,
        "{requests} closed-loop requests x {tenants} tenants over {nodes} nodes "
        "(R={replication}) under 1 node kill + 1 node flap + 1 network partition (seed {seed})",
        (
            "contract: zero wrong results, zero hangs (every request terminal), availability "
            ">= floor in every phase; fleet of {nodes} full-machine nodes on one shared event "
            "engine",
        ),
    )


def recovery_chaos_experiment(
    *, schemes=None, seed: int = 7, requests: int = 400, nodes: int = 6,
    replication: int = 2, quorum: int = 2, tenants: int = 4, repeats: int = 2,
):
    """Durability campaign: crash/recover the primary mid write mix, lag a
    replica, truncate a commit log, and assert zero lost acknowledged
    writes plus a linearizable per-key history, with a same-seed
    determinism re-run."""
    scenario = replace(
        RECOVERY_CHAOS, requests=requests, nodes=nodes, replication=replication,
        quorum=quorum, tenants=tenants,
    )
    return chaos_campaign(
        "recovery-chaos", scenario, schemes, seed, repeats,
        "{requests} mixed read/write requests x {tenants} tenants over {nodes} nodes "
        "(R={replication}, W={quorum}) under 2 node crashes + replica lag + 1 partition + 1 "
        "log truncation (seed {seed})",
        (
            "contract: every write acknowledged at quorum W survives both crashes; recovered "
            "nodes replay peers' commit logs (or full-resync on a truncated log) before "
            "re-entering the ring",
        ),
        scheme_note=(
            "{scheme}: {history_ops} client ops over {written_keys} written keys -- history "
            "linearizable, 0 lost acknowledged writes, 0 diverged replicas; {recoveries} crash "
            "recoveries ({resyncs} full resyncs after {gaps_detected} detected log gaps)"
        ),
    )
