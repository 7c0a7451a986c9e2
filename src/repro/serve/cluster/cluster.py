"""The simulated cluster: N full-machine nodes behind a load balancer.

One shared event :class:`~repro.sim.engine.Engine` drives everything — every
node's accelerator, caches and fallback executor, the LB<->node links, the
heartbeat prober and the client load generators — so the whole fleet is a
single deterministic discrete-event simulation: the same seed reproduces the
identical interleaving of requests, probes, failovers and faults, and
therefore a byte-identical :class:`ClusterReport`.

Fault surface (driven by the cluster-chaos harness, usable directly):

* :meth:`SimulatedCluster.fail_node` / :meth:`recover_node` — a node crash
  generalising :meth:`System.fail_slice`: in-flight requests are lost, the
  prober walks the node UP -> SUSPECT -> DOWN, the ring remaps its shards to
  ring successors, and the LB's retries mask the gap.
* :meth:`partition` / :meth:`heal` — LB<->node link cuts: the node stays
  healthy but unreachable, which from the LB's side is indistinguishable
  from a crash until the partition heals and its stale responses (dropped
  by attempt-sequence checks) prove otherwise.

Replica data is materialised identically on every node (same build seed =>
same tables, same oracle; node 0 builds it and the others restore its
image), so any replica of a key can serve it; the ring only partitions
*serving ownership*, which is what rebalancing remaps.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ...config import ClusterConfig, IntegrationScheme, ServeConfig, small_config
from ...errors import ReproError
from ...sim.engine import Engine
from ...sim.stats import PercentileSketch, StatsRegistry
from ...sim.weak import weak_method
from ...system import System
from ...workloads import make_workload
from ...workloads.snapshot import WorkloadSnapshot
from ..loadgen import ClosedLoopGenerator
from .lb import FleetSlo, LoadBalancer
from .membership import ROUTABLE_STATES, Membership, NodeState, Prober
from .node import ClusterNode
from .recovery import ReplicationManager
from .ring import HashRing, key_position

#: Cores per cluster node — smaller than the single-machine serving tier so
#: a 100-node fleet still builds in seconds.
CLUSTER_CORES = 2

#: Per-node dpdk flow table (serve.driver.SERVE_DPDK scaled down, because
#: every node materialises a full replica).
CLUSTER_DPDK = dict(num_flows=256, num_buckets=128, num_queries=48)

_STALL_GUARD_STEPS = 50_000_000


class ClusterError(ReproError):
    """The cluster simulation violated its own invariants."""


@dataclass
class ClusterReport:
    """One cluster run: routing/fault telemetry plus the fleet SLO view."""

    scheme: str
    seed: int
    nodes: int
    replication: int
    requests: int
    elapsed_cycles: int = 0
    fleet: Dict[str, object] = field(default_factory=dict)
    tenants: List[Dict[str, object]] = field(default_factory=list)
    phases: List[Dict[str, object]] = field(default_factory=list)
    node_rows: List[Dict[str, object]] = field(default_factory=list)
    membership_log: List[Dict[str, object]] = field(default_factory=list)
    rebalances: List[Dict[str, object]] = field(default_factory=list)

    def dump(self) -> str:
        """Canonical JSON (byte-identical across same-seed runs)."""
        return json.dumps(
            {
                "scheme": self.scheme,
                "seed": self.seed,
                "nodes": self.nodes,
                "replication": self.replication,
                "requests": self.requests,
                "elapsed_cycles": self.elapsed_cycles,
                "fleet": self.fleet,
                "tenants": self.tenants,
                "phases": self.phases,
                "node_rows": self.node_rows,
                "membership_log": self.membership_log,
                "rebalances": self.rebalances,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


class SimulatedCluster:
    """N replicated serving nodes, a prober, and the LB, on one engine."""

    #: One-way LB <-> node (and node <-> node) message latency.
    LINK_LATENCY_CYCLES = 64
    #: Drain quanta :meth:`drain_replication` spends before giving up.
    REPLICATION_DRAIN_ROUNDS = 64

    def __init__(
        self,
        scheme: str,
        *,
        cluster_config: Optional[ClusterConfig] = None,
        serve_config: Optional[ServeConfig] = None,
        seed: int = 7,
        requests: int = 400,
    ) -> None:
        self.scheme = IntegrationScheme.parse(scheme).value
        self.config = cluster_config or ClusterConfig()
        self.serve_config = serve_config or ServeConfig()
        self.seed = seed
        self.engine = Engine()
        self.stats = StatsRegistry().scoped("cluster")
        self._link_drops = self.stats.counter("link.drops")
        self._lost_inflight = self.stats.counter("killed.inflight")

        # Components reach back into the cluster through weak callbacks
        # (sim/weak.py): the cluster owns them, and strong ones would keep
        # a finished fleet's Systems alive until a full collection.

        # --- nodes: identical replicas (same build seed => same data) --- #
        node_config = small_config(CLUSTER_CORES)
        self.nodes: List[ClusterNode] = []
        #: Ids of the nodes whose next pump may have work; each server's
        #: wake hook adds its own id.  The hook holds the set, never the
        #: cluster.
        self._ready: Set[int] = set()
        # Node 0 populates the dataset; the others restore its pickled
        # image (workloads/snapshot.py), which equals a fresh build.  The
        # image dies with this frame: the build seed is the drill seed, so
        # the process-wide images of analysis/snapshot.py would keep one
        # per seed and grow without bound over a 200-seed soak.
        built0 = image = None
        for node_id in range(self.config.nodes):
            if image is None:
                system = System(node_config, self.scheme, engine=self.engine)
                built = make_workload("dpdk", system, seed=seed, **CLUSTER_DPDK)
                image = WorkloadSnapshot(system, built)
            else:
                system, built = image.restore(
                    self.scheme, config=node_config, engine=self.engine
                )
            system.warm_llc()
            if built0 is None:
                built0 = built
            self.nodes.append(
                ClusterNode(
                    node_id,
                    system,
                    built,
                    self.serve_config,
                    seed=seed,
                    respond=weak_method(self._node_respond),
                    owns_key=weak_method(self._owns_key),
                )
            )
            self.nodes[-1].server.wake = functools.partial(
                self._ready.add, node_id
            )
        self.built = built0
        #: Ring position of every query index (keys hashed by value, so the
        #: same query always lands on the same shard on every run).
        self._key_positions = [
            key_position(repr(query).encode("ascii"))
            for query in built0.queries
        ]
        #: True when the tenants issue mutations: the replication /
        #: durability machinery below only exists for such runs, so
        #: read-only runs keep byte-identical reports and event streams.
        self._writes_enabled = self.serve_config.write_ratio > 0

        # --- control plane ---------------------------------------------- #
        self.ring = HashRing(self.config.nodes)
        self.rebalances: List[Dict[str, object]] = []
        self.membership = Membership(
            self.config.nodes,
            stats=self.stats,
            on_change=weak_method(self._membership_changed),
        )
        self.prober = Prober(
            self.engine, self.config.nodes, self.membership,
            weak_method(self._probe_send),
        )
        #: LB<->node link health (False while partitioned away).
        self._link_ok = [True] * self.config.nodes
        #: Extra node->node delivery latency per destination (the
        #: REPLICA_LAG fault surface; zero outside fault campaigns).
        self._apply_lag = [0] * self.config.nodes

        # --- durability tier (mixed runs only; docs/recovery.md) -------- #
        self.managers: List[ReplicationManager] = []
        self._recovery_started: Dict[int, int] = {}
        self._killed_at: Dict[int, int] = {}
        #: Completed recoveries: (node, killed->caught-up cycles).
        self.recoveries: List[Dict[str, int]] = []
        self._repl_lag: Optional[PercentileSketch] = None
        if self._writes_enabled:
            self._repl_lag = PercentileSketch("cluster.replication.lag")
            #: Structure key bytes -> ring position, for mapping a commit
            #: back to its shard (first query index wins; identical queries
            #: share a position by construction).
            self._pos_of_key: Dict[bytes, int] = {}
            self._key_of_pos: Dict[int, bytes] = {}
            for index, pos in enumerate(self._key_positions):
                key = built0.key_for(index)
                self._pos_of_key.setdefault(key, pos)
                self._key_of_pos.setdefault(pos, key)
            for node in self.nodes:
                manager = ReplicationManager(
                    node,
                    self.config,
                    send=functools.partial(
                        weak_method(self._node_send), node.node_id
                    ),
                    notify_lb=weak_method(self._notify_lb),
                    replica_group=weak_method(self._replica_group),
                    peer_state=self.membership.state_of,
                    pos_of_key=self._pos_of_key,
                    on_caught_up=weak_method(self._on_caught_up),
                    on_lag=self._repl_lag.record,
                )
                node.enable_replication(manager, self.managers.__getitem__)
                self.managers.append(manager)

        # --- client tier ------------------------------------------------- #
        self.slo = FleetSlo(self.serve_config.tenants, stats=self.stats)
        self.lb = LoadBalancer(
            self.engine,
            self.config,
            self.ring,
            self.membership,
            send=weak_method(self._lb_send),
            key_positions=self._key_positions,
            expected=built0.expected,
            slo=self.slo,
        )
        per_tenant = max(1, requests // self.serve_config.tenants)
        self.requests = per_tenant * self.serve_config.tenants
        self.generators = []
        for tenant in range(self.serve_config.tenants):
            generator = ClosedLoopGenerator(
                tenant,
                num_requests=per_tenant,
                num_queries=len(built0.queries),
                seed=seed,
                stats=self.stats,
                write_ratio=self.serve_config.write_ratio,
            )
            generator.bind(self.lb)
            self.generators.append(generator)

    # ------------------------------------------------------------------ #
    # Fabric: everything crossing LB<->node goes through these.
    # ------------------------------------------------------------------ #

    def _deliver(self, node: int, action: Callable[[], None]) -> None:
        """One one-way message over a link; dropped if the link is cut at
        either endpoint's end of the flight (send or delivery time)."""
        if not self._link_ok[node]:
            self._link_drops.add()
            return
        def arrive() -> None:
            if not self._link_ok[node]:
                self._link_drops.add()
                return
            action()
        self.engine.schedule(self.LINK_LATENCY_CYCLES, arrive)

    def _lb_send(
        self,
        node: int,
        token,
        tenant: int,
        index: int,
        key_pos: int,
        op: int,
        value: int,
        epoch: int,
        serial: int,
    ) -> None:
        self._deliver(
            node,
            lambda: self.nodes[node].receive(
                token, tenant, index, key_pos, op, value, epoch, serial
            ),
        )

    def _node_send(
        self, src: int, dst: int, action: Callable[[], None]
    ) -> None:
        """One node->node replication message (docs/recovery.md): subject
        to both endpoints' link state, the shared link latency, and any
        REPLICA_LAG injected on the destination."""
        if not self._link_ok[src] or not self._link_ok[dst]:
            self._link_drops.add()
            return
        def arrive() -> None:
            if not self._link_ok[src] or not self._link_ok[dst]:
                self._link_drops.add()
                return
            action()
        self.engine.schedule(
            self.LINK_LATENCY_CYCLES + self._apply_lag[dst], arrive
        )

    def _notify_lb(
        self,
        origin: int,
        key_pos: int,
        epoch: int,
        settled_value,
        nodes,
        full: bool,
    ) -> None:
        """A primary's replication progress report, over its LB link."""
        self._deliver(
            origin,
            lambda: self.lb.on_replication_update(
                key_pos, epoch, settled_value, nodes, full
            ),
        )

    def _replica_group(self, key_pos: int) -> List[int]:
        """Sloppy replica group: natural owners plus routable stand-ins.

        Shipping to the *natural* owners (even DOWN ones — their records
        wait in hint buffers) makes recovery convergence possible; shipping
        to the *routable* owners keeps the quorum reachable while a natural
        owner is out.
        """
        natural = self.ring.owners(key_pos, self.config.replication)
        group = list(natural)
        for node in self.ring.owners(
            key_pos,
            self.config.replication,
            routable=self.membership.routable(),
        ):
            if node not in group:
                group.append(node)
        return group

    def _node_respond(
        self, node: int, token, kind: str, value, retry_after: int
    ) -> None:
        self._deliver(
            node,
            lambda: self.lb.on_response(node, token, kind, value, retry_after),
        )

    def _probe_send(self, node: int, ack: Callable[[], None]) -> None:
        def reach_node() -> None:
            if self.nodes[node].alive:
                self._deliver(node, ack)
        self._deliver(node, reach_node)

    def _owns_key(self, node: int, key_pos: int) -> bool:
        return node in self.ring.owners(
            key_pos,
            self.config.replication,
            routable=self.membership.routable(),
        )

    def _membership_changed(
        self, node: int, frm: NodeState, to: NodeState
    ) -> None:
        # Only edges that change the *routable* set remap shards (CATCHING_UP
        # is as unroutable as DOWN); record how much of the ring moved.
        was_routable = frm in ROUTABLE_STATES
        now_routable = to in ROUTABLE_STATES
        if was_routable == now_routable:
            return
        after = self.membership.routable()
        if not now_routable:
            before = after | {node}
        else:
            before = after - {node}
        self.rebalances.append(
            {
                "cycle": self.engine.now,
                "node": node,
                "from": frm.value,
                "to": to.value,
                "remapped_share": round(
                    self.ring.remapped_share(before, after), 6
                ),
            }
        )
        if self._writes_enabled:
            # Settled keys may now be owned by nodes that never saw their
            # writes: the LB re-pins those before a read can go stale.
            self.lb.on_rebalance()

    # ------------------------------------------------------------------ #
    # Fault surface
    # ------------------------------------------------------------------ #

    def fail_node(self, node: int) -> int:
        """Crash a node; returns the in-flight requests it takes with it."""
        lost = self.nodes[node].fail()
        self._ready.add(node)
        self._lost_inflight.add(lost)
        self._killed_at.setdefault(node, self.engine.now)
        return lost

    def recover_node(self, node: int) -> None:
        """Restart a node.

        In a mixed run a node that the fleet saw go DOWN holds stale data,
        so it rejoins as CATCHING_UP and replays its peers' commit logs
        (docs/recovery.md); it re-enters the ring only once every peer's
        stream has drained.  Read-only runs (and restarts the membership
        never noticed) keep the direct rejoin: every replica is immutable
        and identical, so there is nothing to catch up on.
        """
        target = self.nodes[node]
        target.recover()
        self._ready.add(node)
        if (
            self._writes_enabled
            and self.membership.state_of(node) is NodeState.DOWN
        ):
            self.membership.note_catching_up(node, self.engine.now)
            self._recovery_started[node] = self.engine.now
            peers = [
                peer
                for peer in range(self.config.nodes)
                if peer != node
                and self.membership.state_of(peer) is not NodeState.DOWN
            ]
            assert target.replication is not None
            target.replication.begin_catchup(peers)

    def _on_caught_up(self, node: int) -> None:
        """A recovered node's replay converged: re-enter the ring."""
        self.membership.note_caught_up(node, self.engine.now)
        self._recovery_started.pop(node, None)
        killed = self._killed_at.pop(node, None)
        if killed is not None:
            self.recoveries.append(
                {
                    "node": node,
                    "killed_cycle": killed,
                    "caught_up_cycle": self.engine.now,
                    "cycles": self.engine.now - killed,
                }
            )

    def inject_replica_lag(self, node: int, cycles: int) -> None:
        """Delay node->node deliveries to ``node`` (REPLICA_LAG fault)."""
        self._apply_lag[node] = max(0, cycles)

    def truncate_log(self, node: int, count: int) -> int:
        """Drop a dead node's last ``count`` WAL records (LOG_TRUNCATE).

        Returns how many records were actually lost; the node's next
        recovery must detect the ordinal gap and full-resync instead of
        serving (or shipping) a stale history.
        """
        manager = self.nodes[node].replication
        if manager is None:
            return 0
        return len(manager.wal.truncate_suffix(count))

    # ------------------------------------------------------------------ #
    # Durability instrumentation (chaos harness hooks)
    # ------------------------------------------------------------------ #

    def attach_history(self):
        """Attach (and return) a linearizability history recorder.

        The LB records one invoke/ok/fail triple per client request; the
        harness calls ``check()`` after the run.  Baseline registers come
        from the built workload's expected lookup results (first query
        index wins, matching the shard map).
        """
        from ...faults.history import HistoryRecorder

        baseline: Dict[int, Optional[int]] = {}
        for index, pos in enumerate(self._key_positions):
            baseline.setdefault(pos, self.built.expected[index])
        recorder = HistoryRecorder(baseline)
        self.lb.history = recorder
        return recorder

    def drain_replication(self, quantum: int = 8_192) -> bool:
        """Drain until catch-up finishes and apply streams are acked.

        Returns True if replication settled within the budget (a DOWN
        replica never acks, so the loop is bounded, not blocking).
        """
        if not self.managers:
            return True
        for _ in range(self.REPLICATION_DRAIN_ROUNDS):
            busy = any(
                manager._catching_up
                or (manager.node.alive and manager._outbound)
                for manager in self.managers
            )
            if not busy:
                return True
            self.drain(quantum)
        return not any(m._catching_up for m in self.managers)

    def final_values(self, key_positions):
        """Each natural owner's converged register value, per key.

        The zero-lost-acknowledged-writes check compares these against
        the history checker's ``possible_finals``.
        """
        out: Dict[int, Dict[int, Optional[int]]] = {}
        if not self._writes_enabled:
            return out
        for pos in key_positions:
            key = self._key_of_pos.get(pos)
            if key is None:
                continue
            owners = self.ring.owners(pos, self.config.replication)
            out[pos] = {
                node: self.nodes[node].server.mutator.current(key)
                for node in owners
            }
        return out

    def partition(self, nodes) -> None:
        """Cut the LB<->node links for ``nodes`` (both directions)."""
        for node in nodes:
            self._link_ok[node] = False

    def heal(self) -> None:
        """Restore every partitioned link."""
        self._link_ok = [True] * self.config.nodes

    # ------------------------------------------------------------------ #
    # The cluster loop
    # ------------------------------------------------------------------ #

    def _finished(self) -> bool:
        return (
            not self.lb.outstanding
            and all(generator.finished for generator in self.generators)
            and not any(node.busy for node in self.nodes)
        )

    def run(
        self,
        *,
        on_tick: Optional[Callable[["SimulatedCluster"], None]] = None,
    ) -> ClusterReport:
        """Drive the whole fleet to completion and build the report.

        Mirrors :meth:`QueryServer.run` one level up: step the shared
        engine, then pump the nodes that have work outside the step so
        software-fallback detours (which advance engine time) never nest
        inside it.
        """
        start = self.engine.now
        self.slo.begin_phase("baseline", start)
        self.prober.start()
        for manager in self.managers:
            manager.start()
        for generator in self.generators:
            generator.start()
        steps = 0
        while not self._finished():
            progressed = self._step()
            if on_tick is not None:
                on_tick(self)
            if not progressed:
                if self._finished():
                    break
                raise ClusterError(
                    "cluster loop stalled: no events pending but "
                    f"{self.lb.outstanding} requests outstanding at the LB"
                )
            steps += 1
            if steps > _STALL_GUARD_STEPS:
                raise ClusterError("cluster loop exceeded its step guard")
        return self._report(self.engine.now - start)

    def drain(self, cycles: int) -> None:
        """Advance the simulation with no client load (chaos stragglers)."""
        deadline = self.engine.now + cycles
        peek_time = self.engine.peek_time
        while True:
            when = peek_time()
            if when is None or when > deadline:
                return
            self._step()

    def _step(self) -> bool:
        """Run one engine event, then pump the nodes marked ready.

        Nodes go in ascending id and membership is tested as the walk
        goes, so a lower node's pump (a software-fallback detour runs
        engine events) can ready a higher node within the same step, as
        when every node was pumped.  A node readied behind the walk waits
        for the next step.  Returns what ``engine.step()`` returned.
        """
        progressed = self.engine.step()
        ready = self._ready
        if ready:
            for node_id, node in enumerate(self.nodes):
                if node_id in ready:
                    ready.discard(node_id)
                    node.pump()
        return progressed

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def write_audit(self) -> List[str]:
        """Fleet-wide lost/phantom-update audit for mixed runs.

        Every write lands on exactly one node (its key's primary), so the
        union of the per-node shadow-oracle audits covers the whole write
        history; a node that served no writes audits trivially clean.
        """
        problems: List[str] = []
        for node in self.nodes:
            for line in node.write_problems():
                problems.append(f"node{node.node_id}: {line}")
        return problems

    def merged_service_sketch(self, tenant: int) -> PercentileSketch:
        """Fleet-wide node-service sketch: merge of every node's sketch.

        This is the acceptance-criterion artifact: the fleet SLO for a
        tenant is *exactly* the mergeable-sketch union of the per-node
        sketches, not a re-measurement.
        """
        merged = PercentileSketch(f"cluster.fleet.tenant{tenant}.service")
        for node in self.nodes:
            merged.merge(node.server.slo.sketch_of(tenant))
        return merged

    def _report(self, elapsed: int) -> ClusterReport:
        counters = {
            name: counter.value
            for name, counter in self.slo.counters.items()
        }
        terminal = self.slo.terminal
        completed = counters["completed"]
        fleet = dict(counters)
        fleet["availability"] = completed / terminal if terminal else 1.0
        fleet["link_drops"] = self._link_drops.value
        fleet["lost_inflight"] = self._lost_inflight.value
        if self.lb.writes_ok:
            # Mixed-run extras only: read-only reports keep their schema
            # (and bytes) unchanged.
            fleet["writes_ok"] = self.lb.writes_ok
            fleet["write_problems"] = len(self.write_audit())
        if self._writes_enabled:
            fleet["pin_evictions"] = self.lb.pin_evictions
            fleet["settled_evictions"] = self.lb.settled_evictions
            fleet["replication"] = {
                "shipped": sum(m.shipped for m in self.managers),
                "applies": sum(m.applies for m in self.managers),
                "duplicates": sum(
                    m.apply_duplicates for m in self.managers
                ),
                "acks": sum(m.acks_sent for m in self.managers),
                "hint_overflows": sum(
                    m.hint_overflows for m in self.managers
                ),
                "resyncs": sum(m.resyncs for m in self.managers),
                "gaps_detected": sum(
                    m.gap_detected for m in self.managers
                ),
                "wal_records": sum(len(m.wal) for m in self.managers),
                "lag_p99": (
                    self._repl_lag.p99 if self._repl_lag is not None else 0
                ),
            }
            fleet["recoveries"] = list(self.recoveries)
        tenants = []
        for tenant in range(self.serve_config.tenants):
            e2e = self.slo.sketch_of(tenant)
            service = self.merged_service_sketch(tenant)
            tenants.append(
                {
                    "tenant": tenant,
                    "completed": e2e.count,
                    "p50": e2e.p50,
                    "p95": e2e.p95,
                    "p99": e2e.p99,
                    "mean": e2e.mean,
                    "service_p50": service.p50,
                    "service_p99": service.p99,
                    "service_count": service.count,
                }
            )
        node_rows = []
        for node in self.nodes:
            slo = node.server.slo
            row = {
                "node": node.node_id,
                "alive": node.alive,
                "state": self.membership.state_of(node.node_id).value,
                "received": node._received.value,
                "not_owner": node._not_owner.value,
                "dropped_dead": node._dropped_dead.value,
                "killed_inflight": node._killed_inflight.value,
                "admitted": sum(c.value for c in slo._admitted),
                "completed": sum(c.value for c in slo._completed),
            }
            if self._writes_enabled and node.replication is not None:
                manager = node.replication
                row["wal_records"] = len(manager.wal)
                row["applies"] = manager.applies
                row["shipped"] = manager.shipped
                row["resyncs"] = manager.resyncs
            node_rows.append(row)
        return ClusterReport(
            scheme=self.scheme,
            seed=self.seed,
            nodes=self.config.nodes,
            replication=self.config.replication,
            requests=self.requests,
            elapsed_cycles=elapsed,
            fleet=fleet,
            tenants=tenants,
            phases=self.slo.phase_rows(),
            node_rows=node_rows,
            membership_log=list(self.membership.log),
            rebalances=list(self.rebalances),
        )
