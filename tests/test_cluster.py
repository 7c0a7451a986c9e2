"""Cluster serving tier: ring, membership, failover, chaos contract."""

import json

import pytest

from repro.config import ClusterConfig, ConfigurationError, ServeConfig
from repro.faults import history
from repro.faults.chaos import (
    ChaosError,
    cluster_chaos_schedule,
    recovery_chaos_schedule,
    run_cluster_chaos,
    run_recovery_chaos,
)
from repro.serve.cluster import (
    HashRing,
    Membership,
    NodeState,
    SimulatedCluster,
    key_position,
    stable_hash,
)
from repro.sim.stats import PercentileSketch


# --------------------------------------------------------------------- #
# Consistent-hash ring
# --------------------------------------------------------------------- #


def test_ring_hash_is_stable_across_instances():
    assert stable_hash(b"node:3:vnode:1") == stable_hash(b"node:3:vnode:1")
    a = HashRing(8, vnodes=4)
    b = HashRing(8, vnodes=4)
    pos = key_position(b"some-key")
    assert a.owners(pos, 3) == b.owners(pos, 3)


def test_ring_owners_are_distinct_and_ordered():
    ring = HashRing(10, vnodes=8)
    for key in range(50):
        owners = ring.owners(key_position(str(key).encode()), 3)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        assert all(0 <= n < 10 for n in owners)


def test_ring_filters_unroutable_nodes():
    ring = HashRing(6, vnodes=8)
    routable = {0, 1, 2}
    for key in range(40):
        owners = ring.owners(
            key_position(str(key).encode()), 2, routable=routable
        )
        assert set(owners) <= routable


def test_ring_owner_walk_is_minimal_disruption():
    """Removing one node only remaps keys that node owned; every other
    key keeps its replica group."""
    ring = HashRing(10, vnodes=8)
    removed = 4
    survivors = set(range(10)) - {removed}
    for key in range(200):
        pos = key_position(str(key).encode())
        before = ring.owners(pos, 2)
        after = ring.owners(pos, 2, routable=survivors)
        if removed not in before:
            assert before == after


def test_ring_remapped_share_is_roughly_node_share():
    ring = HashRing(10, vnodes=16)
    share = ring.remapped_share(range(10), set(range(10)) - {3})
    # One node of ten owns ~10% of the ring (vnode variance allowed).
    assert 0.02 < share < 0.30
    assert ring.remapped_share(range(10), range(10)) == 0.0


def test_ring_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        HashRing(0)
    with pytest.raises(ValueError):
        HashRing(4, vnodes=0)


# --------------------------------------------------------------------- #
# Membership
# --------------------------------------------------------------------- #


def membership_config(**kw):
    defaults = dict(nodes=4, suspect_after=2, down_after=3)
    defaults.update(kw)
    return ClusterConfig(**defaults)


def test_membership_escalates_suspect_then_down():
    m = Membership(membership_config())
    assert m.state_of(1) is NodeState.UP
    m.note_miss(1, now=10)
    assert m.state_of(1) is NodeState.UP
    m.note_miss(1, now=20)
    assert m.state_of(1) is NodeState.SUSPECT
    assert 1 in m.routable()  # SUSPECT still owns its shards
    m.note_miss(1, now=30)
    assert m.state_of(1) is NodeState.DOWN
    assert 1 not in m.routable()
    assert [(r["node"], r["to"]) for r in m.log] == [
        (1, "suspect"),
        (1, "down"),
    ]


def test_membership_ack_recovers_straight_to_up():
    m = Membership(membership_config())
    for now in (10, 20, 30):
        m.note_miss(2, now)
    assert m.state_of(2) is NodeState.DOWN
    m.note_ack(2, now=40)
    assert m.state_of(2) is NodeState.UP
    assert 2 in m.up_nodes()


def test_membership_change_hook_fires_on_transitions():
    seen = []
    m = Membership(
        membership_config(),
        on_change=lambda node, frm, to: seen.append((node, frm, to)),
    )
    m.note_miss(0, 1)
    m.note_miss(0, 2)
    m.note_miss(0, 3)
    m.note_ack(0, 4)
    assert seen == [
        (0, NodeState.UP, NodeState.SUSPECT),
        (0, NodeState.SUSPECT, NodeState.DOWN),
        (0, NodeState.DOWN, NodeState.UP),
    ]


# --------------------------------------------------------------------- #
# Cluster config validation + fault taxonomy
# --------------------------------------------------------------------- #


def test_cluster_config_validates():
    with pytest.raises(ConfigurationError):
        ClusterConfig(nodes=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(replication=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(replication=5, nodes=4)
    with pytest.raises(ConfigurationError):
        ClusterConfig(availability_floor=1.5)


def test_cluster_chaos_schedule_spreads_victims():
    events = cluster_chaos_schedule(10, 400)
    actions = [e.action for e in events]
    assert actions == [
        "node-kill",
        "node-flap",
        "node-recover",
        "net-partition",
        "net-heal",
    ]
    kill = events[0].nodes[0]
    flap = events[1].nodes[0]
    assert kill != flap
    assert flap not in events[3].nodes
    assert [e.trigger for e in events] == sorted(e.trigger for e in events)
    with pytest.raises(ChaosError):
        cluster_chaos_schedule(3, 400)


# --------------------------------------------------------------------- #
# Cluster end-to-end
# --------------------------------------------------------------------- #


def small_cluster(**kw):
    cfg = dict(
        nodes=4,
        replication=2,
        probe_interval_cycles=1024,
        probe_timeout_cycles=256,
        request_timeout_cycles=8192,
        timeout_embargo_cycles=2048,
    )
    cfg.update(kw.pop("cluster", {}))
    return SimulatedCluster(
        "cha-tlb",
        cluster_config=ClusterConfig(**cfg),
        seed=kw.pop("seed", 7),
        requests=kw.pop("requests", 80),
        **kw,
    )


def test_cluster_fault_free_run_completes_everything():
    cluster = small_cluster()
    report = cluster.run()
    assert report.fleet["completed"] == cluster.requests
    assert report.fleet["failed"] == 0
    assert report.fleet["result_errors"] == 0
    assert report.fleet["availability"] == 1.0
    # Every node should have seen traffic (4 nodes, R=2, hashed keys).
    assert all(row["received"] > 0 for row in report.node_rows)


def test_cluster_node_kill_fails_over_without_wrong_results():
    cluster = small_cluster(requests=160)
    fired = []

    def on_tick(cl):
        if cl.slo.terminal >= 30 and not fired:
            fired.append(True)
            cl.fail_node(0)
            cl.slo.begin_phase("kill", cl.engine.now)

    report = cluster.run(on_tick=on_tick)
    assert fired
    assert report.fleet["result_errors"] == 0
    assert report.fleet["completed"] + report.fleet["failed"] == (
        report.fleet["issued"]
    )
    # The kill must actually have been routed around, not ignored.
    assert report.fleet["timeouts"] > 0
    assert report.fleet["retries"] > 0
    dead_row = report.node_rows[0]
    assert dead_row["alive"] is False
    assert dead_row["dropped_dead"] >= 0


def test_cluster_partition_marks_down_and_rebalances():
    cluster = small_cluster(requests=240)
    fired = []

    def on_tick(cl):
        t = cl.slo.terminal
        if t >= 30 and "p" not in fired:
            fired.append("p")
            cl.partition({2, 3})
            cl.slo.begin_phase("partition", cl.engine.now)
        if t >= 150 and "h" not in fired:
            fired.append("h")
            cl.heal()
            cl.slo.begin_phase("heal", cl.engine.now)

    report = cluster.run(on_tick=on_tick)
    assert fired == ["p", "h"]
    assert report.fleet["result_errors"] == 0
    downs = [
        row for row in report.membership_log if row["to"] == "down"
    ]
    assert {row["node"] for row in downs} == {2, 3}
    recoveries = [
        row
        for row in report.membership_log
        if row["from"] == "down" and row["to"] == "up"
    ]
    assert {row["node"] for row in recoveries} == {2, 3}
    # Each DOWN/UP transition recorded its remapped ring share.
    assert len(report.rebalances) == len(downs) + len(recoveries)
    assert all(0.0 < r["remapped_share"] < 1.0 for r in report.rebalances)


def test_cluster_retry_after_propagates_to_clients():
    """A saturated node's Admission retry-after must climb the stack: node
    frontend -> rejected response -> LB embargo -> client back-off.  With
    one admission attempt, a request the embargoed shard turns away is
    terminally lost at the LB: a give-up, still accounted for."""
    for budget in ({}, {"max_admission_attempts": 1}):
        serve = ServeConfig(
            tenants=2,
            queue_depth=1,
            concurrency=16,
            think_cycles=1,
            max_in_flight=2,
            **budget,
        )
        cluster = small_cluster(
            requests=160,
            serve_config=serve,
            cluster={
                "nodes": 4,
                "replication": 1,  # no failover: backpressure must surface
                "probe_interval_cycles": 1024,
                "probe_timeout_cycles": 256,
                "request_timeout_cycles": 8192,
                "timeout_embargo_cycles": 2048,
            },
        )
        report = cluster.run()
        assert report.fleet["result_errors"] == 0
        # Node-level rejections travelled up...
        assert report.fleet["node_rejections"] > 0
        # ...and with R=1 both replicas-of-one embargoed => client rejections.
        assert report.fleet["rejected"] > 0
        if budget:
            assert report.fleet["giveups"] > 0
        # Clients retried against the hint or gave up; no request is lost.
        assert report.fleet["completed"] + report.fleet["failed"] + (
            report.fleet["giveups"]
        ) == cluster.requests


def test_cluster_fleet_slo_equals_merge_of_node_sketches():
    """Acceptance criterion: the fleet per-tenant service SLO is exactly
    the mergeable-sketch union of every node's per-tenant sketch."""
    cluster = small_cluster(requests=120)
    report = cluster.run()
    for tenant in range(cluster.serve_config.tenants):
        oracle = PercentileSketch("oracle")
        for node in cluster.nodes:
            oracle.merge(node.server.slo.sketch_of(tenant))
        fleet = cluster.merged_service_sketch(tenant)
        assert fleet.to_dict()["buckets"] == oracle.to_dict()["buckets"]
        assert fleet.count == oracle.count
        for pct in (50.0, 95.0, 99.0):
            assert fleet.quantile(pct) == oracle.quantile(pct)
        row = report.tenants[tenant]
        assert row["service_p50"] == oracle.p50
        assert row["service_p99"] == oracle.p99
        assert row["service_count"] == oracle.count


def test_cluster_same_seed_reports_are_byte_identical():
    def one():
        cluster = small_cluster(requests=120)
        fired = []

        def on_tick(cl):
            if cl.slo.terminal >= 30 and not fired:
                fired.append(True)
                cl.fail_node(1)
                cl.slo.begin_phase("kill", cl.engine.now)

        return cluster.run(on_tick=on_tick).dump()

    first, second = one(), one()
    assert first == second
    json.loads(first)  # canonical JSON, parseable


def test_cluster_seed_changes_the_run():
    a = small_cluster(seed=7, requests=80).run().dump()
    b = small_cluster(seed=8, requests=80).run().dump()
    assert a != b


# --------------------------------------------------------------------- #
# The cluster-chaos harness
# --------------------------------------------------------------------- #


def test_cluster_chaos_contract_small_fleet():
    report = run_cluster_chaos(
        "cha-tlb", seed=7, requests=160, nodes=4, replication=2
    )
    checks = report.checks
    assert checks["result_errors"] == 0
    assert checks["terminal"] == checks["budget"]
    assert checks["issued_resolved"]
    assert checks["min_phase_availability"] >= checks["availability_floor"]
    assert checks["node_kills"] == 2
    assert checks["partitions"] == 1
    assert all(e["fired_cycle"] is not None for e in report.events)


def test_cluster_chaos_is_deterministic():
    kwargs = dict(seed=11, requests=160, nodes=4, replication=2)
    assert (
        run_cluster_chaos("cha-tlb", **kwargs).dump()
        == run_cluster_chaos("cha-tlb", **kwargs).dump()
    )


def test_cluster_chaos_ten_nodes_full_lifecycle():
    """The ISSUE acceptance scenario: >=10 nodes, kills + flap + partition,
    zero wrong results, zero hangs, availability floor in every phase, and
    victims walked through the DOWN state."""
    report = run_cluster_chaos(
        "cha-tlb", seed=7, requests=400, nodes=10, replication=2
    )
    checks = report.checks
    assert checks["result_errors"] == 0
    assert checks["terminal"] == checks["budget"] == 400
    assert checks["min_phase_availability"] >= checks["availability_floor"]
    log = report.cluster["membership_log"]
    assert any(row["to"] == "down" for row in log)
    assert any(
        row["from"] == "down" and row["to"] == "up" for row in log
    )
    assert len(report.cluster["phases"]) == 6  # baseline + 5 events


# --------------------------------------------------------------------- #
# The recovery-chaos harness (docs/recovery.md)
# --------------------------------------------------------------------- #


def test_recovery_chaos_zero_lost_acked_writes():
    """The ISSUE acceptance scenario: a primary killed mid 50/50 mix at
    quorum W=2 loses zero acknowledged writes, a node recovering off a
    truncated log detects the ordinal gap and full-resyncs, the per-key
    history is linearizable, and the fleet ends converged and all-UP."""
    report = run_recovery_chaos("cha-tlb", seed=7, requests=200, nodes=4)
    checks = report.checks
    assert checks["result_errors"] == 0
    assert checks["terminal"] == checks["budget"] == 200
    assert checks["history_linearizable"]
    assert checks["history_violations"] == []
    assert checks["lost_acked_writes"] == []
    assert checks["diverged_keys"] == []
    assert checks["write_problems"] == []
    assert checks["replication_settled"]
    assert checks["recoveries"] == checks["node_kills"] == 2
    assert checks["gaps_detected"] >= 1  # the LOG_TRUNCATE victim
    assert checks["resyncs"] >= 1
    assert checks["all_nodes_up"]
    assert checks["min_phase_availability"] >= checks["availability_floor"]


def test_recovery_chaos_is_deterministic():
    kwargs = dict(seed=11, requests=200, nodes=4)
    assert (
        run_recovery_chaos("cha-tlb", **kwargs).dump()
        == run_recovery_chaos("cha-tlb", **kwargs).dump()
    )


def test_recovery_chaos_schedule_needs_a_quorum_of_nodes():
    with pytest.raises(ChaosError):
        recovery_chaos_schedule(3, 200)


def test_recovery_chaos_quorum_one_loses_only_the_truncated_suffix():
    # W=1 releases the ok on the primary's local append alone, so the
    # log-truncation drill can destroy the only durable copy of a write
    # before it ever ships (the crash wipes the volatile outbound queue;
    # catch-up re-ships from the WAL, which the truncation just ate).
    # That loss is the quorum trade-off, not a bug — the same seed and
    # schedule at the default W=2 lose nothing (the zero-loss test above
    # covers seed 7; seed 23 at W=2 is clean too).  What W=1 still owes:
    # the checker *reports* every lost write (no silent loss), every
    # stale read traces to a lost key, and the fleet converges.
    report = run_recovery_chaos(
        "cha-tlb", seed=23, requests=200, nodes=4, quorum=1, verify=False
    )
    checks = report.checks
    assert checks["write_quorum"] == 1
    assert checks["lost_acked_writes"] != []  # truncation really bites
    assert set(checks["history_violations"]) <= set(
        checks["lost_acked_writes"]
    )
    assert checks["diverged_keys"] == []  # replicas agree, if on the past
    assert checks["gaps_detected"] >= 1
    assert checks["replication_settled"]
    assert checks["all_nodes_up"]
    assert checks["terminal"] == checks["budget"] == 200


def _drill_with_verdict(monkeypatch, seed):
    """A drill-size recovery run (400 requests, 6 nodes, R=2, W=2) and the
    history checker's full verdict, states count included."""
    verdicts = []
    check = history.HistoryRecorder.check

    def capture(self):
        verdicts.append(check(self))
        return verdicts[-1]

    monkeypatch.setattr(history.HistoryRecorder, "check", capture)
    report = run_recovery_chaos(
        "cha-tlb", seed=seed, requests=400, nodes=6, replication=2,
        quorum=2, verify=False,
    )
    (verdict,) = verdicts
    return report, verdict


def test_recovery_drill_seed8_history_checks_well_inside_budget(
    monkeypatch,
):
    # Seed 8 holds the drill's hardest key history (about 40k states after
    # the search's reductions): linearizable, and the whole check stays a
    # small fraction of one key's budget.
    report, verdict = _drill_with_verdict(monkeypatch, 8)
    assert verdict.linearizable
    assert report.checks["history_linearizable"]
    assert report.checks["history_inconclusive"] == 0
    assert 0 < verdict.states < history._STATE_BUDGET // 5


def test_recovery_drill_seed6_keeps_its_one_violation(monkeypatch):
    report, verdict = _drill_with_verdict(monkeypatch, 6)
    assert verdict.violations == [16608118694158627991]
    assert report.checks["history_violations"] == [16608118694158627991]
    assert report.checks["history_inconclusive"] == 0


@pytest.mark.parametrize(
    "run, kwargs",
    [
        (run_recovery_chaos, dict(requests=200, nodes=4)),
        (run_cluster_chaos, dict(requests=160, nodes=4)),
    ],
    ids=["recovery", "cluster"],
)
def test_inconclusive_history_fails_the_contract(monkeypatch, run, kwargs):
    # A key that exhausts the search budget has only partial finals, so
    # it cannot vouch for the lost-acked-writes check: the run fails.
    monkeypatch.setattr(history, "_STATE_BUDGET", 1)
    with pytest.raises(ChaosError, match="inconclusive"):
        run("cha-tlb", seed=7, **kwargs)
