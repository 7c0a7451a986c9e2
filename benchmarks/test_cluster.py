"""Cluster-tier benchmark: fleet scaling and the chaos contract at scale.

Runs the replicated multi-node serving tier at fleet sizes up to the
100-node top of the ISSUE's range, prints per-size throughput, and pins the
robustness claims: zero wrong results and availability above the floor even
with a kill, a flap and a partition in flight.
"""

import pytest

from repro.analysis.report import ExperimentResult
from repro.config import ClusterConfig
from repro.faults.chaos import run_cluster_chaos
from repro.serve.cluster import SimulatedCluster

pytestmark = pytest.mark.slow

#: Fleet sizes swept (nodes); the full tier reaches the 100-node top.
QUICK_FLEETS = [10, 25]
FULL_FLEETS = [10, 25, 50, 100]


def fleet_sweep(quick: bool) -> ExperimentResult:
    fleets = QUICK_FLEETS if quick else FULL_FLEETS
    requests = 400 if quick else 1200
    result = ExperimentResult(
        "cluster-sweep",
        f"fleet scaling, {requests} closed-loop requests x 4 tenants",
        ["nodes", "completed", "failed", "availability", "p50", "p99"],
    )
    for nodes in fleets:
        cluster = SimulatedCluster(
            "cha-tlb",
            cluster_config=ClusterConfig(nodes=nodes),
            seed=7,
            requests=requests,
        )
        report = cluster.run()
        aggregate = report.phases[0]
        result.add_row(
            nodes=nodes,
            completed=report.fleet["completed"],
            failed=report.fleet["failed"],
            availability=report.fleet["availability"],
            p50=aggregate["p50"],
            p99=aggregate["p99"],
        )
    return result


@pytest.mark.figure
def test_fleet_sweep_serves_everything(run_once, quick):
    result = run_once(fleet_sweep, quick)
    print()
    print(result.format())
    for row in result.rows:
        assert row["availability"] == 1.0
        assert row["failed"] == 0
        assert 0 < row["p50"] <= row["p99"]


@pytest.mark.figure
def test_cluster_chaos_contract_at_scale(run_once, quick):
    nodes = 10 if quick else 50
    requests = 400 if quick else 1200
    report = run_once(
        run_cluster_chaos,
        "cha-tlb",
        seed=7,
        requests=requests,
        nodes=nodes,
        replication=2,
    )
    checks = report.checks
    print()
    print(f"\ncluster-chaos n={nodes}: {checks}")
    assert checks["result_errors"] == 0
    assert checks["terminal"] == checks["budget"]
    assert checks["min_phase_availability"] >= checks["availability_floor"]
    # The faults actually bit: failovers happened and membership moved.
    assert checks["timeouts"] > 0
    assert checks["membership_transitions"] > 0
