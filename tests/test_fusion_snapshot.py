"""Macro-step fusion and warm-system snapshots: bit-identity + plumbing.

Fusion collapses pure-compute CFA transition runs into arithmetic on a
virtual clock (one engine event per memory round-trip); snapshots restore a
deep-copied warm memory image instead of repopulating workloads.  Both are
pure performance work — every observable (ROI cycles, instructions, the
full stats snapshot) must match the golden stats / cold-built reference
exactly, and fusion must keep the engine event count where it was.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis import snapshot
from repro.analysis.experiments import _build, workload_params
from repro.analysis.perfbench import compare
from repro.sim.engine import Engine
from repro.workloads import run_qei


def _stats_hash(system) -> str:
    payload = json.dumps(sorted(system.stats.snapshot().items()), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------- #
# Engine.peek_time / run_horizon
# --------------------------------------------------------------------- #


def test_peek_time_skips_cancelled_and_empties():
    engine = Engine()
    assert engine.peek_time() is None
    first = engine.schedule_at(5, lambda: None)
    engine.schedule_at(9, lambda: None)
    assert engine.peek_time() == 5
    first.cancel()
    assert engine.peek_time() == 9  # cancelled head discarded lazily
    assert engine.pending() == 1


def test_run_horizon_visible_only_inside_bounded_run():
    engine = Engine()
    seen = []
    engine.schedule_at(3, lambda: seen.append(engine.run_horizon))
    assert engine.run_horizon is None
    engine.run(until=10)
    assert seen == [10]
    assert engine.run_horizon is None  # cleared after the run

    engine.schedule_at(12, lambda: seen.append(engine.run_horizon))
    engine.drain()
    assert seen[-1] is None  # unbounded drain exposes no horizon


# --------------------------------------------------------------------- #
# Fusion: engine event counts
# --------------------------------------------------------------------- #

#: Engine events per ROI with macro-step fusion and the batched ready-drain,
#: pinned at their measured values: golden stats cannot see the event count
#: (fusion changes no simulated number), so this is what proves fusion still
#: fuses.  Without fusion the same ROIs took 936 and 3820 events.
FUSED_EVENTS = {
    ("dpdk", "cha-tlb"): (845, 3317, 100),
    ("rocksdb", "core-integrated"): (1925, 77561, 50),
}


@pytest.mark.parametrize("pair", sorted(FUSED_EVENTS))
def test_fusion_keeps_engine_event_count(pair):
    workload, scheme = pair
    snapshot.clear()
    system, wl = _build(workload, scheme, quick=True)
    run = run_qei(system, wl)
    events, cycles, queries = FUSED_EVENTS[pair]
    assert (run.cycles, run.queries) == (cycles, queries)
    assert system.engine.events_processed == events


# --------------------------------------------------------------------- #
# Warm-system snapshots
# --------------------------------------------------------------------- #


def test_snapshot_restore_is_bit_identical_to_cold_build(monkeypatch):
    # Cold reference: snapshots disabled, two independent builds.
    monkeypatch.setattr(snapshot, "_enabled", False)
    cold_sys, cold_wl = _build("dpdk", "cha-tlb", quick=True)
    cold = run_qei(cold_sys, cold_wl)
    cold_hash = _stats_hash(cold_sys)

    # Snapshot path: first build captures, later builds restore.
    monkeypatch.setattr(snapshot, "_enabled", True)
    snapshot.clear()
    _build("dpdk", "cha-tlb", quick=True)  # capture template
    params = workload_params("dpdk", True)
    assert snapshot.get("dpdk", params) is not None

    for scheme in ("cha-tlb", "cha-notlb"):
        warm_sys, warm_wl = _build("dpdk", scheme, quick=True)
        if scheme == "cha-tlb":
            warm = run_qei(warm_sys, warm_wl)
            assert (warm.cycles, warm.instructions) == (cold.cycles, cold.instructions)
            assert _stats_hash(warm_sys) == cold_hash
        else:
            # Cross-scheme restore from the same template still runs.
            assert run_qei(warm_sys, warm_wl).queries == cold.queries
    snapshot.clear()


def test_snapshot_template_isolated_from_restored_runs(monkeypatch):
    monkeypatch.setattr(snapshot, "_enabled", True)
    snapshot.clear()
    _build("rocksdb", "cha-tlb", quick=True)

    # Run on one restored copy (mutates its mem: result buffers, traces)...
    sys_a, wl_a = _build("rocksdb", "cha-tlb", quick=True)
    first = run_qei(sys_a, wl_a)
    hash_a = _stats_hash(sys_a)

    # ...then restore again: the template must be untouched.
    sys_b, wl_b = _build("rocksdb", "cha-tlb", quick=True)
    second = run_qei(sys_b, wl_b)
    assert (second.cycles, second.instructions) == (first.cycles, first.instructions)
    assert _stats_hash(sys_b) == hash_a
    snapshot.clear()


def test_custom_config_bypasses_snapshots(monkeypatch):
    from repro.config import SystemConfig

    monkeypatch.setattr(snapshot, "_enabled", True)
    snapshot.clear()
    _build("dpdk", "cha-tlb", quick=True, config=SystemConfig())
    assert snapshot.get("dpdk", workload_params("dpdk", True)) is None
    snapshot.clear()


# --------------------------------------------------------------------- #
# perfbench schema comparison
# --------------------------------------------------------------------- #


def _payload(schema, engine_rate, q_rate, serve_rate, cluster_rate=None):
    payload = {
        "schema": schema,
        "engine_events_per_sec": engine_rate,
        "queries_per_sec": {"cha-tlb": q_rate},
        "serve_requests_per_sec": serve_rate,
    }
    if cluster_rate is not None:
        payload["cluster_requests_per_sec"] = cluster_rate
    return payload


def test_compare_skips_queries_across_schema_versions():
    current = _payload(2, 1000.0, 1800.0, 2500.0)
    baseline = _payload(1, 1000.0, 400.0, 2500.0)
    report = compare(current, baseline, threshold=0.30)
    assert "queries_per_sec/cha-tlb" not in report
    assert set(report) == {"engine_events_per_sec", "serve_requests_per_sec"}
    assert not any(row["failed"] for row in report.values())


def test_compare_gates_queries_within_same_schema():
    current = _payload(2, 1000.0, 500.0, 2500.0)
    baseline = _payload(2, 1000.0, 1800.0, 2500.0)
    report = compare(current, baseline, threshold=0.30)
    assert report["queries_per_sec/cha-tlb"]["failed"] is True
    assert report["engine_events_per_sec"]["failed"] is False


def test_compare_gates_cluster_throughput_in_schema3():
    current = _payload(3, 1000.0, 1800.0, 2500.0, cluster_rate=200.0)
    baseline = _payload(3, 1000.0, 1800.0, 2500.0, cluster_rate=900.0)
    report = compare(current, baseline, threshold=0.30)
    assert report["cluster_requests_per_sec"]["failed"] is True
    assert report["serve_requests_per_sec"]["failed"] is False


def test_compare_tolerates_baselines_without_cluster_metric():
    # A schema-2 baseline predates the cluster bench: the new metric is
    # simply absent from the intersection, never a KeyError or a failure.
    current = _payload(2, 1000.0, 1800.0, 2500.0, cluster_rate=500.0)
    baseline = _payload(2, 1000.0, 1800.0, 2500.0)
    report = compare(current, baseline, threshold=0.30)
    assert "cluster_requests_per_sec" not in report
    assert not any(row["failed"] for row in report.values())


def test_compare_never_gates_the_recovery_block():
    # Schema 5's durability metrics are simulated time (lower is better,
    # deterministic per seed), not host throughput: a 9-second recovery
    # against a microsecond baseline must not trip the regression gate.
    current = _payload(5, 1000.0, 1800.0, 2500.0)
    current["recovery"] = {"recovery_seconds": 9.0, "replication_lag_p99": 9.0}
    baseline = _payload(5, 1000.0, 1800.0, 2500.0)
    baseline["recovery"] = {
        "recovery_seconds": 1e-6,
        "replication_lag_p99": 1e-6,
    }
    report = compare(current, baseline, threshold=0.30)
    assert not any("recovery" in name for name in report)
    assert not any(row["failed"] for row in report.values())
