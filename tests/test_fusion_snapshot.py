"""Macro-step fusion and warm-system snapshots: bit-identity + plumbing.

Fusion collapses pure-compute CFA transition runs into arithmetic on a
virtual clock (one engine event per memory round-trip); snapshots restore a
pickled warm memory image instead of repopulating workloads.  Both are
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

#: Engine events per ROI with and without macro-step fusion, pinned at
#: their measured values: golden stats cannot see the event count (fusion
#: changes no simulated number), so this is what proves fusion still fuses.
#: Every deferred CEE step or wake is one engine event.
FUSED_EVENTS = {
    # (fused events, unfused events, cycles, queries)
    ("dpdk", "cha-tlb"): (1078, 1712, 3317, 100),
    ("rocksdb", "core-integrated"): (2024, 7486, 77561, 50),
}


def _roi_events(workload, scheme):
    snapshot.clear()
    system, wl = _build(workload, scheme, quick=True)
    run = run_qei(system, wl)
    return system.engine.events_processed, run.cycles, run.queries


@pytest.mark.parametrize("pair", sorted(FUSED_EVENTS))
def test_fusion_keeps_engine_event_count(pair, monkeypatch):
    fused, unfused, cycles, queries = FUSED_EVENTS[pair]
    assert _roi_events(*pair) == (fused, cycles, queries)
    with monkeypatch.context() as off:
        # The golden grid's fusion-off leg: a horizon below every cycle.
        off.setattr(Engine, "run_horizon", property(lambda self: -1))
        assert _roi_events(*pair) == (unfused, cycles, queries)


# --------------------------------------------------------------------- #
# Warm-system snapshots
# --------------------------------------------------------------------- #


def test_snapshot_restore_is_bit_identical_to_cold_build(monkeypatch):
    # Cold reference: the image step patched out, so the build populates.
    with monkeypatch.context() as cold_build:
        cold_build.setattr(snapshot, "get", lambda name, params: None)
        cold_build.setattr(snapshot, "capture", lambda *args: None)
        cold_sys, cold_wl = _build("dpdk", "cha-tlb", quick=True)
    cold = run_qei(cold_sys, cold_wl)
    cold_hash = _stats_hash(cold_sys)

    # Snapshot path: first build captures, later builds restore.
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


def test_snapshot_template_isolated_from_restored_runs():
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


def test_custom_config_bypasses_snapshots():
    from repro.config import SystemConfig

    snapshot.clear()
    _build("dpdk", "cha-tlb", quick=True, config=SystemConfig())
    assert snapshot.get("dpdk", workload_params("dpdk", True)) is None
    snapshot.clear()
