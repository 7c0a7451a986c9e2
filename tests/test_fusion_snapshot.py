"""Macro-step fusion and warm-system snapshots: bit-identity + plumbing.

Fusion collapses pure-compute CFA transition runs into arithmetic on a
virtual clock (one engine event per memory round-trip); snapshots restore a
pickled warm memory image instead of repopulating workloads.  Both are
pure performance work — every observable (ROI cycles, instructions, the
full stats snapshot) must match the golden stats / cold-built reference
exactly, and fusion must keep the engine event count where it was.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.analysis import snapshot
from repro.analysis.ablations import QST_SIZES
from repro.analysis.experiments import FIG8_LATENCIES, workload_params
from repro.analysis.fault_campaign import CAMPAIGN_WATCHDOG_STEPS, CAMPAIGN_WORKLOADS
from repro.config import (
    DEFAULT_SCHEME_LATENCIES,
    SCHEME_ORDER,
    IntegrationScheme,
    SchemeLatencyConfig,
    SystemConfig,
    small_config,
)
from repro.mem.allocator import HugePageArena
from repro.serve.driver import SERVE_CORES, SERVE_DPDK
from repro.sim.engine import Engine
from repro.system import System
from repro.workloads import TupleSpaceWorkload, make_workload, run_qei
from repro.workloads.snapshot import WorkloadSnapshot


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
    engine.cancel(first)
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
    system, wl = snapshot.build(workload, workload_params(workload, True), scheme)
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


def test_snapshot_restore_is_bit_identical_to_cold_build():
    params = workload_params("dpdk", True)
    cold_wl = make_workload("dpdk", System(None, "cha-tlb"), **params)
    cold = run_qei(cold_wl.system, cold_wl)
    cold_hash = _stats_hash(cold_wl.system)

    # First build captures the image; later builds restore it.
    snapshot.clear()
    snapshot.build("dpdk", params, "cha-tlb")
    for scheme in ("cha-tlb", "cha-notlb"):
        warm_sys, warm_wl = snapshot.build("dpdk", params, scheme)
        if scheme == "cha-tlb":
            warm = run_qei(warm_sys, warm_wl)
            assert (warm.cycles, warm.instructions) == (cold.cycles, cold.instructions)
            assert _stats_hash(warm_sys) == cold_hash
        else:
            # Cross-scheme restore from the same image still runs.
            assert run_qei(warm_sys, warm_wl).queries == cold.queries
    snapshot.clear()


def test_snapshot_template_isolated_from_restored_runs():
    params = workload_params("rocksdb", True)
    snapshot.clear()
    snapshot.build("rocksdb", params, "cha-tlb")

    # Run on one restored copy (mutates its mem: result buffers, traces)...
    sys_a, wl_a = snapshot.build("rocksdb", params, "cha-tlb")
    first = run_qei(sys_a, wl_a)
    hash_a = _stats_hash(sys_a)

    # ...then restore again: the template must be untouched.
    sys_b, wl_b = snapshot.build("rocksdb", params, "cha-tlb")
    second = run_qei(sys_b, wl_b)
    assert (second.cycles, second.instructions) == (first.cycles, first.instructions)
    assert _stats_hash(sys_b) == hash_a
    snapshot.clear()


# --------------------------------------------------------------------- #
# One image per key, restored onto every config a verb builds with
# --------------------------------------------------------------------- #


def _fig8_config(latency: int) -> SystemConfig:
    overrides = dict(DEFAULT_SCHEME_LATENCIES)
    overrides[IntegrationScheme.DEVICE_INDIRECT] = SchemeLatencyConfig(300, latency)
    return SystemConfig(scheme_latencies=overrides)


def _qst_config(entries: int) -> SystemConfig:
    base = SystemConfig()
    return base.replace(qei=dataclasses.replace(base.qei, qst_entries=entries))


def _campaign_config() -> SystemConfig:
    base = small_config(2)
    return base.replace(
        qei=dataclasses.replace(base.qei, watchdog_steps=CAMPAIGN_WATCHDOG_STEPS)
    )


DPDK = workload_params("dpdk", True)
TUPLE_SPACE = dict(num_tuples=5, flows_per_tuple=256, num_packets=24, num_buckets=256)

#: (id, workload, params, config factory, huge pages, scheme): every pair of
#: config and heap kind a verb builds with, under the schemes it uses.
IMAGE_CASES = (
    [("default", "dpdk", DPDK, SystemConfig, False, s) for s in SCHEME_ORDER]
    + [
        (f"fig8-{lat}", "dpdk", DPDK, lambda lat=lat: _fig8_config(lat), False,
         "device-indirect")
        for lat in FIG8_LATENCIES
    ]
    + [
        (f"a1-qst{n}", "dpdk", DPDK, lambda n=n: _qst_config(n), False,
         "core-integrated")
        for n in QST_SIZES
    ]
    + [
        (f"small-{name}", name, workload_params(name, True), small_config, False,
         "core-integrated")
        for name in ("dpdk", "jvm")
    ]
    + [
        (f"campaign-{name}", name, params, _campaign_config, False, s)
        for name, params in CAMPAIGN_WORKLOADS.items()
        for s in SCHEME_ORDER
    ]
    + [
        ("serve", "dpdk", dict(SERVE_DPDK, seed=7),
         lambda: small_config(SERVE_CORES), False, s)
        for s in SCHEME_ORDER
    ]
    + [
        ("huge-pages", "dpdk", DPDK, SystemConfig, True, s)
        for s in ("cha-notlb", "cha-tlb", "core-integrated")
    ]
    + [
        ("tuple-space", TupleSpaceWorkload, TUPLE_SPACE, SystemConfig, False, s)
        for s in SCHEME_ORDER
    ]
)


def _image(system, workload) -> bytes:
    """The pickled (memory, workload state), after one restore round trip.

    Pickle writes a string it has seen as a back-reference by identity, and
    a fresh build's attribute names are interned while unpickled ones are
    not; one round trip puts both sides on the same footing.
    """
    once = WorkloadSnapshot(system, workload)
    return WorkloadSnapshot(*once.restore(system.scheme))._template


@pytest.mark.parametrize(
    "case", IMAGE_CASES, ids=[f"{c[0]}-{c[5]}" for c in IMAGE_CASES]
)
def test_restore_equals_a_fresh_build(case):
    _, workload, params, make_config, huge, scheme = case
    config = make_config()
    fresh_sys = System(config, scheme)
    if huge:
        fresh_sys.mem.heap = HugePageArena(
            fresh_sys.space, snapshot.HUGE_ARENA_BASE,
            huge_pages=snapshot.HUGE_ARENA_PAGES,
        )
    fresh = make_workload(workload, fresh_sys, **params)

    # The image comes from another scheme on another config with the same
    # memory size; the restore must still equal the fresh build.
    donor = SystemConfig() if config.memory_bytes == SystemConfig.memory_bytes else small_config()
    snapshot.build(workload, params, SCHEME_ORDER[-1], donor, huge_pages=huge)
    images = len(snapshot._TEMPLATES)
    system, restored = snapshot.build(workload, params, scheme, config, huge_pages=huge)
    assert len(snapshot._TEMPLATES) == images  # a restore, not a second build
    assert system.config is config and system.scheme.value == scheme
    assert _image(system, restored) == _image(fresh_sys, fresh)
