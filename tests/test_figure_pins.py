"""Pins for the figure sweeps' shared software baseline.

Fig. 7, 11 and 12 time one software baseline against each integration
scheme.  The baseline trace is a pure function of the restored memory image
and the query keys, so the sweeps emit it once per workload and share it
across the scheme pairs; fig8 runs each workload's baseline once, since the
device latency it sweeps is read only on the QEI side.  These tests hold
that reasoning and the figures' numbers in place:

* every scheme's build (the cold one that captures the snapshot and the
  restores) emits the same baseline trace, without moving a stats counter;
* sha256 pins of the software-baseline traces and of the fig7/fig11/fig12
  rows at quick size;
* the pair memo holds one shared trace, and clearing it between pairs (as
  e2ebench does between passes) changes no pair;
* a pair's baseline System is freed before its QEI System is built;
* fig8's baseline does not depend on the device-indirect latency.

This module pins the dpdk and flann rows; the other nine rows are pinned
in ``benchmarks/test_figure_pins.py``, which runs in the ``slow`` tier.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref

import pytest

from repro.analysis import experiments, snapshot
from repro.analysis.experiments import (
    BENCH_WORKLOADS,
    SCHEME_ORDER,
    fig7_speedup,
    fig11_instruction_count,
    fig12_dynamic_power,
)
from repro.config import (
    DEFAULT_SCHEME_LATENCIES,
    IntegrationScheme,
    SchemeLatencyConfig,
    SystemConfig,
)
from repro.cpu.trace import Trace
from repro.system import System
from repro.workloads import make_workload, run_baseline

WORKLOADS = list(BENCH_WORKLOADS)

#: sha256 of ``(kinds, deps, args, values)`` per workload at quick size.
TRACE_PINS = {
    "baseline": {
        "dpdk": "9245e23809741d27398ff51edf973c953bd3b84d355cef2176f102686bc8fc3f",
        "jvm": "dcee4e0d63bbe880afd4e7857756cf1a589d331d98c07a744c7ae16975e97f27",
        "rocksdb": "761b4b4a2d3145bf31cfd1ae34341686cb7ff0f18434d537e07213aa0d86b984",
        "snort": "f6e98621700764849a5a9c23a06a462f3b4ab99a49e4c4f8217b7cfe0542f676",
        "flann": "afdd8bce3022fe8c45a47b770b3fafde69255995b5b1b44874d44ead970555fc",
    },
    "app": {
        "dpdk": "a1dd716062d5727c0e179a3f4d06c8e6722d997be8773fbaed27ff3f50cd92a2",
        "jvm": "559cc5d49605e43bdf32919caaf7f85c4788508572571ea92e7d779716d1f44f",
        "rocksdb": "8eb3fe6a7d2f77441cf161dc49c000a3ed261e40ed202497cac5a05c4b9a059d",
        "snort": "68651680ccf8f12c4d872f5f61ecffa7fa33d49973a58f4f85da3e4125def315",
        "flann": "beaecc11d71e77cc2992f018b624e3129c5b980de5e4e081973bdfaa57599725",
    },
}

FIGURES = {
    "fig7": fig7_speedup,
    "fig11": fig11_instruction_count,
    "fig12": fig12_dynamic_power,
}

#: sha256 of one workload's row of each figure at quick size.
ROW_PINS = {
    "fig7": {
        "dpdk": "ca9f2f33f48be65ab5a6c7f58810447134f45c850eeb6f7c37edef736aeb0342",
        "flann": "8181cc7c078d7caf5c1fd061e4c7f7bfa1c687205ef525d8fbd4a84752b51833",
    },
    "fig11": {
        "dpdk": "6706520a850af6ffd5ae1414651acdc2d0e1d00c8f916a8de66e9dbfa90b605f",
        "flann": "95539083cecaa0956e947495f98e1270815d1bbe34dc40577c9b6bae66d493dc",
    },
    "fig12": {
        "dpdk": "45408eba44a131ff50258af1751cd5bdb2397574c68507dec66f284159b28181",
        "flann": "6332fefa600a353820fa2d4d0703b29ce726e0de5a720dbb85afd3991dadbd1d",
    },
}


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _trace_digest(trace: Trace, values) -> str:
    return _sha(repr((trace.kinds, trace.deps, trace.args, values)))


def _row_digest(rows) -> str:
    return _sha(json.dumps(rows, sort_keys=True))


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(experiments, "_PAIR_MEMO", {})
    return experiments._PAIR_MEMO


@pytest.mark.parametrize("name", WORKLOADS)
def test_baseline_trace_is_scheme_independent(name):
    params = experiments.workload_params(name, True)
    cold = make_workload(name, System(None, SCHEME_ORDER[0]), **params)
    builds = [cold] + [
        snapshot.build(name, params, scheme)[1] for scheme in SCHEME_ORDER
    ]
    emitted = []
    for workload in builds:
        before = workload.system.stats.snapshot()
        trace, values = workload.baseline_trace()
        assert workload.system.stats.snapshot() == before
        emitted.append((trace.kinds, trace.deps, trace.args, values))
    assert all(columns == emitted[0] for columns in emitted[1:])


@pytest.mark.parametrize("kind", sorted(TRACE_PINS))
@pytest.mark.parametrize("name", WORKLOADS)
def test_baseline_trace_is_pinned(name, kind):
    params = experiments.workload_params(name, True)
    _, workload = snapshot.build(name, params, "cha-tlb")
    if kind == "app":
        trace, values = workload.app_trace_baseline()
    else:
        trace, values = workload.baseline_trace()
    assert _trace_digest(trace, values) == TRACE_PINS[kind][name]


@pytest.mark.parametrize(
    "figure, name",
    [
        pytest.param(figure, name, id=f"{figure}-{name}")
        for figure in FIGURES
        for name in ROW_PINS[figure]
    ],
)
def test_figure_row_is_pinned(empty_memo, figure, name):
    result = FIGURES[figure](quick=True, workloads=[name])
    assert _row_digest(result.rows) == ROW_PINS[figure][name]


def test_pair_memo_holds_one_shared_trace(empty_memo):
    names = ["dpdk", "flann"]
    fig7_speedup(quick=True, workloads=names)
    pairs = {(name, scheme, True) for name in names for scheme in SCHEME_ORDER}
    assert set(empty_memo) == pairs | {experiments._TRACE_KEY}
    assert empty_memo[experiments._TRACE_KEY][0] == (names[-1], True)
    empty_memo.clear()
    assert not empty_memo


def test_clearing_the_memo_between_pairs_changes_no_pair(empty_memo):
    kept = [experiments._pair_stats("dpdk", s, True) for s in SCHEME_ORDER]
    cleared = []
    for scheme in SCHEME_ORDER:
        empty_memo.clear()
        cleared.append(experiments._pair_stats("dpdk", scheme, True))
    assert cleared == kept


def test_baseline_system_is_freed_before_the_qei_build(empty_memo, monkeypatch):
    """One live System per pair: reference counting alone frees the
    baseline side before the QEI side is built (peak RSS)."""
    build = snapshot.build
    systems, dead_at_build = [], []

    def spy(name, params, scheme):
        dead_at_build.append([ref() is None for ref in systems])
        system, workload = build(name, params, scheme)
        systems.append(weakref.ref(system))
        return system, workload

    monkeypatch.setattr(snapshot, "build", spy)
    gc.disable()
    try:
        experiments._pair_stats("dpdk", "cha-tlb", True)
    finally:
        gc.enable()
    assert dead_at_build == [[], [True]]


def test_fig8_baseline_ignores_device_latency():
    runs = []
    for latency in (50, 2000):
        overrides = dict(DEFAULT_SCHEME_LATENCIES)
        overrides[IntegrationScheme.DEVICE_INDIRECT] = SchemeLatencyConfig(
            300, latency
        )
        config = SystemConfig(scheme_latencies=overrides)
        system, workload = snapshot.build(
            "dpdk", experiments.workload_params("dpdk", True),
            "device-indirect", config,
        )
        runs.append(run_baseline(system, workload))
    assert runs[0] == runs[1]


def test_run_baseline_refuses_a_roi_trace_for_an_app_run():
    params = experiments.workload_params("dpdk", True)
    system, workload = snapshot.build("dpdk", params, "cha-tlb")
    with pytest.raises(ValueError):
        run_baseline(system, workload, app=True, emitted=workload.baseline_trace())
