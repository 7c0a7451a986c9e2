"""Drivers reproducing every table and figure of the paper's evaluation.

Each function builds fresh systems, runs the needed simulations and returns
an :class:`~repro.analysis.report.ExperimentResult`.  Pass ``quick=True``
(the default used by the benchmark harness) for scaled-down runs that keep
the shapes but finish in seconds; ``quick=False`` uses the full default
workload sizes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import (
    DEFAULT_SCHEME_LATENCIES,
    SCHEME_ORDER,
    IntegrationScheme,
    SchemeLatencyConfig,
    SystemConfig,
)
from ..cpu.trace import Trace
from ..power import DynamicEnergyModel, tab3_configurations
from ..workloads import run_baseline, run_qei
from ..workloads.base import QueryWorkload, RoiRun
from ..workloads.tuple_space import TupleSpaceWorkload
from . import snapshot
from .report import ExperimentResult

#: Per-workload parameters for experiment runs: (quick, full).
BENCH_WORKLOADS: Dict[str, Tuple[dict, dict]] = {
    "dpdk": (
        dict(num_flows=4096, num_buckets=2048, num_queries=100),
        dict(num_queries=200),
    ),
    "jvm": (
        dict(num_objects=6000, num_queries=80),
        dict(num_queries=150),
    ),
    "rocksdb": (
        dict(num_items=1500, num_queries=50),
        dict(num_queries=100),
    ),
    "snort": (
        dict(num_keywords=400, payload_bytes=384, num_queries=4),
        dict(num_queries=8),
    ),
    "flann": (
        dict(num_tables=8, num_items=1200, num_points=8, num_buckets=256),
        dict(num_points=12),
    ),
}


#: Fig. 8's device-interface data-access latencies (cycles).
FIG8_LATENCIES = (50, 100, 200, 400, 800, 2000)
#: Fig. 10's tuple counts.
FIG10_TUPLE_COUNTS = (5, 10, 15)


def workload_params(name: str, quick: bool) -> dict:
    quick_params, full_params = BENCH_WORKLOADS[name]
    return dict(quick_params if quick else full_params)


#: The figure sweeps' in-process memo, emptied as one by ``clear()``:
#:
#: * (workload, scheme, quick) -> (baseline, qei, baseline stats delta, qei
#:   stats delta).  Fig. 7/11/12 all time the exact same deterministic ROI
#:   pairs on fresh default-config systems, so within one process (one
#:   ``repro all`` task) each pair runs once and is shared.  Systems are not
#:   retained (they hold the preallocated cache set tables); only the run
#:   results and stats deltas are.
#: * ``_TRACE_KEY`` -> ((workload, quick), (trace, values)): one shared
#:   software-baseline trace, of the newest workload only.  Every build of
#:   a workload starts from its one image (analysis/snapshot.py), and
#:   ``baseline_trace()`` reads only that image and the query keys, so the
#:   workload's scheme pairs share one emission and each still runs the
#:   trace on its own fresh system.  The sweeps go workload-major, so the
#:   next workload's trace replaces it.
#:
#: Only the default config's pairs are memoized.  Fig. 8's latency configs
#: restore the same images but run their own pairs.
_PAIR_MEMO: Dict[object, tuple] = {}
_TRACE_KEY = "baseline-trace"


def _shared_baseline_trace(
    name: str, quick: bool, workload: QueryWorkload
) -> Tuple[Trace, List[Optional[int]]]:
    """``workload.baseline_trace()``, emitted once per workload image."""
    if _PAIR_MEMO.get(_TRACE_KEY, (None,))[0] != (name, quick):
        # Drop the previous workload's trace before emitting this one, so
        # two are never alive at once (peak RSS).
        _PAIR_MEMO.pop(_TRACE_KEY, None)
        _PAIR_MEMO[_TRACE_KEY] = ((name, quick), workload.baseline_trace())
    return _PAIR_MEMO[_TRACE_KEY][1]


def _pair_stats(name: str, scheme: str, quick: bool) -> Tuple[RoiRun, RoiRun, dict, dict]:
    """Memoized baseline/QEI ROI pair with stats deltas around each run.

    Baseline on one fresh system, QEI on another (fair cold/warm state).
    """
    key = (name, scheme, quick)
    hit = _PAIR_MEMO.get(key)
    if hit is None:
        params = workload_params(name, quick)
        sys_b, wl_b = snapshot.build(name, params, scheme)
        emitted = _shared_baseline_trace(name, quick, wl_b)
        before_b = sys_b.stats.snapshot()
        baseline = run_baseline(sys_b, wl_b, emitted=emitted)
        delta_b = sys_b.stats.diff(before_b)
        del sys_b, wl_b  # one live System at a time (peak RSS)
        sys_q, wl_q = snapshot.build(name, params, scheme)
        before_q = sys_q.stats.snapshot()
        qei = run_qei(sys_q, wl_q)
        delta_q = sys_q.stats.diff(before_q)
        hit = _PAIR_MEMO[key] = (baseline, qei, delta_b, delta_q)
    return hit


# --------------------------------------------------------------------- #
# Fig. 1 — share of CPU time spent in query operations
# --------------------------------------------------------------------- #


def fig1_profiling(*, quick: bool = True, workloads: Optional[List[str]] = None) -> ExperimentResult:
    """Percentage of application time spent in data query operations.

    The paper's VTune profiling found 23%-44% across workloads (Fig. 1); we
    attribute cycles by differencing the full application loop against the
    same loop with the query routine removed.
    """
    result = ExperimentResult(
        "Fig. 1",
        "query share of application CPU time",
        ["workload", "app_cycles", "other_cycles", "query_share_pct"],
        notes=["paper reports 23%-44% across workloads"],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        params = workload_params(name, quick)
        system, workload = snapshot.build(name, params, "core-integrated")
        full = run_baseline(system, workload, app=True)
        other_trace = workload.app_trace_other_only()
        system2, _ = snapshot.build(name, params, "core-integrated")
        system2.warm_llc()
        other = system2.run_trace(other_trace)
        share = 100.0 * (full.cycles - other.cycles) / full.cycles
        result.add_row(
            workload=name,
            app_cycles=full.cycles,
            other_cycles=other.cycles,
            query_share_pct=share,
        )
    return result


# --------------------------------------------------------------------- #
# Fig. 7 — ROI query speedup per workload per scheme
# --------------------------------------------------------------------- #


def fig7_speedup(
    *,
    quick: bool = True,
    workloads: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
) -> ExperimentResult:
    """Speedup of lookup operations per integration scheme (Fig. 7)."""
    schemes = schemes or SCHEME_ORDER
    result = ExperimentResult(
        "Fig. 7",
        "ROI query speedup over software baseline",
        ["workload"] + list(schemes),
        notes=[
            "paper: ~8x average, up to 12.7x (CHA-TLB) / 10.4x (Core-integrated);"
            " device schemes trail, worst for short hash-table queries",
        ],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        row = {"workload": name}
        for scheme in schemes:
            baseline, qei, _, _ = _pair_stats(name, scheme, quick)
            row[scheme] = baseline.cycles / qei.cycles
        result.add_row(**row)
    return result


# --------------------------------------------------------------------- #
# Fig. 8 — Device-indirect latency sensitivity
# --------------------------------------------------------------------- #


def fig8_latency_sweep(
    *,
    quick: bool = True,
    workloads: Optional[List[str]] = None,
) -> ExperimentResult:
    """Sweep the device interface's data-access latency, 50..2000 cycles."""
    names = workloads or ["dpdk", "jvm", "rocksdb"]
    result = ExperimentResult(
        "Fig. 8",
        "Device-indirect speedup vs interface data-access latency",
        ["latency_cycles"] + list(names),
        notes=["paper: non-trivial performance drop as latency grows"],
    )
    # Every latency config restores the default config's image (the
    # latency does not change what a build populates).  The interface
    # latency is read only on the QEI side (core/integration.py), so each
    # workload's baseline runs once, on the first latency's system, and
    # serves every row.
    baselines: Dict[str, RoiRun] = {}
    for latency in FIG8_LATENCIES:
        overrides = dict(DEFAULT_SCHEME_LATENCIES)
        overrides[IntegrationScheme.DEVICE_INDIRECT] = SchemeLatencyConfig(
            300, latency
        )
        config = SystemConfig(scheme_latencies=overrides)
        row = {"latency_cycles": latency}
        for name in names:
            params = workload_params(name, quick)
            if name not in baselines:
                sys_b, wl_b = snapshot.build(name, params, "device-indirect", config)
                baselines[name] = run_baseline(sys_b, wl_b)
            sys_q, wl_q = snapshot.build(name, params, "device-indirect", config)
            qei = run_qei(sys_q, wl_q)
            row[name] = baselines[name].cycles / qei.cycles
        result.add_row(**row)
    return result


# --------------------------------------------------------------------- #
# Fig. 9 — end-to-end throughput improvement
# --------------------------------------------------------------------- #


def fig9_end_to_end(
    *,
    quick: bool = True,
    workloads: Optional[List[str]] = None,
    scheme: str = "core-integrated",
) -> ExperimentResult:
    """Whole-application queries/packets per second improvement (Fig. 9)."""
    result = ExperimentResult(
        "Fig. 9",
        "end-to-end throughput improvement (full application loop)",
        ["workload", "baseline_cycles", "qei_cycles", "improvement_pct"],
        notes=["paper: +36.2% to +66.7%"],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        params = workload_params(name, quick)
        sys_b, wl_b = snapshot.build(name, params, scheme)
        baseline = run_baseline(sys_b, wl_b, app=True)
        sys_q, wl_q = snapshot.build(name, params, scheme)
        qei = run_qei(sys_q, wl_q, app=True)
        improvement = 100.0 * (baseline.cycles / qei.cycles - 1.0)
        result.add_row(
            workload=name,
            baseline_cycles=baseline.cycles,
            qei_cycles=qei.cycles,
            improvement_pct=improvement,
        )
    return result


# --------------------------------------------------------------------- #
# Fig. 10 — tuple-space search with QUERY_NB
# --------------------------------------------------------------------- #


def fig10_tuple_space(
    *,
    quick: bool = True,
    schemes: Optional[List[str]] = None,
) -> ExperimentResult:
    """Non-blocking tuple-space search, 5/10/15 tuples (Fig. 10)."""
    schemes = schemes or SCHEME_ORDER
    result = ExperimentResult(
        "Fig. 10",
        "tuple-space search speedup with QUERY_NB (poll every 32 packets)",
        ["tuples"] + list(schemes),
        notes=[
            "paper: speedup grows with tuple count; device schemes close the"
            " gap under batched non-blocking queries",
        ],
    )
    packets = 24 if quick else 48
    flows = 256 if quick else 512
    for tuples in FIG10_TUPLE_COUNTS:
        row = {"tuples": tuples}
        params = dict(
            num_tuples=tuples, flows_per_tuple=flows,
            num_packets=packets, num_buckets=256,
        )
        for scheme in schemes:
            sys_b, wl_b = snapshot.build(TupleSpaceWorkload, params, scheme)
            baseline = run_baseline(sys_b, wl_b)
            sys_q, wl_q = snapshot.build(TupleSpaceWorkload, params, scheme)
            qei = run_qei(
                sys_q, wl_q, non_blocking=True, poll_every=wl_q.nb_poll_every()
            )
            row[scheme] = baseline.cycles / qei.cycles
        result.add_row(**row)
    return result


# --------------------------------------------------------------------- #
# Fig. 11 — dynamic instruction count reduction
# --------------------------------------------------------------------- #


def fig11_instruction_count(
    *, quick: bool = True, workloads: Optional[List[str]] = None
) -> ExperimentResult:
    """Dynamic instructions executed by the core in the ROI (Fig. 11)."""
    result = ExperimentResult(
        "Fig. 11",
        "core dynamic instructions in ROI: baseline vs QEI",
        ["workload", "baseline_instructions", "qei_instructions", "reduction_pct"],
        notes=["paper: a significant share of ROI instructions is eliminated"],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        baseline, qei, _, _ = _pair_stats(name, "core-integrated", quick)
        reduction = 100.0 * (1 - qei.instructions / baseline.instructions)
        result.add_row(
            workload=name,
            baseline_instructions=baseline.instructions,
            qei_instructions=qei.instructions,
            reduction_pct=reduction,
        )
    return result


# --------------------------------------------------------------------- #
# Fig. 12 — dynamic power per query
# --------------------------------------------------------------------- #


def fig12_dynamic_power(
    *,
    quick: bool = True,
    workloads: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
) -> ExperimentResult:
    """QEI dynamic consumption per query relative to software (Fig. 12)."""
    schemes = schemes or SCHEME_ORDER
    model = DynamicEnergyModel()
    result = ExperimentResult(
        "Fig. 12",
        "relative dynamic power per query (QEI / software baseline, %)",
        ["workload"] + list(schemes),
        notes=["paper: accelerators cut more than 60% of dynamic power"],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        row = {"workload": name}
        for scheme in schemes:
            baseline, qei, delta_b, delta = _pair_stats(name, scheme, quick)
            ratio = model.relative_dynamic_power(
                baseline.core_result,
                delta_b,
                baseline.queries,
                qei.core_result,
                delta,
                qei.queries,
            )
            row[scheme] = 100.0 * ratio
        result.add_row(**row)
    return result


# --------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------- #


def tab1_schemes() -> ExperimentResult:
    """Integration scheme comparison (Tab. I)."""
    config = SystemConfig()
    qualitative = {
        "cha-tlb": ("Low+TLB", "Dedicated", "No", "No", "Good"),
        "cha-notlb": ("Low", "Shared", "No", "No", "Good"),
        "device-direct": ("Medium/High", "Dedicated", "Yes", "No", "Medium"),
        "device-indirect": ("Medium/High", "Dedicated", "Yes", "No", "Medium"),
        "core-integrated": ("Low", "Shared", "No", "No", "Good"),
    }
    result = ExperimentResult(
        "Tab. I",
        "integration scheme comparison",
        [
            "scheme",
            "accel_core_rtt",
            "accel_data_extra",
            "hw_cost",
            "mem_mgmt",
            "noc_hotspot",
            "private_pollution",
            "scalability",
        ],
    )
    for scheme in SCHEME_ORDER:
        latency = config.scheme_latency(scheme)
        cost, mem, hotspot, pollution, scale = qualitative[scheme]
        result.add_row(
            scheme=scheme,
            accel_core_rtt=latency.core_to_accel,
            accel_data_extra=latency.accel_to_data,
            hw_cost=cost,
            mem_mgmt=mem,
            noc_hotspot=hotspot,
            private_pollution=pollution,
            scalability=scale,
        )
    return result


def tab2_config() -> ExperimentResult:
    """Simulated CPU model configuration (Tab. II)."""
    config = SystemConfig()
    core = config.core
    result = ExperimentResult(
        "Tab. II",
        "simulated CPU model configuration",
        ["item", "configuration"],
    )
    result.add_row(item="cores", configuration=f"{config.num_cores} OoO @ {core.frequency_ghz} GHz")
    result.add_row(
        item="caches",
        configuration=(
            f"{core.l1d.associativity}-way {core.l1d.size_bytes // 1024}KB L1D/L1I, "
            f"{core.l2.associativity}-way {core.l2.size_bytes // 1024 // 1024}MB L2, "
            f"{config.llc.associativity}-way "
            f"{config.llc.total_size_bytes // 1024 // 1024}MB LLC "
            f"({config.llc.slices} slices)"
        ),
    )
    result.add_row(
        item="LQ/SQ/ROB",
        configuration=f"{core.load_queue_entries}/{core.store_queue_entries}/{core.rob_entries}",
    )
    result.add_row(
        item="memory",
        configuration=(
            f"{config.dram.channels} channels, "
            f"{config.dram.bandwidth_gbps_per_channel} GB/s each"
        ),
    )
    result.add_row(
        item="QEI",
        configuration=(
            f"{config.qei.alus_per_dpu} ALUs/DPU, "
            f"{config.qei.comparators_per_cha} comparators/CHA, "
            f"{config.qei.comparators_per_device_dpu} comparators/device DPU, "
            f"{config.qei.qst_entries}-entry QST"
        ),
    )
    result.add_row(
        item="NoC",
        configuration=f"{config.noc.width}x{config.noc.height} mesh",
    )
    result.add_row(item="process", configuration=f"{config.process_technology_nm}nm")
    return result


def tab3_area_power() -> ExperimentResult:
    """Area and static power of the three QEI configurations (Tab. III)."""
    paper = {
        "QEI-10": (0.1752, 10.8984),
        "QEI-10+TLB": (0.5730, 30.9049),
        "QEI-240": (1.0901, 20.8764),
    }
    result = ExperimentResult(
        "Tab. III",
        "QEI area and static power (model vs paper)",
        [
            "configuration",
            "area_mm2",
            "paper_area_mm2",
            "static_mw",
            "paper_static_mw",
        ],
    )
    for config in tab3_configurations():
        paper_area, paper_power = paper[config.name]
        result.add_row(
            configuration=config.name,
            area_mm2=config.area_mm2,
            paper_area_mm2=paper_area,
            static_mw=config.static_power_mw,
            paper_static_mw=paper_power,
        )
    return result
