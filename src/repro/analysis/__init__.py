"""Experiment drivers: one per paper figure/table.

Every driver returns an :class:`~repro.analysis.report.ExperimentResult`
whose ``format()`` prints the same rows/series the paper reports, and whose
structured ``rows`` back the shape assertions in ``benchmarks/``.
"""

from .experiments import (
    fig1_profiling,
    fig7_speedup,
    fig8_latency_sweep,
    fig9_end_to_end,
    fig10_tuple_space,
    fig11_instruction_count,
    fig12_dynamic_power,
    tab1_schemes,
    tab2_config,
    tab3_area_power,
    BENCH_WORKLOADS,
)
from .fault_campaign import CampaignViolation, fault_campaign
from .report import ExperimentResult

__all__ = [
    "BENCH_WORKLOADS",
    "CampaignViolation",
    "ExperimentResult",
    "fault_campaign",
    "fig1_profiling",
    "fig7_speedup",
    "fig8_latency_sweep",
    "fig9_end_to_end",
    "fig10_tuple_space",
    "fig11_instruction_count",
    "fig12_dynamic_power",
    "tab1_schemes",
    "tab2_config",
    "tab3_area_power",
]
