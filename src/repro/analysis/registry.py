"""The experiment registry: name -> driver, plus the sharding policy.

Lives here (not in ``__main__``) so the parallel runner and the result cache
can resolve drivers by name inside worker processes without importing the
CLI module.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..faults.chaos import (
    chaos_experiment,
    cluster_chaos_experiment,
    recovery_chaos_experiment,
)
from ..serve import serve_experiment
from .ablations import (
    batch_size_sweep,
    comparator_placement,
    flush_cost_study,
    huge_page_study,
    micro_tlb_ablation,
    noc_hotspot_study,
    prefetch_sensitivity,
    qst_size_sweep,
)
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
)
from .fault_campaign import fault_campaign
from .interference import corun_interference
from .scalability import scalability_study

EXPERIMENTS: Dict[str, Callable] = {
    "fig1": fig1_profiling,
    "fig7": fig7_speedup,
    "fig8": fig8_latency_sweep,
    "fig9": fig9_end_to_end,
    "fig10": fig10_tuple_space,
    "fig11": fig11_instruction_count,
    "fig12": fig12_dynamic_power,
    "tab1": tab1_schemes,
    "tab2": tab2_config,
    "tab3": tab3_area_power,
    "ablation-qst": qst_size_sweep,
    "ablation-comparators": comparator_placement,
    "ablation-noc": noc_hotspot_study,
    "ablation-batch": batch_size_sweep,
    "ablation-microtlb": micro_tlb_ablation,
    "ablation-flush": flush_cost_study,
    "ablation-prefetch": prefetch_sensitivity,
    "ablation-hugepages": huge_page_study,
    "scalability": scalability_study,
    "interference": corun_interference,
    "fault-campaign": fault_campaign,
    "serve": serve_experiment,
    "chaos": chaos_experiment,
    "cluster-chaos": cluster_chaos_experiment,
    "recovery-chaos": recovery_chaos_experiment,
}

#: Experiments whose rows are one-per-workload: the parallel runner shards
#: them into one task per workload and re-merges rows in canonical order, so
#: sharded output is byte-identical to a serial run.
ROW_PER_WORKLOAD = {"fig1", "fig7", "fig9", "fig11", "fig12"}
