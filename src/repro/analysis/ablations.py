"""Ablation studies for QEI's design choices.

Four sweeps, each isolating one decision the paper argues for:

* :func:`qst_size_sweep` — why ten QST entries (Sec. VI-A: "a decent
  balance between performance and cost", 50%–90% occupancy).
* :func:`comparator_placement` — remote near-LLC comparators versus doing
  every comparison locally at the core-side DPU (Sec. V-A).
* :func:`noc_hotspot_study` — the centralized device's traffic hotspot and
  per-accelerator NoC bandwidth footprint (Sec. V: "each QEI accelerator
  can saturate as much as 8% of the mesh NoC bandwidth").
* :func:`batch_size_sweep` — blocking-query batch depth versus throughput
  (the List 2 software pattern's tuning knob).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..config import SystemConfig
from ..core.integration import CoreIntegratedScheme
from ..system import System
from ..workloads import run_baseline, run_qei
from . import snapshot
from .experiments import workload_params
from .report import ExperimentResult

#: Ablation A1's QST capacities.
QST_SIZES = (2, 4, 10, 20, 40)
#: Ablation A4's blocking-query batch depths.
BATCH_DEPTHS = (1, 2, 4, 8, 16)
#: Ablation A6's in-flight non-blocking query counts.
FLUSH_IN_FLIGHT = (0, 2, 5, 10)
#: Ablation A3's queries per core.
HOTSPOT_QUERIES_PER_CORE = 12


# --------------------------------------------------------------------- #


def qst_size_sweep(*, quick: bool = True) -> ExperimentResult:
    """Speedup and mean occupancy versus QST capacity."""
    workload = "dpdk"
    result = ExperimentResult(
        "Ablation A1",
        f"QST capacity sweep ({workload}, core-integrated)",
        ["qst_entries", "speedup", "mean_occupancy_pct"],
        notes=["paper picks 10 entries for 50-90% occupancy (Sec. VI-A)"],
    )
    base_config = SystemConfig()
    params = workload_params(workload, quick)
    sys_b, wl_b = snapshot.build(workload, params, "core-integrated", base_config)
    baseline = run_baseline(sys_b, wl_b)
    for entries in QST_SIZES:
        config = base_config.replace(
            qei=dataclasses.replace(base_config.qei, qst_entries=entries)
        )
        sys_q, wl_q = snapshot.build(workload, params, "core-integrated", config)
        qei = run_qei(sys_q, wl_q, batch=max(4, entries))
        result.add_row(
            qst_entries=entries,
            speedup=baseline.cycles / qei.cycles,
            mean_occupancy_pct=100 * sys_q.accelerator.qst.mean_occupancy(),
        )
    return result


def comparator_placement(*, quick: bool = True) -> ExperimentResult:
    """Remote (near-LLC) versus local comparisons for large keys.

    The paper distributes the data-intensive comparisons into the CHAs;
    this ablation forces every comparison through the core-side DPU
    (fetching the operand lines up to the L2) and measures the cost.
    """
    workload = "rocksdb"
    result = ExperimentResult(
        "Ablation A2",
        f"comparator placement ({workload}, core-integrated)",
        ["placement", "speedup", "mean_compare_latency", "l2_fills_per_query"],
        notes=[
            "remote near-LLC compares keep key lines out of the private"
            " caches; in this latency-only model the local path can look"
            " competitive on zero-load latency, but it drags every operand"
            " line into the L2 (the pollution the paper avoids, Sec. V-A)",
        ],
    )
    params = workload_params(workload, quick)
    sys_b, wl_b = snapshot.build(workload, params, "core-integrated")
    baseline = run_baseline(sys_b, wl_b)

    for placement, threshold in (("remote (paper)", 32), ("local-only", 1 << 30)):
        sys_q, wl_q = snapshot.build(workload, params, "core-integrated")
        assert isinstance(sys_q.integration, CoreIntegratedScheme)
        sys_q.integration.LOCAL_COMPARE_BYTES = threshold
        before = sys_q.stats.snapshot()
        qei = run_qei(sys_q, wl_q)
        delta = sys_q.stats.diff(before)
        l2_traffic = sum(
            v for k, v in delta.items()
            if k.startswith("core0.l2.") and k.endswith(("hits", "misses"))
        )
        result.add_row(
            placement=placement,
            speedup=baseline.cycles / qei.cycles,
            mean_compare_latency=sys_q.integration._cmp_latency.mean,
            l2_fills_per_query=l2_traffic / max(1, qei.queries),
        )
    return result


def noc_hotspot_study(*, quick: bool = True) -> ExperimentResult:
    """Peak-link utilisation when *every core* drives the accelerator.

    The paper's hotspot argument (Sec. V) is chip-wide: with 20+ cores all
    sending fine-grained requests, a centralized accelerator's single NoC
    stop concentrates traffic ("each QEI accelerator can saturate as much
    as 8% of the mesh NoC bandwidth"), while the distributed schemes spread
    it.  Here all 24 cores submit query streams concurrently (offered-load
    drive, bypassing the core pipeline models).
    """
    from repro.core.accelerator import QueryRequest
    from repro.datastructs import CuckooHashTable
    from repro.workloads.generator import make_keys

    result = ExperimentResult(
        "Ablation A3",
        "NoC hotspot under chip-wide drive (24 cores, hash-table queries)",
        ["scheme", "hotspot_link_pct", "mean_link_pct", "hotspot_over_mean"],
        notes=[
            "Sec. V: the centralized device's stop concentrates traffic;"
            " distributed placements spread it across the mesh",
        ],
    )
    for scheme in ("device-direct", "device-indirect", "cha-tlb", "core-integrated"):
        system = System(None, scheme)
        table = CuckooHashTable(system.mem, key_length=16, num_buckets=1024)
        keys = make_keys(512, 16, seed=2)
        for i, key in enumerate(keys):
            table.insert(key, i)
        system.warm_llc()
        system.noc.reset_traffic()
        handles = []
        for core in range(system.config.num_cores):
            for q in range(HOTSPOT_QUERIES_PER_CORE):
                key = keys[(core * HOTSPOT_QUERIES_PER_CORE + q) % len(keys)]
                handles.append(
                    system.accelerator.submit(
                        QueryRequest(
                            header_addr=table.header_addr,
                            key_addr=table.store_key(key),
                            core_id=core,
                        ),
                        q * 40,  # staggered offered load
                    )
                )
        done = max(system.accelerator.wait_for(h) for h in handles)
        window = max(1, done)
        hotspot = 100 * system.noc.hotspot_factor(window)
        mean = 100 * system.noc.mean_link_utilisation(window)
        result.add_row(
            scheme=scheme,
            hotspot_link_pct=hotspot,
            mean_link_pct=mean,
            hotspot_over_mean=hotspot / mean if mean else 0.0,
        )
    return result


def batch_size_sweep(*, quick: bool = True) -> ExperimentResult:
    """Blocking-query software batch depth versus achieved speedup."""
    workload = "jvm"
    result = ExperimentResult(
        "Ablation A4",
        f"QUERY_B batch-depth sweep ({workload}, core-integrated)",
        ["batch", "speedup"],
        notes=[
            "List 2: small batches maximize parallelism until the QST"
            " (10 entries) and ROB window saturate",
        ],
    )
    params = workload_params(workload, quick)
    sys_b, wl_b = snapshot.build(workload, params, "core-integrated")
    baseline = run_baseline(sys_b, wl_b)
    for batch in BATCH_DEPTHS:
        sys_q, wl_q = snapshot.build(workload, params, "core-integrated")
        qei = run_qei(sys_q, wl_q, batch=batch)
        result.add_row(batch=batch, speedup=baseline.cycles / qei.cycles)
    return result


def huge_page_study(*, quick: bool = True) -> ExperimentResult:
    """Does huge-page placement make dedicated accelerator TLBs redundant?

    HALO-style designs assume the whole structure sits inside huge pages,
    so translation is almost free; the paper argues this is fragile
    (fragmentation, no availability guarantee) and gives QEI real
    translation paths instead (Sec. II-B, Sec. V).  This study rebuilds
    the workload's heap inside 2MB huge pages and measures how much of the
    scheme gap that assumption erases.
    """
    workload = "dpdk"
    result = ExperimentResult(
        "Ablation A8",
        f"huge-page placement ({workload}): scheme speedups vs 4KB heaps",
        ["scheme", "speedup_4kb", "speedup_hugepages"],
        notes=[
            "with every structure inside 2MB pages, translation nearly"
            " vanishes and the TLB-less schemes catch up — the assumption"
            " the paper refuses to rely on",
        ],
    )

    params = workload_params(workload, quick)
    for scheme in ("cha-notlb", "cha-tlb", "core-integrated"):
        speedups = {}
        for huge in (False, True):
            sys_b, wl_b = snapshot.build(workload, params, scheme, huge_pages=huge)
            baseline = run_baseline(sys_b, wl_b)
            sys_q, wl_q = snapshot.build(workload, params, scheme, huge_pages=huge)
            qei = run_qei(sys_q, wl_q)
            speedups[huge] = baseline.cycles / qei.cycles
        result.add_row(
            scheme=scheme,
            speedup_4kb=speedups[False],
            speedup_hugepages=speedups[True],
        )
    return result


def prefetch_sensitivity(
    *, quick: bool = True, workloads: Optional[List[str]] = None
) -> ExperimentResult:
    """Does a next-line prefetcher rescue the software baseline?

    The paper's motivation (Sec. I) claims query access patterns "are not
    cache- or prefetch-friendly": pointer chases and hashed indices defeat
    spatial prefetching.  This ablation enables an L2 next-line prefetcher
    for the *software baseline* and re-measures QEI's speedup.
    """
    result = ExperimentResult(
        "Ablation A7",
        "QEI speedup vs software baseline with/without L2 next-line prefetch",
        ["workload", "speedup_no_prefetch", "speedup_with_prefetch", "baseline_gain_pct"],
        notes=[
            "Sec. I: query patterns defeat spatial prefetching — the"
            " prefetched baseline barely improves",
        ],
    )
    for name in workloads or ["dpdk", "jvm", "rocksdb"]:
        params = workload_params(name, quick)
        sys_plain, wl_plain = snapshot.build(name, params, "core-integrated")
        plain = run_baseline(sys_plain, wl_plain)

        sys_pf, wl_pf = snapshot.build(name, params, "core-integrated")
        sys_pf.hierarchy.next_line_prefetch = True
        prefetched = run_baseline(sys_pf, wl_pf)

        sys_q, wl_q = snapshot.build(name, params, "core-integrated")
        qei = run_qei(sys_q, wl_q)

        result.add_row(
            workload=name,
            speedup_no_prefetch=plain.cycles / qei.cycles,
            speedup_with_prefetch=prefetched.cycles / qei.cycles,
            baseline_gain_pct=100 * (plain.cycles / prefetched.cycles - 1),
        )
    return result


def flush_cost_study() -> ExperimentResult:
    """Interrupt-flush cost versus in-flight non-blocking queries.

    Sec. IV-D: on an interrupt, QEI writes an abort code to every
    non-blocking query's result address with non-temporal stores; "the
    flush is not instantaneous and can take a few cycles, depending on the
    number of non-blocking queries in the QST".
    """
    from repro.core.accelerator import QueryRequest
    from repro.datastructs import CuckooHashTable
    from repro.workloads.generator import make_keys

    result = ExperimentResult(
        "Ablation A6",
        "interrupt-flush latency vs in-flight non-blocking queries",
        ["nb_in_flight", "flush_cycles", "aborted"],
        notes=["Sec. IV-D: abort codes written per NB query before the flush ends"],
    )
    for count in FLUSH_IN_FLIGHT:
        system = System(None, "core-integrated")
        table = CuckooHashTable(system.mem, key_length=16, num_buckets=256)
        keys = make_keys(64, 16, seed=8)
        for i, key in enumerate(keys):
            table.insert(key, i)
        handles = []
        for i in range(count):
            result_addr = system.mem.alloc(16)
            handles.append(
                system.accelerator.submit(
                    QueryRequest(
                        header_addr=table.header_addr,
                        key_addr=table.store_key(keys[i]),
                        blocking=False,
                        result_addr=result_addr,
                    ),
                    system.engine.now,
                )
            )
        system.engine.advance(40)  # queries occupy the QST mid-flight
        start = system.engine.now
        finish = system.accelerator.flush()
        aborted = sum(1 for h in handles if h.status.value == "aborted")
        result.add_row(
            nb_in_flight=count,
            flush_cycles=finish - start,
            aborted=aborted,
        )
    return result


def micro_tlb_ablation(*, quick: bool = True) -> ExperimentResult:
    """Effect of the accelerator's per-home translation registers."""
    workload = "jvm"
    result = ExperimentResult(
        "Ablation A5",
        f"micro-TLB ablation ({workload}, core-integrated)",
        ["micro_tlb_entries", "speedup", "mean_mem_latency"],
        notes=["AGU translation registers absorb intra-query page reuse"],
    )
    params = workload_params(workload, quick)
    sys_b, wl_b = snapshot.build(workload, params, "core-integrated")
    baseline = run_baseline(sys_b, wl_b)
    for entries in (1, 4, 16):
        sys_q, wl_q = snapshot.build(workload, params, "core-integrated")
        sys_q.integration.MICRO_TLB_ENTRIES = entries
        qei = run_qei(sys_q, wl_q)
        result.add_row(
            micro_tlb_entries=entries,
            speedup=baseline.cycles / qei.cycles,
            mean_mem_latency=sys_q.integration._mem_latency.mean,
        )
    return result
