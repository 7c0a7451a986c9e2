"""Simulator throughput bench: ``python -m repro perfbench``.

Times the three layers the hot-path work targets and writes the numbers to
``BENCH_sim.json`` so CI can catch performance regressions:

* **engine** — raw event throughput (events/sec) of self-rescheduling
  callbacks through :class:`~repro.sim.engine.Engine`;
* **queries** — simulated QEI queries/sec per integration scheme over the
  ROI only (the dpdk run, the fig7 inner loop), with system build/populate
  time reported separately as ``setup_seconds`` (schema 2; schema 1
  conflated the two into one number);
* **serve** — simulated requests/sec through the multi-tenant serving
  tier on the cha-tlb scheme;
* **cluster** — simulated requests/sec through the replicated multi-node
  tier (ring routing + membership probing + LB failover, schema 3);
* **writes** — simulated accelerated mutations/sec through the write-CFA
  path (seqlock acquire, in-place store, version bump; schema 4);
* **mixed** — simulated requests/sec through the serving tier under
  read/write service mixes (95/5 and 50/50, schema 4);
* **cee** — CEE steps/sec through a pure accelerator drain (schema 6;
  reported under the ``on`` key, the only CEE driver since schema 8).
* **mem** — memory-hierarchy accesses/sec and warm_lines lines/sec with
  the epoch-memoized fast path on vs off (schema 7): a hot line-reuse
  stream through :class:`~repro.mem.hierarchy.MemoryHierarchy`, so the
  pair isolates what the memo layer saves per timed access.

``--baseline PATH`` compares each throughput metric against a previously
committed ``BENCH_sim.json`` and exits non-zero when any drops by more than
``--threshold`` (default 30%), which keeps the check robust to CI machine
jitter while still catching algorithmic regressions.  The gate only ever
compares metrics both payloads share with unchanged semantics, so a
baseline from an older schema keeps gating the fields it understands while
the new fields ride along ungated until the baseline is refreshed.
Wall-time fields are informational and never gated.  Without ``--full``
(i.e. quick mode) the expensive ``python -m repro all`` wall-clock
measurement is skipped and the committed baseline's value is carried
forward.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

SCHEMA_VERSION = 8

#: Simulated clock for converting cycle counts to seconds (config.py).
_FREQUENCY_HZ = 2.5e9

#: Serving-tier write mixes benched for ``mixed_requests_per_sec``:
#: label -> per-tenant write ratio (95/5 means 5% writes).
MIXED_WORKLOADS = (("95/5", 0.05), ("50/50", 0.50))

#: Self-rescheduling event chains for the engine microbench.
ENGINE_CHAINS = 8
#: Measurement repetitions per throughput metric.  Every metric reports its
#: best (least-interfered) round, so a noisy neighbour on a shared CI
#: runner slows a round, not the reported number.  Bench sizes are the same
#: on both tiers — quick-vs-full only gates the `repro all` wall timing —
#: so CI's quick run is directly comparable to the committed baseline.
ROUNDS = 3


def _best_of(rounds: int, measure) -> float:
    return max(measure() for _ in range(rounds))


def bench_engine(events: int = 100_000) -> float:
    """Events/sec through the slotted engine core (schedule + dispatch)."""
    from ..sim.engine import Engine

    def one_round() -> float:
        engine = Engine()
        remaining = [events]

        def tick() -> None:
            left = remaining[0] - 1
            remaining[0] = left
            if left >= ENGINE_CHAINS:
                engine.schedule(1, tick)

        for _ in range(ENGINE_CHAINS):
            engine.schedule(1, tick)
        start = time.perf_counter()
        engine.drain()
        elapsed = time.perf_counter() - start
        return events / elapsed if elapsed > 0 else 0.0

    return _best_of(ROUNDS, one_round)


def bench_queries(workload: str = "dpdk") -> Tuple[Dict[str, float], Dict[str, float]]:
    """ROI queries/sec and setup seconds per scheme: the fig7 inner loop.

    Build/populate (setup) and the ROI run are timed separately —
    ``queries_per_sec`` is ROI-only, so it measures the simulator's hot
    path rather than dataset population.  Setup reports the best (min)
    round; with warm-system snapshots enabled, rounds after the first
    restore from the captured template, so the minimum reflects the cost a
    sweep actually pays per task.
    """
    from ..workloads.base import run_qei
    from .experiments import SCHEME_ORDER, _build

    rates: Dict[str, float] = {}
    setups: Dict[str, float] = {}
    for scheme in SCHEME_ORDER:

        def one_round(scheme: str = scheme) -> Tuple[float, float]:
            start = time.perf_counter()
            system, wl = _build(workload, scheme, quick=True)
            built = time.perf_counter()
            run = run_qei(system, wl)
            elapsed = time.perf_counter() - built
            rate = run.queries / elapsed if elapsed > 0 else 0.0
            return rate, built - start

        rounds = [one_round() for _ in range(ROUNDS)]
        rates[scheme] = max(rate for rate, _ in rounds)
        setups[scheme] = min(setup for _, setup in rounds)
    return rates, setups


def bench_serve(requests: int = 1200) -> float:
    """Simulated requests/sec through the serving tier (cha-tlb)."""
    from ..serve import serve_experiment

    def one_round() -> float:
        start = time.perf_counter()
        serve_experiment(schemes=["cha-tlb"], tenants=2, requests=requests, seed=7)
        elapsed = time.perf_counter() - start
        return requests / elapsed if elapsed > 0 else 0.0

    return _best_of(ROUNDS, one_round)


def bench_cluster(requests: int = 400, nodes: int = 8) -> float:
    """Simulated requests/sec through the replicated cluster (cha-tlb).

    Fault-free (the chaos contract is tested elsewhere): this measures the
    fleet simulation hot path — ring lookups, link hops, membership
    probing and per-node serving — so regressions in the cluster tier's
    bookkeeping show up as a throughput drop.
    """
    from ..config import ClusterConfig
    from ..serve.cluster import SimulatedCluster

    config = ClusterConfig(
        nodes=nodes,
        replication=2,
        probe_interval_cycles=1_024,
        probe_timeout_cycles=256,
        request_timeout_cycles=8_192,
        timeout_embargo_cycles=2_048,
    )
    def one_round() -> float:
        cluster = SimulatedCluster(
            "cha-tlb", cluster_config=config, seed=7, requests=requests
        )
        start = time.perf_counter()
        cluster.run()
        elapsed = time.perf_counter() - start
        return requests / elapsed if elapsed > 0 else 0.0

    return _best_of(ROUNDS, one_round)


def bench_writes(writes: int = 1500) -> float:
    """Simulated accelerated mutations/sec (cha-tlb, dpdk hash table).

    Pure in-place UPDATEs over keys the table holds: every operation takes
    the full write-CFA path (header parse, seqlock CAS, key walk, one-slot
    commit, version-bump release) without growing the table, so the number
    isolates the mutation engine's hot path from capacity effects.  The
    system comes from the warm-snapshot restore path — a private deepcopy —
    so the mutations never leak into other benches.
    """
    from ..core.cfa import OP_UPDATE
    from .experiments import _build

    def one_round() -> float:
        system, wl = _build("dpdk", "cha-tlb", quick=True)
        system.enable_mutations()
        executor = system.mutations()
        mutator = wl.make_mutator()
        keys = [
            wl.key_for(i)
            for i in range(len(wl.queries))
            if wl.expected[i] is not None
        ]
        start = time.perf_counter()
        for i in range(writes):
            executor.run(mutator, OP_UPDATE, keys[i % len(keys)], 500_000_000 + i)
        elapsed = time.perf_counter() - start
        return writes / elapsed if elapsed > 0 else 0.0

    return _best_of(ROUNDS, one_round)


def bench_mixed(requests: int = 800) -> Dict[str, float]:
    """Simulated requests/sec per read/write mix through the serving tier.

    Same tier as :func:`bench_serve` (cha-tlb, two tenants) with a slice of
    the requests arriving as mutations, so the batcher's write routing, the
    shadow-oracle bookkeeping and the seqlock traffic are all on the
    measured path.
    """
    from ..serve.driver import run_serving

    rates: Dict[str, float] = {}
    for label, ratio in MIXED_WORKLOADS:

        def one_round(ratio: float = ratio) -> float:
            start = time.perf_counter()
            run_serving(
                "cha-tlb",
                tenants=2,
                requests=requests,
                seed=7,
                write_ratio=ratio,
            )
            elapsed = time.perf_counter() - start
            return requests / elapsed if elapsed > 0 else 0.0

        rates[label] = _best_of(ROUNDS, one_round)
    return rates


def bench_cee(queries: int = 4000, burst: int = 32) -> Dict[str, float]:
    """CEE steps/sec through a pure accelerator drain.

    Unlike :func:`bench_queries`, no CPU core trace runs: queries are
    submitted straight to the accelerator in bursts and the engine drains
    them, so the measured path is exactly the CEE driver — step dispatch,
    micro-op execution and ready-entry scheduling.  The rate is reported
    under the ``on`` key, the name schema 6 and 7 baselines gate it by.
    """
    from ..core.accelerator import QueryRequest
    from .experiments import _build

    def one_round() -> float:
        system, wl = _build("dpdk", "cha-tlb", quick=True)
        accel = system.accelerator
        engine = system.engine
        addrs = wl._query_addrs
        n = len(addrs)
        start = time.perf_counter()
        for base in range(0, queries, burst):
            for i in range(base, min(base + burst, queries)):
                accel.submit(
                    QueryRequest(
                        header_addr=wl.header_addr_for(i % n),
                        key_addr=addrs[i % n],
                    ),
                    engine.now,
                )
            engine.run()
        elapsed = time.perf_counter() - start
        return accel._steps.value / elapsed if elapsed > 0 else 0.0

    return {"on": _best_of(ROUNDS, one_round)}


def bench_mem(
    accesses: int = 50_000, lines: int = 64, warm_sweeps: int = 40
) -> Dict[str, Dict[str, float]]:
    """Hierarchy accesses/sec and warm_lines lines/sec, memo on vs off.

    A hot stream — ``lines`` distinct cache lines revisited round-robin per
    core, small enough to live in L1 — drives the end-to-end timed path
    (``access_from_core``: TLB walk skipped, L1/L2/LLC probe, stats).
    After the first sweep every access is an L1 hit, which is exactly the
    outcome the epoch memo replays, so the on/off pair isolates the memo
    layer's saving per access.  The warm leg times
    :meth:`~repro.mem.hierarchy.MemoryHierarchy.warm_lines` re-sweeping an
    already-resident line set, the dominant cost of snapshot-free system
    builds.  The two modes are built with ``fastmem=True`` and
    ``fastmem=False``.
    """
    from ..config import SystemConfig
    from ..mem.hierarchy import MemoryHierarchy
    from ..noc.mesh import MeshNoc

    config = SystemConfig()
    ncores = config.num_cores
    stream = [
        ((i // lines) % ncores, (i % lines) * 64)
        for i in range(accesses)
    ]
    warm_paddrs = [line * 64 for line in range(lines)]
    rates: Dict[str, Dict[str, float]] = {"access": {}, "warm": {}}
    for mode, fastmem in (("on", True), ("off", False)):

        def one_access_round(fastmem: bool = fastmem) -> float:
            hierarchy = MemoryHierarchy(
                config, noc=MeshNoc(config.noc), fastmem=fastmem
            )
            access = hierarchy.access_from_core
            start = time.perf_counter()
            for core, paddr in stream:
                access(core, paddr)
            elapsed = time.perf_counter() - start
            return accesses / elapsed if elapsed > 0 else 0.0

        def one_warm_round(fastmem: bool = fastmem) -> float:
            hierarchy = MemoryHierarchy(
                config, noc=MeshNoc(config.noc), fastmem=fastmem
            )
            hierarchy.warm_lines(0, warm_paddrs)  # first sweep: fills
            start = time.perf_counter()
            for _ in range(warm_sweeps):
                hierarchy.warm_lines(0, warm_paddrs)
            elapsed = time.perf_counter() - start
            total = warm_sweeps * len(warm_paddrs)
            return total / elapsed if elapsed > 0 else 0.0

        rates["access"][mode] = _best_of(ROUNDS, one_access_round)
        rates["warm"][mode] = _best_of(ROUNDS, one_warm_round)
    return rates


def bench_recovery(requests: int = 200, nodes: int = 4) -> Dict[str, float]:
    """Durability metrics off one recovery-chaos run (simulated time).

    Unlike the throughput benches these are *simulated*-time numbers —
    deterministic per seed, independent of host speed — so they are
    informational (reported, never gated by :func:`compare`):

    * ``recovery_seconds`` — worst kill→caught-up span across the
      schedule's two node kills, in simulated seconds at 2.5 GHz;
    * ``replication_lag_p99`` — p99 commit→replica-apply lag over every
      shipped record, in simulated seconds.
    """
    from ..faults.chaos import run_recovery_chaos

    report = run_recovery_chaos(
        "cha-tlb", seed=7, requests=requests, nodes=nodes
    )
    fleet = report.cluster["fleet"]
    recoveries = fleet.get("recoveries") or []
    lag_p99 = (fleet.get("replication") or {}).get("lag_p99", 0)
    worst = max((r["cycles"] for r in recoveries), default=0)
    return {
        "recovery_seconds": worst / _FREQUENCY_HZ,
        "replication_lag_p99": lag_p99 / _FREQUENCY_HZ,
    }


def bench_repro_all() -> float:
    """Wall-clock seconds of a serial, uncached ``python -m repro all``."""
    from . import snapshot

    src = str(Path(__file__).resolve().parents[2])
    env = {"PYTHONPATH": src, "PATH": "/usr/bin:/bin:/usr/local/bin"}
    if not snapshot.enabled():
        env["QEI_NO_SNAPSHOT"] = "1"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "all", "--no-cache"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=True,
    )
    return time.perf_counter() - start


def run_bench(quick: bool = True) -> Dict:
    """Run every bench tier and return the BENCH_sim.json payload."""
    from . import snapshot
    from .rescache import code_fingerprint

    rates, setups = bench_queries()
    payload: Dict = {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "snapshot": snapshot.enabled(),
        "code": code_fingerprint(),
        "engine_events_per_sec": bench_engine(),
        "cee_steps_per_sec": bench_cee(),
        "mem": bench_mem(),
        "queries_per_sec": rates,
        "setup_seconds": setups,
        "serve_requests_per_sec": bench_serve(),
        "cluster_requests_per_sec": bench_cluster(),
        "writes_per_sec": bench_writes(),
        "mixed_requests_per_sec": bench_mixed(),
        "recovery": bench_recovery(),
        "repro_all_wall_seconds": None,
    }
    if not quick:
        payload["repro_all_wall_seconds"] = bench_repro_all()
    return payload


def _throughput_metrics(payload: Dict) -> Dict[str, float]:
    """Flatten the gated (higher-is-better) metrics of a bench payload."""
    metrics = {"engine_events_per_sec": payload.get("engine_events_per_sec")}
    for mode, rate in (payload.get("cee_steps_per_sec") or {}).items():
        metrics[f"cee_steps_per_sec/{mode}"] = rate
    mem = payload.get("mem") or {}
    for mode, rate in (mem.get("access") or {}).items():
        metrics[f"mem_accesses_per_sec/{mode}"] = rate
    for mode, rate in (mem.get("warm") or {}).items():
        metrics[f"mem_warm_lines_per_sec/{mode}"] = rate
    for scheme, rate in (payload.get("queries_per_sec") or {}).items():
        metrics[f"queries_per_sec/{scheme}"] = rate
    metrics["serve_requests_per_sec"] = payload.get("serve_requests_per_sec")
    metrics["cluster_requests_per_sec"] = payload.get("cluster_requests_per_sec")
    metrics["writes_per_sec"] = payload.get("writes_per_sec")
    for label, rate in (payload.get("mixed_requests_per_sec") or {}).items():
        metrics[f"mixed_requests_per_sec/{label}"] = rate
    return {k: v for k, v in metrics.items() if isinstance(v, (int, float)) and v > 0}


def compare(current: Dict, baseline: Dict, threshold: float) -> Dict[str, Dict]:
    """Per-metric regression report; ``failed`` marks drops beyond threshold.

    Only like-for-like metrics are gated.  ``queries_per_sec`` changed
    meaning in schema 2 (ROI-only, was build+run conflated), so those
    per-scheme metrics are skipped unless both payloads speak schema >= 2;
    every later schema only *added* metrics (cluster in 3, writes and
    mixed-workload throughput in 4, the informational simulated-time
    durability block in 5, the per-mode ``cee_steps_per_sec`` pair and
    ``specialize`` provenance in 6, the per-mode ``mem`` access/warm pairs
    and ``fastmem`` provenance in 7), which the shared-metric intersection
    below already handles — a schema-3 baseline keeps gating engine, queries,
    serve and cluster throughput against a schema-5 run.  Schema 8 only
    removed fields: the ``specialize``/``fastmem`` provenance and the
    ``cee_steps_per_sec`` ``off`` leg (the CEE has one driver), so a
    schema-7 baseline keeps gating ``cee_steps_per_sec/on`` and the rest.
    The schema-5 ``recovery`` block (``recovery_seconds``,
    ``replication_lag_p99``) is deterministic simulated time, not host
    throughput, so it is deliberately absent from
    :func:`_throughput_metrics` and never gated.
    """
    report: Dict[str, Dict] = {}
    cur = _throughput_metrics(current)
    base = _throughput_metrics(baseline)
    schemas = (current.get("schema") or 0, baseline.get("schema") or 0)
    if min(schemas) < 2 and schemas[0] != schemas[1]:
        cur = {k: v for k, v in cur.items() if not k.startswith("queries_per_sec/")}
        base = {k: v for k, v in base.items() if not k.startswith("queries_per_sec/")}
    for name in sorted(set(cur) & set(base)):
        change = cur[name] / base[name] - 1.0
        report[name] = {
            "current": cur[name],
            "baseline": base[name],
            "change": change,
            "failed": change < -threshold,
        }
    return report


def perfbench_main(
    *,
    quick: bool = True,
    output: str = "BENCH_sim.json",
    baseline: Optional[str] = None,
    threshold: float = 0.30,
    as_json: bool = False,
) -> int:
    payload = run_bench(quick=quick)

    baseline_payload = None
    if baseline:
        try:
            baseline_payload = json.loads(Path(baseline).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"perfbench: cannot read baseline {baseline!r}: {exc}", file=sys.stderr)
            return 2
        if payload["repro_all_wall_seconds"] is None:
            payload["repro_all_wall_seconds"] = baseline_payload.get(
                "repro_all_wall_seconds"
            )

    Path(output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        mode = "quick" if quick else "full"
        snap = "snapshots on" if payload["snapshot"] else "snapshots off"
        print(f"== perfbench ({mode}, {snap}) -> {output} ==")
        print(f"engine:  {payload['engine_events_per_sec']:>12,.0f} events/sec")
        print(f"cee:     {payload['cee_steps_per_sec']['on']:>12,.0f} steps/sec")
        for mem_mode, rate in payload["mem"]["access"].items():
            print(f"mem:     {rate:>12,.0f} accesses/sec  [fastmem {mem_mode}]")
        for mem_mode, rate in payload["mem"]["warm"].items():
            print(f"warm:    {rate:>12,.0f} lines/sec  [fastmem {mem_mode}]")
        for scheme, rate in payload["queries_per_sec"].items():
            setup = payload["setup_seconds"][scheme]
            print(f"queries: {rate:>12,.1f} q/sec (ROI)  setup {setup:.3f}s  [{scheme}]")
        print(f"serve:   {payload['serve_requests_per_sec']:>12,.1f} req/sec")
        print(f"cluster: {payload['cluster_requests_per_sec']:>12,.1f} req/sec")
        print(f"writes:  {payload['writes_per_sec']:>12,.1f} mut/sec")
        for label, rate in payload["mixed_requests_per_sec"].items():
            print(f"mixed:   {rate:>12,.1f} req/sec  [{label}]")
        recovery = payload.get("recovery") or {}
        if recovery:
            print(
                "recovery: {:>11,.1f} us kill->caught-up, "
                "{:,.1f} us repl-lag p99 (simulated, informational)".format(
                    recovery["recovery_seconds"] * 1e6,
                    recovery["replication_lag_p99"] * 1e6,
                )
            )
        if payload["repro_all_wall_seconds"] is not None:
            print(f"repro all: {payload['repro_all_wall_seconds']:.1f} s wall")

    if baseline_payload is None:
        return 0

    report = compare(payload, baseline_payload, threshold)
    failed = False
    for name, row in report.items():
        mark = "FAIL" if row["failed"] else "ok"
        failed = failed or row["failed"]
        print(f"{mark:>4}  {name:<34} {row['change']:+7.1%} vs baseline")
    if failed:
        print(
            f"perfbench: regression beyond {threshold:.0%} threshold",
            file=sys.stderr,
        )
        return 1
    return 0
