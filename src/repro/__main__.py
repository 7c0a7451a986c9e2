"""Command-line interface: ``python -m repro <experiment> [options]``.

Also installed as the ``qei`` console script.  Regenerates any paper
table/figure, ablation, or serving run from the shell::

    qei list
    qei fig7 --workloads dpdk jvm
    qei tab3
    qei ablation-qst --full
    qei serve --scheme cha-tlb --tenants 4 --requests 20000
    qei all --jobs 4            # shard experiments over worker processes
    qei all --no-cache          # ignore + skip the on-disk result cache
    qei all --no-snapshot       # rebuild workloads instead of reusing snapshots
    qei fig7 --profile fig7.prof  # cProfile the run, dump stats to fig7.prof
    qei perfbench --quick       # simulator throughput bench -> BENCH_sim.json

Results print as the same fixed-width tables the benchmark harness shows,
byte-identical whether computed serially, in parallel, or from cache.
Unknown experiment names exit with status 2 and a one-line hint.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from .analysis.parallel import plan_tasks, run_tasks
from .analysis.registry import (
    EXPERIMENTS,
    TAKES_CHAOS,
    TAKES_CLUSTER,
    TAKES_QUICK,
    TAKES_QUORUM,
    TAKES_SEEDED,
    TAKES_SERVE,
    TAKES_WORKLOADS,
)
from .analysis.rescache import ResultCache
from .config import IntegrationScheme

__all__ = ["EXPERIMENTS", "main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce QEI (HPCA 2021) tables, figures and ablations.",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id, 'list' to enumerate, 'all' to run everything, "
            "or 'perfbench' for the simulator throughput bench"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use full workload sizes (slower; default is the quick sizes)",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        metavar="NAME",
        help="restrict to these workloads (dpdk jvm rocksdb snort flann)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit results as JSON instead of tables",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for experiment sharding (default 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache (.repro_cache/)",
    )
    parser.add_argument(
        "--no-snapshot",
        action="store_true",
        help="disable warm-system snapshot reuse; rebuild every workload "
        "from scratch (also: QEI_NO_SNAPSHOT=1)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="wrap the run in cProfile and dump stats to PATH "
        "(inspect with 'python -m pstats PATH')",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache directory (default .repro_cache/, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="fault-campaign: RNG seed driving fault selection (default 7)",
    )
    parser.add_argument(
        "--faults",
        type=int,
        default=1000,
        help="fault-campaign: number of faults to inject (default 1000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="fault-campaign: determinism re-runs of the campaign (default 2)",
    )
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in IntegrationScheme],
        help="serve: run one integration scheme (default: all five)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="serve: tenant request streams (default 4)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        help="serve/chaos: total request budget across tenants (default: "
        "each experiment's own — 2000 for serve, 400 for the chaos drills)",
    )
    parser.add_argument(
        "--closed-loop",
        action="store_true",
        help="serve: fixed-concurrency clients instead of Poisson arrivals",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="perfbench: compare against this BENCH_sim.json and fail on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="perfbench: allowed fractional throughput regression (default 0.30)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_sim.json",
        help="perfbench: where to write the benchmark JSON (default BENCH_sim.json)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        help="cluster/recovery-chaos: simulated serving nodes in the fleet "
        "(default: 10 for cluster-chaos, 6 for recovery-chaos)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=2,
        help="cluster-chaos: replicas per key on the hash ring (default 2)",
    )
    parser.add_argument(
        "--quorum",
        type=int,
        default=2,
        help=(
            "recovery-chaos: replica acks (committing primary included) a "
            "write needs before its ok is released (default 2)"
        ),
    )
    return parser


def experiment_kwargs(name: str, args: argparse.Namespace) -> Dict:
    """The kwargs ``run`` passes to ``EXPERIMENTS[name]`` for these flags.

    ``--requests`` and ``--nodes`` are forwarded only when given, so each
    experiment keeps its own default sizes otherwise.
    """
    kwargs: Dict = {}
    if name in TAKES_QUICK:
        kwargs["quick"] = not args.full
    if name in TAKES_WORKLOADS and args.workloads:
        kwargs["workloads"] = args.workloads
    if name in TAKES_SEEDED:
        kwargs["seed"] = args.seed
        kwargs["faults"] = args.faults
        kwargs["repeats"] = args.repeats
    if name in TAKES_SERVE:
        kwargs["tenants"] = args.tenants
        kwargs["seed"] = args.seed
        kwargs["closed_loop"] = args.closed_loop
        if args.scheme:
            kwargs["schemes"] = [args.scheme]
    if name in TAKES_CHAOS:
        kwargs["tenants"] = args.tenants
        kwargs["seed"] = args.seed
        kwargs["repeats"] = args.repeats
        if args.scheme:
            kwargs["schemes"] = [args.scheme]
    if name in TAKES_CLUSTER:
        kwargs["tenants"] = args.tenants
        kwargs["seed"] = args.seed
        kwargs["repeats"] = args.repeats
        kwargs["replication"] = args.replication
        if args.nodes is not None:
            kwargs["nodes"] = args.nodes
        if args.scheme:
            kwargs["schemes"] = [args.scheme]
    if name in TAKES_QUORUM:
        kwargs["quorum"] = args.quorum
    if args.requests is not None and name in TAKES_SERVE | TAKES_CHAOS | TAKES_CLUSTER:
        kwargs["requests"] = args.requests
    return kwargs


def _emit(result, as_json: bool) -> None:
    if as_json:
        import json

        print(
            json.dumps(
                {
                    "experiment": result.experiment,
                    "title": result.title,
                    "rows": result.rows,
                    "notes": result.notes,
                },
                indent=2,
            )
        )
    else:
        print(result.format())
        print()


def run(names, args: argparse.Namespace) -> None:
    """Run ``names`` (sharded, parallel, cached as configured) and print."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    tasks = plan_tasks(names, {n: experiment_kwargs(n, args) for n in names})
    for result in run_tasks(tasks, jobs=max(1, args.jobs), cache=cache):
        _emit(result, args.json)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.no_snapshot:
        from .analysis import snapshot

        snapshot.set_enabled(False)
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return _dispatch(args)
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(f"profile written to {args.profile}", file=sys.stderr)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.experiment == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, driver in sorted(EXPERIMENTS.items()):
            doc = (driver.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<{width}}  {doc}")
        return 0
    if args.experiment == "perfbench":
        from .analysis.perfbench import perfbench_main

        return perfbench_main(
            quick=not args.full,
            output=args.output,
            baseline=args.baseline,
            threshold=args.threshold,
            as_json=args.json,
        )
    if args.experiment == "all":
        run(sorted(EXPERIMENTS), args)
        return 0
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            "run 'python -m repro list' to see the available experiments",
            file=sys.stderr,
        )
        return 2
    run([args.experiment], args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
