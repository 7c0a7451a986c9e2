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

To profile a run, wrap it in the standard library's profiler::

    python -m cProfile -o fig7.prof -m repro fig7

Results print as the same fixed-width tables the benchmark harness shows,
byte-identical whether computed serially, in parallel, or from cache.
Unknown experiment names exit with status 2 and a one-line hint.

Each experiment receives exactly the options its driver's signature names
(:func:`experiment_kwargs`); there are no environment variables and no
run modes to set.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Dict

from .analysis.parallel import plan_tasks, run_tasks
from .analysis.registry import EXPERIMENTS
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
        help="experiment id, 'list' to enumerate, or 'all' to run everything",
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
        help="restrict every experiment that takes a workload list to these "
        "workloads (dpdk jvm rocksdb snort flann)",
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
        "--cache-dir",
        metavar="DIR",
        help="result cache directory (default .repro_cache/)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="fault-campaign/serve/chaos/cluster-chaos/recovery-chaos: RNG seed "
        "driving fault selection and load (default 7)",
    )
    parser.add_argument(
        "--seeds",
        type=_seed_range,
        metavar="A-B",
        help="recovery-chaos: soak seeds A..B instead, one line per seed "
        "(verdict, violating keys, peak per-key checker states); exits 1 "
        "if any seed fails its contract",
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
        help="fault-campaign/chaos/cluster-chaos/recovery-chaos: same-seed "
        "determinism re-runs (default 2)",
    )
    parser.add_argument(
        "--scheme",
        choices=[s.value for s in IntegrationScheme],
        help="run one integration scheme in every experiment that takes a "
        "scheme (default: each experiment's own — all five for the figures "
        "and serve, cha-tlb for the chaos verbs)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="serve/chaos/cluster-chaos/recovery-chaos: tenant request streams "
        "(default 4)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        help="serve/chaos/cluster-chaos/recovery-chaos: total request budget "
        "across tenants (default: "
        "each experiment's own — 2000 for serve, 400 for the chaos drills)",
    )
    parser.add_argument(
        "--closed-loop",
        action="store_true",
        help="serve: fixed-concurrency clients instead of Poisson arrivals",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        help="cluster-chaos/recovery-chaos: simulated serving nodes in the fleet "
        "(default: 10 for cluster-chaos, 6 for recovery-chaos)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=2,
        help="cluster-chaos/recovery-chaos: replicas per key on the hash ring "
        "(default 2)",
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


def _seed_range(text: str) -> range:
    """``A-B`` (or one seed ``A``) as the inclusive range of seeds."""
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def soak(args: argparse.Namespace) -> int:
    """``recovery-chaos --seeds A-B``: print each seed's durability verdict."""
    import json

    from .faults.chaos import recovery_soak

    # The single-seed verb's fleet and load kwargs; the soak supplies the
    # seeds and judges each seed once.
    shape = experiment_kwargs("recovery-chaos", args)
    del shape["seed"], shape["repeats"]
    (scheme,) = shape.pop("schemes", ["cha-tlb"])
    failed = []
    for row in recovery_soak(args.seeds, scheme, **shape):
        if row["problems"]:
            failed.append(row["seed"])
        if args.json:
            print(json.dumps(row), flush=True)
            continue
        detail = f" ({'; '.join(row['problems'])})" if row["problems"] else ""
        print(
            f"seed {row['seed']}: {'FAIL' if detail else 'ok'}, violating keys "
            f"{row['violations']}, peak key states {row['max_states']}{detail}",
            flush=True,
        )
    if not args.json:
        print(
            f"recovery-chaos soak: {len(args.seeds) - len(failed)}/"
            f"{len(args.seeds)} seeds passed; failed: {failed or 'none'}"
        )
    return 1 if failed else 0


def experiment_kwargs(name: str, args: argparse.Namespace) -> Dict:
    """The kwargs ``run`` passes to ``EXPERIMENTS[name]`` for these flags.

    Each value goes to the driver only when its signature has a parameter
    of that name.  ``--workloads``, ``--scheme``, ``--requests`` and
    ``--nodes`` are forwarded only when given, so each experiment keeps its
    own defaults otherwise.
    """
    scheme = args.scheme
    values = dict(
        quick=not args.full,
        workloads=args.workloads,
        scheme=scheme,
        schemes=[scheme] if scheme else None,
        seed=args.seed,
        faults=args.faults,
        repeats=args.repeats,
        tenants=args.tenants,
        requests=args.requests,
        closed_loop=args.closed_loop,
        nodes=args.nodes,
        replication=args.replication,
        quorum=args.quorum,
    )
    params = inspect.signature(EXPERIMENTS[name]).parameters
    return {k: v for k, v in values.items() if k in params and v is not None}


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seeds is not None and args.experiment != "recovery-chaos":
        parser.error("--seeds applies to recovery-chaos only")
    if args.experiment == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, driver in sorted(EXPERIMENTS.items()):
            doc = (driver.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<{width}}  {doc}")
        return 0
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
    if args.seeds is not None:
        return soak(args)
    run([args.experiment], args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
