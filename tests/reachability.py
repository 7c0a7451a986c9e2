"""Reachability probe: every function in ``src/repro`` earns a caller.

Run from the repository root::

    PYTHONPATH=src python tests/reachability.py    # exit 1 on failure

In one process, under ``sys.setprofile``, it drives the program the way a
user does:

* ``repro all --json --cache-dir D`` on a fresh directory ``D``, which
  computes every experiment and stores each result in the cache;
* ``repro all --cache-dir D``, which reads every result back and renders
  it as a table;
* ``repro recovery-chaos --seeds 1-2``, the seed-range soak;
* every script in ``examples/``.

It then walks ``src/repro`` with :mod:`ast`, counting module- and
class-level functions (a nested function belongs to its enclosing one),
and fails when

* a function never ran and is not on :data:`ALLOWLIST`;
* an allowlisted function ran (a stale entry: delete it);
* an allowlisted name no longer exists in ``src/``;
* an entry's reason is not one of :data:`REASONS`.

The walk, the profiler hook and the check are plain functions, so
``tests/test_reachability.py`` exercises them on a tiny synthetic package
without running ``repro all`` (about 6 minutes under the profiler on two
vCPUs).
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

#: The closed set of reasons a function may stay without a caller.
REASONS = {
    "oracle": (
        "reached only from tests/: a reference path tests compare production "
        "against, or an accessor, reset or edge path they drive to check it"
    ),
    "ci": "run only by a CI job",
    "benchmark": "called by e2ebench/ or benchmarks/",
    "paper": "a Sec. III query type kept with its firmware tests",
    "api": "a name an example or a docs/ page calls",
}


def _entries(reason: str, module: str, *names: str) -> Dict[str, str]:
    return {f"repro.{module}:{name}": reason for name in names}


#: Unreached functions, ``module:qualname`` -> one of :data:`REASONS`.
ALLOWLIST: Dict[str, str] = {
    # The simulator throughput gate, run by CI's perf-smoke job until a
    # work-count ledger replaces it (ROADMAP item 8).
    **_entries(
        "ci", "analysis.perfbench",
        "_best_of", "_throughput_metrics", "bench_cee", "bench_cluster",
        "bench_engine", "bench_mem", "bench_mixed", "bench_queries",
        "bench_recovery", "bench_repro_all", "bench_serve", "bench_writes",
        "compare", "perfbench_main", "run_bench",
    ),
    # benchmarks/ reads figure rows; e2ebench/ drives drills and serving and
    # its tracer wraps every hierarchy's ``warm_lines`` by getattr.
    **_entries(
        "benchmark", "analysis.report", "ExperimentResult.column", "ExperimentResult.row_for"
    ),
    **_entries("benchmark", "config", "ServeConfig.write_ratio_of"),
    **_entries("benchmark", "faults.chaos", "run_cluster_chaos", "run_recovery_chaos"),
    **_entries("benchmark", "mem.fastpath", "FastMem.warm_lines"),
    **_entries("benchmark", "mem.hierarchy", "MemoryHierarchy.warm_lines"),
    **_entries("benchmark", "serve.server", "QueryServer._submit_blocking"),
    # The program surface docs/firmware-guide.md writes against, and the
    # blocking write and resize drivers docs/mutations.md shows.
    **_entries("api", "core.cfa", "CfaProgram.after_parse", "CfaProgram.dispatch"),
    **_entries("api", "core.mutations", "MutationExecutor.run", "OnlineResizer.run_to_completion"),
    # Sec. III query types no workload builds: the linked list (the Fig. 3
    # automaton), the exact and longest-prefix-match tries, and the
    # hash-of-lists combined structure.
    **_entries("paper", "core.programs", "LinkedListCfa.after_parse", "LinkedListCfa.dispatch"),
    **_entries(
        "paper", "datastructs.linkedlist",
        "LinkedList.__init__", "LinkedList.__len__", "LinkedList.emit_lookup",
        "LinkedList.insert", "LinkedList.lookup", "LinkedList.nodes",
    ),
    **_entries(
        "paper", "datastructs.trie",
        "LpmTrie.emit_lookup_lpm", "LpmTrie.insert_prefix", "LpmTrie.lookup_lpm",
        "Trie._prepare_links", "Trie.emit_lookup", "Trie.lookup",
    ),
    **_entries("paper", "datastructs.hash_of_lists", "HashOfLists.emit_lookup"),
    # Reference paths: the unmemoized memory walk and the B+-tree's
    # functional lookup, which tests compare the fast paths and the CFA to.
    **_entries(
        "oracle", "mem.hierarchy",
        "MemoryHierarchy.access_from_core", "MemoryHierarchy.access_from_slice",
        "MemoryHierarchy.flush_all", "MemoryHierarchy.flush_private", "_manhattan_hops",
    ),
    **_entries(
        "oracle", "datastructs.btree",
        "BPlusTree.items", "BPlusTree.lookup", "BPlusTree.range_count",
    ),
    # Accessors, resets and cold-start helpers tests read or reset state with.
    **_entries("oracle", "analysis.rescache", "ResultCache.clear"),
    **_entries("oracle", "analysis.snapshot", "clear"),
    **_entries(
        "oracle", "core.accelerator",
        "QeiAccelerator.drain", "QeiAccelerator.in_flight", "QeiAccelerator.poll",
    ),
    **_entries("oracle", "core.dpu", "UnitPool.reset_timing"),
    **_entries(
        "oracle", "core.qst", "QueryStateTable.free_slots", "QueryStateTable.non_blocking_entries"
    ),
    **_entries("oracle", "cpu.core", "CoreResult.ipc"),
    **_entries(
        "oracle", "cpu.multicore",
        "MulticoreResult.aggregate_throughput", "MulticoreResult.makespan",
        "MulticoreResult.total_instructions",
    ),
    **_entries(
        "oracle", "cpu.trace", "Trace.__iter__", "TraceBuilder.__len__", "TraceBuilder.store"
    ),
    **_entries("oracle", "datastructs.bst", "BinarySearchTree.depth_of", "BinarySearchTree.items"),
    **_entries("oracle", "datastructs.hashtable", "CuckooHashTable.__len__"),
    **_entries("oracle", "datastructs.skiplist", "SkipList.__len__", "SkipList.items"),
    **_entries("oracle", "faults.chaos", "run_chaos", "run_mutation_chaos"),
    **_entries("oracle", "mem.allocator", "BumpArena.reset", "PageScatterAllocator.release_holes"),
    **_entries(
        "oracle", "mem.cache",
        "Cache.hit_rate", "Cache.hits", "Cache.invalidate", "Cache.misses", "Cache.occupancy",
    ),
    **_entries("oracle", "mem.dram", "Dram.channel_of", "Dram.reset_timing"),
    **_entries("oracle", "mem.mmu", "Mmu.flush", "Mmu.invalidate"),
    **_entries(
        "oracle", "mem.paging",
        "AddressSpace.read_u16", "AddressSpace.read_u32", "AddressSpace.write_u16",
        "AddressSpace.write_u32", "AddressSpace.write_u8",
    ),
    **_entries(
        "oracle", "mem.physical",
        "PhysicalMemory._backing", "PhysicalMemory._check_frame",
        "PhysicalMemory._check_range", "PhysicalMemory.frames_in_use",
        "PhysicalMemory.free_frame",
    ),
    **_entries("oracle", "mem.tlb", "Tlb.hits", "Tlb.misses", "Tlb.occupancy"),
    **_entries("oracle", "noc.mesh", "MeshNoc.link_utilisations"),
    **_entries("oracle", "power.mcpat", "Configuration.breakdown"),
    **_entries("oracle", "serve.cluster.cluster", "ClusterReport.dump"),
    **_entries("oracle", "serve.cluster.membership", "Membership.up_nodes"),
    **_entries("oracle", "serve.frontend", "Frontend.queue_depth_of"),
    **_entries("oracle", "serve.slo", "ServingReport.dump", "ServingReport.tenant"),
    **_entries("oracle", "sim.engine", "Engine.drain", "Engine.pending", "Engine.run_until"),
    **_entries(
        "oracle", "sim.stats",
        "Counter.reset", "Histogram.minimum", "Histogram.reset", "PercentileSketch.reset",
        "PercentileSketch.total", "StatsRegistry.items", "StatsRegistry.report",
        "StatsRegistry.reset",
    ),
    **_entries("oracle", "system", "System.flush_caches"),
    **_entries("oracle", "workloads.jvm", "JvmGcWorkload.mean_path_depth"),
    # Edge paths no verb at its default size reaches and tests drive: a
    # budget below the chaos triggers, admission give-ups and rejections,
    # damaged software fallbacks, a read-only page.
    **_entries("oracle", "errors", "ProtectionFault.__init__"),
    **_entries("oracle", "faults.chaos", "_Cluster.drain", "_Machine.drain"),
    **_entries("oracle", "faults.history", "HistoryRecorder.fail"),
    **_entries(
        "oracle", "serve.cluster.lb",
        "FleetSlo.record_failure", "FleetSlo.record_giveup", "LoadBalancer._backoff",
        "LoadBalancer._fail",
    ),
    **_entries(
        "oracle", "serve.cluster.node",
        "ClusterNode._admission_rejected", "_TenantPort.on_rejected",
    ),
    **_entries("oracle", "serve.loadgen", "OpenLoopGenerator.on_rejected"),
    **_entries(
        "oracle", "serve.slo",
        "SloTracker.record_error", "SloTracker.record_failure", "SloTracker.record_rejection",
    ),
}

#: A function's identity: ``module:qualname``.
Location = Tuple[str, int, int]  # (path, first line, last line)


def _defs(body: Iterable[ast.stmt], prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    """Module- and class-level function definitions, by qualname."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, prefix + node.name + ".")
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _defs(block, prefix)
            for handler in getattr(node, "handlers", []):
                yield from _defs(handler.body, prefix)


def functions(src_root: Path, package: str) -> Dict[str, Location]:
    """Every module- and class-level function under ``src_root/package``."""
    found: Dict[str, Location] = {}
    for path in sorted((src_root / package).rglob("*.py")):
        parts = list(path.relative_to(src_root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, node in _defs(tree.body, ""):
            # A decorated function's code object starts at its first decorator.
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[f"{module}:{qualname}"] = (str(path.resolve()), first, node.end_lineno)
    return found


def collect(run: Callable[[], None]) -> Set[Tuple[str, int]]:
    """``(file, first line)`` of every code object that ran inside ``run``."""
    codes = set()
    add = codes.add

    def hook(frame, event, arg):
        add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def unreached(defs: Dict[str, Location], ran: Set[Tuple[str, int]]) -> Dict[str, Location]:
    return {name: loc for name, loc in defs.items() if (loc[0], loc[1]) not in ran}


def check(
    defs: Dict[str, Location],
    ran: Set[Tuple[str, int]],
    allowlist: Dict[str, str],
) -> List[str]:
    """Every way the run and the allowlist disagree, one line each."""
    errors = []
    missed = unreached(defs, ran)
    for name, reason in sorted(allowlist.items()):
        if reason not in REASONS:
            errors.append(f"{name}: reason {reason!r} is not one of {sorted(REASONS)}")
        if name not in defs:
            errors.append(f"{name}: allowlisted but no longer defined")
        elif name not in missed:
            errors.append(f"{name}: allowlisted ({reason}) but it ran; delete the entry")
    for name, (path, first, last) in sorted(missed.items()):
        if name not in allowlist:
            errors.append(
                f"{name}: never ran ({last - first + 1} lines, {path}:{first}); "
                "give it a caller, move it to tests/, delete it, or allowlist it"
            )
    return errors


def drive(cache_dir: Path) -> None:
    """Everything a user runs: all verbs, cached and rendered, the soak, the examples."""
    from repro.__main__ import main

    for argv in (
        ["all", "--json", "--cache-dir", str(cache_dir)],
        ["all", "--cache-dir", str(cache_dir)],
        ["recovery-chaos", "--seeds", "1-2"],
    ):
        status = main(argv)
        if status:
            raise SystemExit(f"repro {' '.join(argv)} exited {status}")
    for example in EXAMPLES:
        try:
            runpy.run_path(str(example), run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise SystemExit(f"{example.name} exited {exc.code}") from None


def _lines(locs: Iterable[Location]) -> int:
    return sum(last - first + 1 for _, first, last in locs)


def main() -> int:
    defs = functions(SRC_ROOT, "repro")
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            ran = collect(lambda: drive(Path(tmp)))
    missed = unreached(defs, ran)
    print(
        f"{len(defs)} functions ({_lines(defs.values())} lines) in src/repro; "
        f"{len(missed)} never ran ({_lines(missed.values())} lines)"
    )
    for reason in REASONS:
        names = [n for n, r in ALLOWLIST.items() if r == reason and n in missed]
        lines = _lines(missed[n] for n in names)
        print(f"  {reason:<9} {len(names):4d} functions {lines:5d} lines")
    errors = check(defs, ran, ALLOWLIST)
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
