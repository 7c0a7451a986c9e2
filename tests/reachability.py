"""Reachability probe and ledger: every function in ``src/repro`` earns a
caller, and every verb's output and each package's work stay where
``tests/ledger.json`` pins them.

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

The same run is measured into a ledger with two parts, which must equal
``tests/ledger.json`` exactly:

* ``digests``: the sha256 of each experiment's ``--json`` object as
  printed by ``repro all --json``, keyed by its ``experiment`` field
  (``Fig. 7``, ``serve``, ...), and of the soak's lines.  The object is
  hashed with its newline, so ``python -m repro tab1 --json --no-cache |
  sha256sum`` gives the ``Tab. I`` entry;
* ``calls``: Python ``call`` events per top-level ``src/repro`` package
  or module.  Code objects named ``<...>`` (comprehensions, lambdas,
  generator expressions, module bodies) are left out: Python 3.12 inlines
  comprehensions, and the counts must not depend on the interpreter.

Every moved, new or vanished entry prints one ``FAIL`` line (old -> new),
and the measured ledger is written to ``ledger.new.json`` in the working
directory.  To re-record, copy that file over ``tests/ledger.json`` and
name each moved entry in CHANGES.md.

The walk, the profiler hook, the aggregation and both checks are plain
functions, so ``tests/test_reachability.py`` exercises them on synthetic
data without running ``repro all`` (about 5 minutes under the profiler on
two vCPUs).
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import re
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
LEDGER = REPO_ROOT / "tests" / "ledger.json"
SOAK = ["recovery-chaos", "--seeds", "1-2"]

#: The closed set of reasons a function may stay without a caller.
REASONS = {
    "oracle": (
        "reached only from tests/: a reference path tests compare production "
        "against, or an accessor, reset or edge path they drive to check it"
    ),
    "benchmark": "called by e2ebench/ or benchmarks/",
    "paper": "a Sec. III query type kept with its firmware tests",
    "api": "a name an example or a docs/ page calls",
}


def _entries(reason: str, module: str, *names: str) -> Dict[str, str]:
    return {f"repro.{module}:{name}": reason for name in names}


#: Unreached functions, ``module:qualname`` -> one of :data:`REASONS`.
ALLOWLIST: Dict[str, str] = {
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
    **_entries("oracle", "cpu.trace", "Trace.__iter__", "TraceBuilder.__len__"),
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


def collect(run: Callable[[], None]) -> List[Tuple[CodeType, int]]:
    """Python ``call`` events per code object inside ``run``.

    Code objects are told apart by identity, and returned as pairs rather
    than as a dict: equal code in two files compares equal, and one must
    not stand in for the other.
    """
    table: Dict[int, list] = {}
    get = table.get

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entry = get(id(code))
            if entry is None:
                table[id(code)] = [code, 1]
            else:
                entry[1] += 1

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
    return [(code, count) for code, count in table.values()]


def reached(calls: List[Tuple[CodeType, int]]) -> Set[Tuple[str, int]]:
    """``(file, first line)`` of every code object that ran."""
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c, _ in calls}


def package_calls(calls: List[Tuple[CodeType, int]], root: Path) -> Dict[str, int]:
    """Calls per top-level package or module under ``root``, ``<...>`` code left out."""
    totals: Dict[str, int] = {}
    for code, count in calls:
        if code.co_name.startswith("<"):
            continue
        try:
            first = Path(code.co_filename).resolve().relative_to(root).parts[0]
        except ValueError:
            continue
        package = first.removesuffix(".py")
        totals[package] = totals.get(package, 0) + count
    return dict(sorted(totals.items()))


_SPACE = re.compile(r"\s*")


def digests(stream: str, soak: str) -> Dict[str, str]:
    """sha256 of each ``--json`` object in ``stream``, by experiment, and of the soak."""
    found = {}
    decoder = json.JSONDecoder()
    pos = _SPACE.match(stream).end()
    while pos < len(stream):
        result, end = decoder.raw_decode(stream, pos)
        found[result["experiment"]] = _sha256(stream[pos:end] + "\n")
        pos = _SPACE.match(stream, end).end()
    found[" ".join(SOAK)] = _sha256(soak)
    return dict(sorted(found.items()))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compare(pinned: Dict, measured: Dict) -> List[str]:
    """One line per ledger entry that moved, appeared or vanished."""
    moved = []
    for part in ("digests", "calls"):
        old, new = pinned.get(part, {}), measured[part]
        for key in sorted(set(old) | set(new)):
            before, after = old.get(key), new.get(key)
            if before == after:
                continue
            change = ""
            if isinstance(before, int) and isinstance(after, int) and before:
                change = f" ({(after - before) / before:+.1%})"
            moved.append(
                f"ledger {part}[{key}]: {_shown(before)} -> {_shown(after)}{change}"
            )
    return moved


def _shown(value) -> str:
    if value is None:
        return "(absent)"
    return f"{value:,}" if isinstance(value, int) else str(value)


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


def drive(cache_dir: Path) -> Dict[str, str]:
    """Everything a user runs: all verbs, cached and rendered, the soak, the examples.

    Returns the stdout of ``repro all --json`` (``stream``) and of the
    soak (``soak``), the two outputs the ledger digests.
    """
    from repro.__main__ import main

    outputs = []
    for argv in (
        ["all", "--json", "--cache-dir", str(cache_dir)],
        ["all", "--cache-dir", str(cache_dir)],
        SOAK,
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(argv)
        if status:
            raise SystemExit(f"repro {' '.join(argv)} exited {status}")
        outputs.append(out.getvalue())
    for example in EXAMPLES:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(example), run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise SystemExit(f"{example.name} exited {exc.code}") from None
    return {"stream": outputs[0], "soak": outputs[2]}


def _lines(locs: Iterable[Location]) -> int:
    return sum(last - first + 1 for _, first, last in locs)


def main() -> int:
    defs = functions(SRC_ROOT, "repro")
    outputs: Dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        calls = collect(lambda: outputs.update(drive(Path(tmp))))
    ran = reached(calls)
    missed = unreached(defs, ran)
    print(
        f"{len(defs)} functions ({_lines(defs.values())} lines) in src/repro; "
        f"{len(missed)} never ran ({_lines(missed.values())} lines)"
    )
    for reason in REASONS:
        names = [n for n, r in ALLOWLIST.items() if r == reason and n in missed]
        lines = _lines(missed[n] for n in names)
        print(f"  {reason:<9} {len(names):4d} functions {lines:5d} lines")
    measured = {
        "digests": digests(**outputs),
        "calls": package_calls(calls, SRC_ROOT / "repro"),
    }
    pinned = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    moved = compare(pinned, measured)
    print(
        f"ledger: {len(measured['digests'])} digests, "
        f"{sum(measured['calls'].values()):,} calls in "
        f"{len(measured['calls'])} packages; {len(moved)} entries moved"
    )
    errors = check(defs, ran, ALLOWLIST) + moved
    for error in errors:
        print(f"FAIL {error}")
    if moved:
        out = Path.cwd() / "ledger.new.json"
        out.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"measured ledger written to {out}; copy it over {LEDGER} to re-record")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
