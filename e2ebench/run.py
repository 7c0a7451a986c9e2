"""End-to-end benchmark of the QEI reproduction's host cost.

Run from the repository root:

    python3 e2ebench/run.py --workload fig7-sweep --seed 7 --seconds 20 --trace 0

Workloads (see e2ebench/NOTES.md for why each was chosen):

* ``fig7-sweep`` — the paper's Fig. 7 at quick size, 5 workloads x 5
  schemes, one (workload, scheme) ROI pair per op;
* ``serve-mixed`` — the serving tier over all five schemes, 4 tenants,
  95/5 read/write, one client request per op;
* ``recovery-drill`` — the durability drill over a fixed seed range, one
  drill per op.

Every number is host time unless its name says ``sim``.  End-to-end times
are scaled to a reference machine speed by a yardstick sampled around every
op (the shared host drifts); per-layer times are raw host seconds.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer split from a traced pass plus the
tracing overhead.
``--record`` rewrites ``reference.json`` from the current program at the
default seed.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fail(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def check_environment() -> None:
    """Refuse switches that would change what is measured."""
    switches = sorted(k for k in os.environ if k.startswith("QEI_NO_"))
    if switches:
        fail(f"refusing to run with {', '.join(switches)} set")
    if "REPRO_CACHE_DIR" in os.environ:
        fail("refusing to run with REPRO_CACHE_DIR set (result cache must be off)")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no src/repro package under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        fail(f"imported repro from {repro.__file__}, not this checkout")


def provenance() -> Dict[str, object]:
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            try:
                return subprocess.run(
                    ["git", *args], cwd=ROOT, capture_output=True, text=True,
                    timeout=30,
                ).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                return ""

        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


#: Yardstick seconds on the reference machine (a 2-vCPU x86-64 VM,
#: Python 3.11.7).  Timings are scaled by ``YARDSTICK_REF_S / yardstick``.
YARDSTICK_REF_S = 0.075


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


def yardstick(steps: int = 60_000) -> float:
    """Seconds for a fixed miniature cache-and-event-queue model.

    It is plain Python independent of the program: heap events, small
    dict sets with LRU eviction, slotted objects, the same kinds of work
    the simulator does.  Sampled between ops, it tracks how fast the
    (shared, drifting) machine runs the simulator at that moment.  The
    collector is off while it runs; its garbage is acyclic and freed by
    reference counting, so it shifts no collection into the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        sets = [{} for _ in range(256)]
        heap: list = []
        x, now = 12345, 0
        for i in range(steps):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            tag = x % 20000
            ways = sets[tag & 255]
            line = ways.pop(tag, None)
            if line is None:
                if len(ways) >= 8:
                    del ways[next(iter(ways))]
                line = _Line(tag)
            ways[tag] = line
            line.dirty = not line.dirty
            heapq.heappush(heap, (now + (x & 63), i))
            if len(heap) > 64:
                now = heapq.heappop(heap)[0]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measurement:
    """Per-op timings and outcomes accumulated over passes.

    Every timing is kept raw (host seconds) and scaled to the reference
    machine speed by the mean of the yardstick samples taken just before
    and just after it.  The end-to-end metrics use the scaled times; the
    per-layer split stays in raw host seconds.
    """

    def __init__(self) -> None:
        self.yardsticks: List[float] = []
        self.setups: List[float] = []
        self.op_timed: Dict[str, List[float]] = {}
        self.op_raw: Dict[str, List[float]] = {}
        self.op_setup: Dict[str, List[float]] = {}
        self.ops_per_pass = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.passes = 0

    def _sample(self) -> float:
        self.yardsticks.append(yardstick())
        return self.yardsticks[-1]

    def _scale(self, before: float, after: float) -> float:
        return YARDSTICK_REF_S / ((before + after) / 2)

    def run_setup(self, workload) -> None:
        before = self._sample()
        seconds = workload.setup()
        self.setups.append(seconds * self._scale(before, self._sample()))

    def run_pass(self, workload, tracer, harvest=None) -> None:
        """One pass over the workload's ops, a yardstick between each."""
        workload.before_pass()
        count = 0
        before = self._sample()
        for op_id, op in workload.ops():
            tracer.op += 1
            workload.slowdown = before / YARDSTICK_REF_S
            result = op()
            if harvest is not None:
                harvest()
            after = self._sample()
            scale = self._scale(before, after)
            before = after
            timed = result.timed_s * scale if result.scaled_s is None else result.scaled_s
            self.op_timed.setdefault(op_id, []).append(timed)
            self.op_raw.setdefault(op_id, []).append(result.timed_s)
            self.op_setup.setdefault(op_id, []).append(result.setup_s * scale)
            self.attempted += result.count
            self.failed += result.failed
            self.problems += result.problems
            count += result.count
        self.ops_per_pass = count
        self.passes += 1

    def wall_s(self) -> float:
        """One pass at reference speed: the sum of each op's median."""
        return sum(statistics.median(v) for v in self.op_timed.values())

    def raw_wall_s(self) -> float:
        """One pass in raw host seconds (median per op)."""
        return sum(statistics.median(v) for v in self.op_raw.values())

    def setup_s(self) -> float:
        pre = statistics.median(self.setups) if self.setups else 0.0
        return pre + sum(statistics.median(v) for v in self.op_setup.values())


def measure(workload, tracer, seconds: float, setups: int, harvest=None) -> Measurement:
    """``setups`` set-ups, then whole passes until the next would overrun
    ``seconds`` (always at least one)."""
    m = Measurement()
    for _ in range(setups):
        m.run_setup(workload)
    started = time.perf_counter()
    last = 0.0
    while m.passes == 0 or (time.perf_counter() - started) + last <= seconds:
        begin = time.perf_counter()
        m.run_pass(workload, tracer, harvest)
        last = time.perf_counter() - begin
    return m


def end_to_end(m: Measurement) -> Dict[str, float]:
    wall = m.wall_s()
    return {
        "wall_s": wall,
        "ops_per_s": m.ops_per_pass / wall,
        "setup_s": m.setup_s(),
        "peak_rss_mb": peak_rss_mb(),
    }


def _sum(counters: Dict[str, float], pattern: str) -> float:
    rx = re.compile(pattern)
    return sum(v for k, v in counters.items() if rx.search(k))


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, counters, workload, traced: Measurement, untraced: Measurement) -> Dict[str, float]:
    """Layer times are raw host seconds of the traced pass; the overhead
    compares the two passes at reference speed, so drift between them
    cancels."""
    import suite

    s, calls = tracer.self_s, tracer.calls
    queries = _sum(counters, r"(^|\.)qei\.queries\.(completed|faulted)$")
    steps = _sum(counters, r"(^|\.)qei\.cee\.steps$")
    core_s = s["core.run"] + s["core.cee"]
    l1 = [_sum(counters, rf"(^|\.)core\d+\.l1d\.{k}$") for k in ("hits", "misses")]
    llc = [_sum(counters, rf"(^|\.)llc\.slice\d+\.{k}$") for k in ("hits", "misses")]
    tlb = [_sum(counters, rf"tlb\d*\.{k}$") for k in ("hits", "misses")]
    events = counters.get("sim.events", 0)
    metrics = dict.fromkeys(suite.REPORT_METRICS, 0)
    metrics.update({
        "cpu.run_s": s["cpu.run"],
        "cpu.runs": calls["cpu.run"],
        "core.run_s": core_s,
        "core.queries": queries,
        "core.cee_steps": steps,
        "core.host_us_per_step": _frac(core_s * 1e6, steps),
        "core.fallback_frac": _frac(_sum(counters, r"(^|\.)fallback\.taken$"), queries),
        "mem.accesses": _sum(counters, r"(^|\.)mem\.accesses$"),
        "mem.l1_hit_frac": _frac(l1[0], sum(l1)),
        "mem.llc_hit_frac": _frac(llc[0], sum(llc)),
        "mem.dram_accesses": _sum(counters, r"(^|\.)mem\.dram_accesses$"),
        "mem.tlb_miss_frac": _frac(tlb[1], sum(tlb)),
        "mem.access_s": s["mem.access"],
        "noc.messages": _sum(counters, r"(^|\.)noc\.messages$"),
        "noc.bytes": _sum(counters, r"(^|\.)noc\.bytes$"),
        "sim.events": events,
        "sim.host_ns_per_event": _frac(untraced.raw_wall_s() * 1e9, events),
        "workloads.build_s": s["workloads.build"],
        "snapshot.restore_s": s["snapshot.restore"],
        "snapshot.restores": calls["snapshot.restore"],
        "serve.run_s": s["serve.run"],
        "cluster.run_s": s["cluster.run"],
        "faults.check_s": s["faults.check"],
        "faults.check_max_s": tracer.max_s["faults.check"],
        "faults.check_share": _frac(s["faults.check"], traced.raw_wall_s()),
        "trace.overhead_s": traced.wall_s() - untraced.wall_s(),
    })
    metrics.update(workload.layer_metrics())
    return metrics


#: Layer -> the tracer layers whose self time it owns.
LAYERS = {
    "cpu": ("cpu.run",),
    "core": ("core.run", "core.cee"),
    "mem": ("mem.access",),
    "snapshot": ("snapshot.restore",),
    "workloads": ("workloads.build",),
    "serve": ("serve.run", "serve.build"),
    "cluster": ("cluster.run", "cluster.build"),
    "faults": ("faults.check",),
}


def self_checks(workload_name: str, tracer) -> Dict[str, bool]:
    """Does the workload still stress the layers it was chosen for?"""
    times = {
        layer: sum(tracer.self_s[name] for name in names)
        for layer, names in LAYERS.items()
    }
    largest = max(times, key=times.get)
    if workload_name == "fig7-sweep":
        return {"cpu is the largest layer": largest == "cpu"}
    if workload_name == "recovery-drill":
        return {"faults is the largest layer": largest == "faults"}
    return {
        "cpu idle": times["cpu"] == 0.0,
        "faults idle": times["faults"] == 0.0,
        "serve/core/mem hold the largest layer": largest in ("serve", "core", "mem"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json at the default seed")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    units = {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    bad = [n for kind in units.values() for n in kind if not NAME.fullmatch(n)]
    if bad:
        fail(f"invalid metric names {bad}")
    check_environment()
    import suite
    from tracer import Tracer

    if args.workload not in suite.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(suite.WORKLOADS)}")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if args.record:
        return record(suite, Tracer)

    info = provenance()
    factory = suite.WORKLOADS[args.workload]
    probes = Tracer()
    probes.install(full=False)
    try:
        workload = factory(args.seed, probes, reference)
        if args.trace:
            # The same single pass untraced, then traced below: their
            # difference is the tracing overhead.
            m = measure(workload, probes, 0, min(1, workload.SETUP_REPEATS))
        else:
            m = measure(workload, probes, args.seconds, workload.SETUP_REPEATS)
    finally:
        probes.uninstall()
    metrics, extra = end_to_end(m), {}
    if args.trace:
        workload, traced, metrics, extra = traced_pass(factory, args, reference, m)
        metrics["host.calib_s"] = statistics.median(m.yardsticks)
        m.attempted += traced.attempted
        m.failed += traced.failed
        m.problems += traced.problems
    problems = m.problems + workload.verify()
    for problem in problems:
        print(f"e2ebench: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = extra.pop("spans", None)
    if spans is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(spans))
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "provenance": info,
        "passes": m.passes,
        "yardstick_s": m.yardsticks,
        "op_timed_s": m.op_timed,
        "op_raw_s": m.op_raw,
        "op_setup_s": m.op_setup,
        "setup_samples_s": m.setups,
        "outcomes": getattr(workload, "outcomes", {}),
        "problems": problems,
        "metrics": metrics,
        **extra,
    }, indent=1))
    print(
        f"e2ebench: {args.workload} seed={args.seed} passes={m.passes} "
        f"attempted={m.attempted} failed={m.failed} "
        f"yardstick={statistics.median(m.yardsticks):.4f}s "
        f"commit={info['commit']} dirty={info['dirty']} "
        f"detail={stem.relative_to(ROOT)}.json",
        file=sys.stderr,
    )
    wanted = units["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0


def traced_pass(factory, args, reference, untraced: Measurement):
    """One fully traced pass; returns the per-layer metrics and spans."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(full=True)
    counters: Dict[str, float] = {}
    try:
        workload = factory(args.seed, tracer, reference)
        traced = measure(
            workload, tracer, 0, min(1, workload.SETUP_REPEATS),
            harvest=lambda: tracer.harvest(counters),
        )
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, counters, workload, traced, untraced)
    checks = self_checks(args.workload, tracer)
    for check, ok in checks.items():
        if not ok:
            print(f"e2ebench: self-check failed: {check}", file=sys.stderr)
    extra = {
        "self_checks": checks,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "spans": {
            "fields": ["id", "parent", "layer", "start_s", "end_s", "op"],
            "spans": tracer.spans,
        },
    }
    return workload, traced, metrics, extra


def record(suite, Tracer) -> int:
    """Write the reference outputs at the default seed."""
    reference: Dict[str, object] = {}
    probes = Tracer()
    probes.install(full=False)
    try:
        fig7 = suite.Fig7Sweep(suite.DEFAULT_SEED, probes, {})
        fig7.setup()
        Measurement().run_pass(fig7, probes)
        reference.update(fig7.outputs)
        serve = suite.ServeMixed(suite.DEFAULT_SEED, probes, {})
        Measurement().run_pass(serve, probes)
        reference.update({f"serve/{k}": v for k, v in serve.outputs.items()})
    finally:
        probes.uninstall()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"e2ebench: wrote {REFERENCE.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
