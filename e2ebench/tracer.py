"""Host-time spans around the public calls into each simulator layer.

The tracer wraps layer entry points from outside the program (module
functions, class methods, and the memory-hierarchy access entry points of
every ``MemoryHierarchy`` instance) and keeps everything in memory:

* a span per call for the coarse layers (name, start, end, parent span,
  op id), written out when the benchmark ends;
* per-layer self time: a span's duration minus the time its child spans
  cover, so nested layers are never counted twice;
* the calls' return values for the few probes the benchmark needs even
  with tracing off (fig7's ROI runs, cluster construction times).

Memory accesses run millions of times, so the ``mem`` layer records no
spans: it only adds its time and call count, and subtracts itself from the
enclosing span.  What the wrappers cost shows in ``trace.overhead_s``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    """Installs wrappers; ``full=False`` installs only the always-on probes."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.max_s: Dict[str, float] = defaultdict(float)
        #: layer -> return values (or durations) since the last ``take``.
        self.results: Dict[str, list] = defaultdict(list)
        self.op = 0
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []
        self._systems: list = []

    # -------------------------------------------------------------- #
    # Wrapper factories
    # -------------------------------------------------------------- #

    def _span(self, layer: str, fn, keep: Optional[str] = None):
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            frame = [len(tracer.spans), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            # The id is reserved before the call so children can name it.
            tracer.spans.append(None)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                tracer.self_s[layer] += elapsed - frame[1]
                tracer.calls[layer] += 1
                if elapsed > tracer.max_s[layer]:
                    tracer.max_s[layer] = elapsed
                tracer.spans[frame[0]] = (
                    frame[0], parent, layer, start, end, tracer.op
                )
            if keep == "result":
                tracer.results[layer].append(result)
            elif keep == "elapsed":
                tracer.results[layer].append(elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregate(self, layer: str, fn):
        """Span-less timing for per-access layers (no record per call)."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    # -------------------------------------------------------------- #
    # Installation
    # -------------------------------------------------------------- #

    def _patch(self, cls: type, attr: str, make) -> None:
        """Wrap a method defined on ``cls`` itself; absent ones are skipped."""
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, make(original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def _patch_function(self, original, make) -> None:
        """Replace a module-level function in every ``repro`` module
        that binds it (``from x import f`` copies the name)."""
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )

    def install(self, full: bool) -> None:
        import repro.analysis.snapshot as snapshot
        import repro.faults.history as history
        import repro.serve.driver as serve_driver
        import repro.workloads as workloads
        from repro.core.accelerator import QeiAccelerator
        from repro.mem.hierarchy import MemoryHierarchy
        from repro.serve.cluster import SimulatedCluster
        from repro.serve.server import QueryServer
        from repro.system import System

        span = self._span
        self._patch_function(
            workloads.run_baseline, lambda fn: span("cpu.run", fn, keep="result")
        )
        self._patch_function(
            workloads.run_qei, lambda fn: span("core.run", fn, keep="result")
        )
        self._patch(
            SimulatedCluster, "__init__",
            lambda fn: span("cluster.build", fn, keep="elapsed"),
        )
        if not full:
            return
        self._patch_function(
            workloads.make_workload, lambda fn: span("workloads.build", fn)
        )
        self._patch(
            snapshot.WorkloadSnapshot, "restore",
            lambda fn: span("snapshot.restore", fn),
        )
        self._patch_function(
            serve_driver.build_serving_system, lambda fn: span("serve.build", fn)
        )
        self._patch(QueryServer, "run", lambda fn: span("serve.run", fn))
        # ``drain`` is the accelerator's public drain; the CEE's own work
        # arrives as engine callbacks, so the batched ready-drain and the
        # submission entry points are wrapped too (whichever exist).
        for attr in ("drain", "_drain_ready", "_arrive", "submit", "submit_batch"):
            self._patch(QeiAccelerator, attr, lambda fn: span("core.cee", fn))
        self._patch(
            SimulatedCluster, "run", lambda fn: span("cluster.run", fn, keep="result")
        )
        for attr in ("drain", "drain_replication"):
            self._patch(SimulatedCluster, attr, lambda fn: span("cluster.run", fn))
        self._patch(
            history.HistoryRecorder, "check",
            lambda fn: span("faults.check", fn, keep="result"),
        )

        tracer = self

        def wrap_hierarchy(init):
            def __init__(hierarchy, *args, **kwargs):
                init(hierarchy, *args, **kwargs)
                for name in ("access_from_core", "access_from_slice", "warm_lines"):
                    setattr(
                        hierarchy, name,
                        tracer._aggregate("mem.access", getattr(hierarchy, name)),
                    )
            return __init__

        def register_system(init):
            def __init__(system, *args, **kwargs):
                init(system, *args, **kwargs)
                tracer._systems.append(system)
            return __init__

        self._patch(MemoryHierarchy, "__init__", wrap_hierarchy)
        self._patch(System, "__init__", register_system)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -------------------------------------------------------------- #
    # Reading
    # -------------------------------------------------------------- #

    def unwind(self) -> None:
        """Forget open spans after an exception interrupted their wrappers."""
        self._stack.clear()

    def take(self, layer: str) -> list:
        return self.results.pop(layer, [])

    def harvest(self, counters: Dict[str, float]) -> None:
        """Add every System built since the last harvest into ``counters``.

        Counters are summed by name; a registry or engine shared by
        several systems (a cluster's nodes share one engine) counts once.
        """
        registries = {id(s.stats): s.stats for s in self._systems}
        engines = {id(s.engine): s.engine for s in self._systems}
        for stats in registries.values():
            for name, value in stats.snapshot().items():
                if isinstance(value, (int, float)):
                    counters[name] = counters.get(name, 0) + value
        for engine in engines.values():
            counters["sim.events"] = (
                counters.get("sim.events", 0) + engine.events_processed
            )
        self._systems.clear()
