"""Statistics primitives: counters, histograms and a registry.

Every architectural component keeps its measurements in a
:class:`StatsRegistry` so experiment drivers can snapshot, diff, and report
without reaching into component internals.

Counter idiom (hot-path-approved forms, in order of increasing heat):

* ``counter.add()`` / ``counter.add(n)`` — the readable default for cold and
  warm paths (setup, control plane, per-query bookkeeping).
* ``counter.value += 1`` — the hot-path form: skips a method call on paths
  executed once per simulated micro-op (cache probes, CEE steps).
* plain-int pending accumulators flushed through :meth:`StatsRegistry.flush`
  — the batched form for the epoch-memoized fast paths (mem/fastpath.py,
  noc/mesh.py): the component counts into a local ``int`` and registers a
  flush hook that folds it into the real :class:`Counter`.  Every read-side
  entry point (:meth:`snapshot`, :meth:`reset`, :meth:`fraction`) flushes
  first, so observed values are always exact.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Tuple


class Counter:
    """A monotonically increasing (but resettable) event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """A value histogram that tracks count/sum/min/max plus percentiles."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        self._samples.append(value)

    def reset(self) -> None:
        self._samples.clear()

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self._samples) if self._samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; ``pct`` in [0, 100]."""
        if not self._samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        return ordered[rank - 1]


class PercentileSketch:
    """A mergeable log-bucketed quantile sketch (DDSketch/HDR style).

    :class:`Histogram` keeps every sample, which is fine for a few thousand
    ROI latencies but not for a serving tier recording one latency per
    request.  The sketch folds non-negative values into geometric buckets of
    relative width ``2 * relative_error``, so any quantile estimate ``q̂``
    satisfies ``|q̂ - q| <= q * relative_error / (1 - relative_error)``
    against the nearest-rank quantile ``q`` of the raw samples, in O(1)
    memory per decade of dynamic range.

    Merging two sketches adds their bucket counts, so merge is exact,
    commutative and associative — per-tenant sketches roll up into fleet
    aggregates without re-recording.
    """

    __slots__ = (
        "name",
        "relative_error",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_low_count",
        "_count",
        "_total",
        "_min",
        "_max",
    )

    DEFAULT_RELATIVE_ERROR = 0.01

    def __init__(
        self, name: str, relative_error: float = DEFAULT_RELATIVE_ERROR
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        self.name = name
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._low_count = 0  # exact zeros, which no log bucket can hold
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------ #

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"sketch values must be non-negative, got {value}")
        self._count += 1
        self._total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value == 0.0:
            self._low_count += 1
            return
        index = int(math.floor(math.log(value) / self._log_gamma))
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def reset(self) -> None:
        self._buckets.clear()
        self._low_count = 0
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------ #

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def quantile(self, pct: float) -> float:
        """Nearest-rank quantile estimate; ``pct`` in [0, 100]."""
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"quantile must be in [0, 100], got {pct}")
        if not self._count:
            return 0.0
        rank = max(1, math.ceil(pct / 100.0 * self._count))
        cumulative = self._low_count
        if rank <= cumulative:
            # The zero band only ever holds exact zeros.
            return 0.0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                representative = (
                    self._gamma ** index * (1.0 + self._gamma) / 2.0
                )
                return min(max(representative, self._min), self._max)
        return self._max  # float round-off guard; cannot be reached exactly

    @property
    def p50(self) -> float:
        return self.quantile(50.0)

    @property
    def p95(self) -> float:
        return self.quantile(95.0)

    @property
    def p99(self) -> float:
        return self.quantile(99.0)

    @property
    def p999(self) -> float:
        return self.quantile(99.9)

    # ------------------------------------------------------------------ #

    def merge(self, other: "PercentileSketch") -> "PercentileSketch":
        """Fold ``other``'s samples into this sketch (in place)."""
        if abs(other.relative_error - self.relative_error) > 1e-12:
            raise ValueError(
                "cannot merge sketches with different relative errors: "
                f"{self.relative_error} vs {other.relative_error}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self._low_count += other._low_count
        self._count += other._count
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def to_dict(self) -> Dict[str, object]:
        """Canonical (JSON-stable) serialization of the sketch state."""
        return {
            "count": self._count,
            "total": self._total,
            "min": self.minimum,
            "max": self.maximum,
            "low": self._low_count,
            "buckets": {str(i): self._buckets[i] for i in sorted(self._buckets)},
        }


class StatsRegistry:
    """Hierarchical named counters, histograms and percentile sketches.

    Names are dotted paths such as ``"l2.misses"`` or ``"qei.uops.compare"``.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sketches: Dict[str, PercentileSketch] = {}
        # Flush hooks fold batched plain-int accumulators (the fast paths'
        # pending counts) into real counters.  The list is shared by every
        # scoped() view, like the storage dicts, so a flush through any view
        # drains every producer wired to this registry tree.
        self._flush_hooks: List[Callable[[], None]] = []

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str) -> Counter:
        """Get (or lazily create) the counter with this name."""
        full = self._qualify(name)
        if full not in self._counters:
            self._counters[full] = Counter(full)
        return self._counters[full]

    def histogram(self, name: str) -> Histogram:
        """Get (or lazily create) the histogram with this name."""
        full = self._qualify(name)
        if full not in self._histograms:
            self._histograms[full] = Histogram(full)
        return self._histograms[full]

    def sketch(self, name: str) -> PercentileSketch:
        """Get (or lazily create) the percentile sketch with this name."""
        full = self._qualify(name)
        if full not in self._sketches:
            self._sketches[full] = PercentileSketch(full)
        return self._sketches[full]

    def add_flush_hook(self, hook: Callable[[], None]) -> None:
        """Register a callable that folds pending batched counts in.

        Hooks must be idempotent when nothing is pending; they run on every
        :meth:`flush` (and therefore on every snapshot/reset/fraction).
        The registry holds each hook, and so its producer, for as long as
        the registry lives.  A producer therefore keeps its counters, not
        this registry or a scoped view of it: a reference back would form a
        cycle that only the cyclic garbage collector could free.
        """
        self._flush_hooks.append(hook)

    def flush(self) -> None:
        """Fold every producer's pending batched counts into the counters."""
        for hook in self._flush_hooks:
            hook()

    def fraction(self, numerator: str, *denominators: str) -> float:
        """``numerator / sum(denominators)``, 0.0 when the total is zero.

        Names are qualified like :meth:`counter`; missing counters count as
        zero.  Used for derived ratios such as the software-fallback
        fraction (fallbacks taken / queries executed).
        """
        self.flush()

        def value(name: str) -> int:
            counter = self._counters.get(self._qualify(name))
            return counter.value if counter else 0

        total = sum(value(name) for name in denominators)
        return value(numerator) / total if total else 0.0

    def scoped(self, prefix: str) -> "StatsRegistry":
        """A view that shares storage but prepends ``prefix`` to names."""
        view = StatsRegistry(self._qualify(prefix))
        view._counters = self._counters
        view._histograms = self._histograms
        view._sketches = self._sketches
        view._flush_hooks = self._flush_hooks
        return view

    def snapshot(self) -> Dict[str, float]:
        """All counter values (histograms/sketches reported as summaries)."""
        self.flush()
        out: Dict[str, float] = {c.name: c.value for c in self._counters.values()}
        for h in self._histograms.values():
            out[f"{h.name}.count"] = h.count
            out[f"{h.name}.total"] = h.total
        for s in self._sketches.values():
            out[f"{s.name}.count"] = s.count
            out[f"{s.name}.total"] = s.total
        return out

    def diff(self, before: Dict[str, float]) -> Dict[str, float]:
        """Per-name deltas of the current snapshot versus ``before``."""
        now = self.snapshot()
        keys = set(now) | set(before)
        return {k: now.get(k, 0.0) - before.get(k, 0.0) for k in keys}

    def reset(self) -> None:
        # Flush first: pending batched counts belong to the epoch being
        # reset, exactly as if they had been added unbatched before the call.
        self.flush()
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
        for sketch in self._sketches.values():
            sketch.reset()

    def items(self) -> Iterator[Tuple[str, float]]:
        yield from sorted(self.snapshot().items())

    def report(self, only: Iterable[str] = ()) -> str:
        """Human-readable dump, optionally filtered by name prefixes."""
        prefixes = tuple(only)
        lines = []
        for name, value in self.items():
            if prefixes and not name.startswith(prefixes):
                continue
            lines.append(f"{name:<48} {value}")
        return "\n".join(lines)
