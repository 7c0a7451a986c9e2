"""Observability helpers: QST occupancy timelines and latency reports.

The accelerator already records per-query latencies and occupancy samples;
these helpers turn a run's records into terminal-friendly summaries —
useful when tuning batch depths or diagnosing why a scheme underperforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.accelerator import QeiAccelerator, QueryHandle

_BARS = " .:-=+*#%@"
#: Columns in an occupancy sparkline.
TIMELINE_BUCKETS = 60


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of completed query latencies."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def format(self) -> str:
        return (
            f"queries={self.count}  mean={self.mean:.0f}  p50={self.p50:.0f}  "
            f"p90={self.p90:.0f}  p99={self.p99:.0f}  max={self.maximum:.0f} cycles"
        )


def latency_summary(accelerator: QeiAccelerator) -> LatencySummary:
    """Summarise the accelerator's completed-query latency histogram."""
    histogram = accelerator.stats.histogram("query.latency")
    return LatencySummary(
        count=histogram.count,
        mean=histogram.mean,
        p50=histogram.percentile(50),
        p90=histogram.percentile(90),
        p99=histogram.percentile(99),
        maximum=histogram.maximum,
    )


def occupancy_timeline(
    handles: Sequence[QueryHandle],
    *,
    capacity: Optional[int] = None,
) -> str:
    """An ASCII sparkline of in-flight queries over the run.

    Each column covers an equal slice of the run; its glyph encodes the
    mean number of in-flight queries in that slice (normalised to
    ``capacity`` when given, else to the observed peak).
    """
    spans = [
        (h.submit_cycle, h.completion_cycle)
        for h in handles
        if h.completion_cycle is not None
    ]
    if not spans:
        return "(no completed queries)"
    start = min(s for s, _ in spans)
    end = max(e for _, e in spans)
    width = max(1, end - start)
    step = width / TIMELINE_BUCKETS

    levels: List[float] = []
    for bucket in range(TIMELINE_BUCKETS):
        lo = start + bucket * step
        hi = lo + step
        in_flight = sum(1 for s, e in spans if s < hi and e > lo)
        levels.append(in_flight)
    peak = capacity or max(levels) or 1
    glyphs = "".join(
        _BARS[min(len(_BARS) - 1, int(level / peak * (len(_BARS) - 1)))]
        for level in levels
    )
    return (
        f"[{glyphs}]  peak={int(max(levels))}"
        + (f"/{capacity}" if capacity else "")
        + f"  span={width} cycles"
    )


def per_query_table(
    handles: Sequence[QueryHandle], *, limit: int = 20
) -> str:
    """A per-query table: submit, completion, latency, status, value."""
    lines = [f"{'#':>3}  {'submit':>9}  {'done':>9}  {'latency':>8}  {'status':<10} value"]
    for i, handle in enumerate(handles[:limit]):
        done = handle.completion_cycle
        latency = (done - handle.submit_cycle) if done is not None else None
        lines.append(
            f"{i:>3}  {handle.submit_cycle:>9}  "
            f"{done if done is not None else '-':>9}  "
            f"{latency if latency is not None else '-':>8}  "
            f"{handle.status.value:<10} {handle.value}"
        )
    if len(handles) > limit:
        lines.append(f"... ({len(handles) - limit} more)")
    return "\n".join(lines)


def jitter_report(handles: Sequence[QueryHandle]) -> Tuple[float, float]:
    """(mean latency, p99/p50 jitter ratio) — the paper's QoS concern.

    Latency jitter is why the paper rejects batching-only solutions for
    latency-sensitive workloads (Sec. II-B / VII-A).
    """
    latencies = sorted(
        h.completion_cycle - h.submit_cycle
        for h in handles
        if h.completion_cycle is not None
    )
    if not latencies:
        return 0.0, 0.0
    mean = sum(latencies) / len(latencies)
    p50 = latencies[max(0, int(0.50 * len(latencies)) - 1)]
    p99 = latencies[max(0, int(0.99 * len(latencies)) - 1)]
    return mean, (p99 / p50 if p50 else 0.0)
