"""Unit tests for statistics primitives."""

import pytest

from repro.sim import StatsRegistry
from repro.sim.stats import Histogram


def test_counter_accumulates_and_resets():
    reg = StatsRegistry()
    c = reg.counter("hits")
    c.add()
    c.add(4)
    assert c.value == 5
    c.reset()
    assert c.value == 0


def test_counter_identity_by_name():
    reg = StatsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.counter("x") is not reg.counter("y")


def test_scoped_registry_shares_storage():
    reg = StatsRegistry()
    view = reg.scoped("l2")
    view.counter("misses").add(3)
    assert reg.snapshot()["l2.misses"] == 3


def test_nested_scopes_compose_prefixes():
    reg = StatsRegistry()
    inner = reg.scoped("core0").scoped("l1d")
    inner.counter("hits").add()
    assert "core0.l1d.hits" in reg.snapshot()


def test_histogram_statistics():
    h = Histogram("lat")
    for v in [10, 20, 30, 40]:
        h.record(v)
    assert h.count == 4
    assert h.mean == 25
    assert h.minimum == 10
    assert h.maximum == 40
    assert h.percentile(50) == 20
    assert h.percentile(100) == 40


def test_histogram_total_adds_left_to_right():
    # Python 3.12's sum() compensates float rounding (it would give 1.0);
    # the total must read the same on every interpreter.
    h = Histogram("t")
    for _ in range(10):
        h.record(0.1)
    assert h.total == 0.9999999999999999
    assert h.mean == 0.09999999999999999


def test_histogram_percentile_validation():
    h = Histogram("lat")
    h.record(1)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_empty_histogram_is_safe():
    h = Histogram("lat")
    assert h.mean == 0.0
    assert h.percentile(99) == 0.0


def test_diff_reports_deltas():
    reg = StatsRegistry()
    reg.counter("a").add(2)
    before = reg.snapshot()
    reg.counter("a").add(5)
    reg.counter("b").add(1)
    delta = reg.diff(before)
    assert delta["a"] == 5
    assert delta["b"] == 1


def test_report_filters_by_prefix():
    reg = StatsRegistry()
    reg.counter("l1.hits").add(1)
    reg.counter("l2.hits").add(2)
    text = reg.report(only=["l1"])
    assert "l1.hits" in text
    assert "l2.hits" not in text


# --------------------------------------------------------------------- #
# PercentileSketch
# --------------------------------------------------------------------- #

import math
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import PercentileSketch


def exact_quantile(values, pct):
    """Nearest-rank quantile over the raw samples (the sketch's contract)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=400),
    st.sampled_from([50.0, 90.0, 95.0, 99.0, 99.9]),
)
def test_sketch_quantile_tracks_sorted_array(values, pct):
    sketch = PercentileSketch("lat")
    for v in values:
        sketch.record(v)
    exact = exact_quantile(values, pct)
    approx = sketch.quantile(pct)
    eps = sketch.relative_error
    tolerance = eps / (1.0 - eps)
    assert abs(approx - exact) <= tolerance * max(exact, 1.0)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=120),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=120),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=120),
)
def test_sketch_merge_is_associative(a, b, c):
    def build(samples):
        s = PercentileSketch("lat")
        for v in samples:
            s.record(v)
        return s

    left = build(a).merge(build(b)).merge(build(c))
    right = build(a).merge(build(b).merge(build(c)))
    assert left.to_dict() == right.to_dict()


def test_sketch_merge_matches_single_stream():
    rng = random.Random(13)
    samples = [rng.randrange(1, 1_000_000) for _ in range(2_000)]
    whole = PercentileSketch("lat")
    shards = [PercentileSketch("lat") for _ in range(4)]
    for i, v in enumerate(samples):
        whole.record(v)
        shards[i % 4].record(v)
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    assert merged.to_dict() == whole.to_dict()
    assert merged.count == len(samples)


def test_sketch_rejects_mismatched_merge():
    a = PercentileSketch("lat", relative_error=0.01)
    b = PercentileSketch("lat", relative_error=0.02)
    with pytest.raises(ValueError):
        a.merge(b)


def test_empty_sketch_is_safe():
    s = PercentileSketch("lat")
    assert s.count == 0
    assert s.mean == 0.0
    assert s.p99 == 0.0
    assert s.quantile(50) == 0.0


def test_sketch_quantile_validation():
    s = PercentileSketch("lat")
    s.record(5)
    with pytest.raises(ValueError):
        s.quantile(-1)
    with pytest.raises(ValueError):
        s.quantile(101)


def test_registry_sketch_shares_storage_and_resets():
    reg = StatsRegistry()
    view = reg.scoped("serve")
    view.sketch("latency").record(100)
    view.histogram("sizes").record(3)
    assert reg.sketch("serve.latency").count == 1
    snap = reg.snapshot()
    assert snap["serve.latency.count"] == 1
    reg.reset()
    assert reg.sketch("serve.latency").count == 0
    assert reg.histogram("serve.sizes").count == 0


# --------------------------------------------------------------------- #
# Cross-node merge: the fleet-SLO property the cluster tier relies on
# --------------------------------------------------------------------- #


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=0,
            max_size=120,
        ),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from([50.0, 90.0, 95.0, 99.0, 99.9]),
)
def test_cross_node_merge_tracks_pooled_oracle(node_streams, pct):
    """Merging per-node sketches must answer fleet quantiles within the
    sketch error bound of a pooled oracle over all raw samples — the
    property that makes the cluster's fleet-SLO report (a merge of each
    node's sketch) trustworthy without re-measuring anything."""
    pooled = [v for stream in node_streams for v in stream]
    if not pooled:
        return
    shards = []
    for stream in node_streams:
        shard = PercentileSketch("node.latency")
        for v in stream:
            shard.record(v)
        shards.append(shard)
    fleet = PercentileSketch("node.latency")
    for shard in shards:
        fleet.merge(shard)
    assert fleet.count == len(pooled)
    exact = exact_quantile(pooled, pct)
    approx = fleet.quantile(pct)
    eps = fleet.relative_error
    tolerance = eps / (1.0 - eps)
    assert abs(approx - exact) <= tolerance * max(exact, 1.0)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=50),
    st.sampled_from([50.0, 95.0, 99.0]),
)
def test_cross_node_merge_zeros_only_band(nodes, per_node, pct):
    """All-zero node streams (the band PR 4 routed around the log buckets)
    must merge into exact-zero fleet quantiles, not NaNs or representatives
    leaked from the smallest log bucket."""
    fleet = PercentileSketch("node.latency")
    for _ in range(nodes):
        shard = PercentileSketch("node.latency")
        for _ in range(per_node):
            shard.record(0)
        fleet.merge(shard)
    assert fleet.count == nodes * per_node
    assert fleet.quantile(pct) == 0.0
    assert fleet.mean == 0.0


def test_cross_node_merge_zero_band_mixes_with_positive_samples():
    """A fleet where one node saw only zeros and another only positives:
    low quantiles come from the zero band, high ones from the buckets."""
    zeros = PercentileSketch("node.latency")
    for _ in range(50):
        zeros.record(0)
    busy = PercentileSketch("node.latency")
    for v in range(1, 51):
        busy.record(1000 * v)
    fleet = PercentileSketch("node.latency")
    fleet.merge(zeros).merge(busy)
    assert fleet.count == 100
    assert fleet.quantile(25.0) == 0.0
    exact = exact_quantile([0] * 50 + [1000 * v for v in range(1, 51)], 99.0)
    eps = fleet.relative_error
    assert abs(fleet.quantile(99.0) - exact) <= eps / (1 - eps) * exact


def test_flush_hooks_fold_pending_counts_before_reads():
    """The hot-path batching contract: pending plain-int accumulators fold
    into counters via registered flush hooks before any snapshot, reset or
    fraction read — so batched producers are invisible to consumers."""
    reg = StatsRegistry()
    hits = reg.counter("hits")
    total = reg.counter("total")
    pending = {"hits": 3}

    def drain():
        hits.value += pending.pop("hits", 0)

    reg.add_flush_hook(drain)
    total.add(10)
    assert reg.snapshot()["hits"] == 3          # snapshot flushes first
    assert reg.snapshot()["hits"] == 3          # hook is idempotent once drained
    pending["hits"] = 2
    assert reg.fraction("hits", "total") == 0.5  # fraction flushes first
    pending["hits"] = 7
    reg.reset()                                  # reset flushes, then zeroes
    assert hits.value == 0
    assert reg.snapshot()["hits"] == 0


def test_scoped_views_share_flush_hooks():
    reg = StatsRegistry()
    view = reg.scoped("l1d")
    c = view.counter("hits")
    box = [4]

    def drain():
        c.value += box[0]
        box[0] = 0

    view.add_flush_hook(drain)   # registered through the scoped view...
    assert reg.snapshot()["l1d.hits"] == 4  # ...runs on root snapshots too
