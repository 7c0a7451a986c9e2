"""Unit tests for the set-associative cache model."""

from repro.config import CacheConfig
from repro.mem import Cache
from repro.sim.stats import StatsRegistry


def make_cache(size=4096, assoc=4, latency=4, stats=None):
    return Cache(CacheConfig(size, assoc, latency), stats=stats)


def test_cold_miss_then_hit_after_fill():
    cache = make_cache()
    assert cache.access(100) is False
    cache.fill(100)
    assert cache.access(100) is True
    assert cache.hits == 1
    assert cache.misses == 1


def test_lru_eviction_order():
    # 4-way cache: 4096 / (4 * 64) = 16 sets; lines i*16 share set 0.
    cache = make_cache()
    lines = [i * 16 for i in range(5)]
    for line in lines[:4]:
        cache.fill(line)
    cache.access(lines[0])  # most recently used
    victim = cache.fill(lines[4])
    assert victim == lines[1]
    assert cache.probe(lines[0])
    assert not cache.probe(lines[1])


def test_dirty_eviction_counts_writeback():
    stats = StatsRegistry()
    cache = make_cache(stats=stats)
    lines = [i * 16 for i in range(5)]
    cache.fill(lines[0], dirty=True)
    for line in lines[1:4]:
        cache.fill(line)
    cache.fill(lines[4])
    assert stats.counter("cache.writebacks").value == 1


def test_write_access_marks_dirty():
    stats = StatsRegistry()
    cache = make_cache(stats=stats)
    lines = [i * 16 for i in range(5)]
    cache.fill(lines[0])
    cache.access(lines[0], write=True)
    for line in lines[1:5]:
        cache.fill(line)
    assert stats.counter("cache.writebacks").value == 1


def test_fill_existing_line_is_not_eviction():
    stats = StatsRegistry()
    cache = make_cache(stats=stats)
    cache.fill(7)
    assert cache.fill(7) is None
    assert stats.counter("cache.evictions").value == 0
    assert cache.occupancy == 1


def test_invalidate():
    cache = make_cache()
    cache.fill(1)
    cache.fill(2)
    cache.invalidate(1)
    assert not cache.probe(1)
    assert cache.probe(2)
    cache.invalidate()
    assert cache.occupancy == 0


def test_probe_does_not_touch_stats_or_lru():
    cache = make_cache()
    lines = [i * 16 for i in range(5)]
    for line in lines[:4]:
        cache.fill(line)
    hits, misses = cache.hits, cache.misses
    cache.probe(lines[0])
    assert (cache.hits, cache.misses) == (hits, misses)
    victim = cache.fill(lines[4])
    assert victim == lines[0]  # probe did not refresh LRU


def test_hit_rate():
    cache = make_cache()
    cache.fill(3)
    cache.access(3)
    cache.access(3)
    cache.access(4)
    assert cache.hit_rate() == 2 / 3
