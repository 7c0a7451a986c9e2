"""System-level integration tests: schemes, NoC behaviour, ablations."""

import pytest

from repro import IntegrationScheme, small_config
from repro.config import QeiConfig
from repro.core.accelerator import QueryRequest
from repro.datastructs import CuckooHashTable
from repro.errors import ConfigurationError
from repro.system import System


def make_table(system, n=120, buckets=128):
    table = CuckooHashTable(system.mem, key_length=16, num_buckets=buckets)
    keys = [(b"k%d" % i).ljust(16, b"_") for i in range(n)]
    for i, key in enumerate(keys):
        table.insert(key, i)
    return table, keys


def run_queries(system, table, keys, *, count=30):
    handles = []
    for key in keys[:count]:
        handles.append(
            system.accelerator.submit(
                QueryRequest(
                    header_addr=table.header_addr,
                    key_addr=table.store_key(key),
                ),
                system.engine.now,
            )
        )
    done = max(system.accelerator.wait_for(h) for h in handles)
    return handles, done


class TestSchemeBehaviour:
    def test_all_schemes_produce_identical_values(self):
        reference = None
        for scheme in IntegrationScheme:
            system = System(small_config(), scheme)
            table, keys = make_table(system)
            handles, _ = run_queries(system, table, keys)
            values = [h.value for h in handles]
            if reference is None:
                reference = values
            assert values == reference, scheme

    def test_device_scheme_is_slower_than_core_integrated(self):
        latencies = {}
        for scheme in ("core-integrated", "device-indirect"):
            system = System(small_config(), scheme)
            system.warm_llc()
            table, keys = make_table(system)
            start = system.engine.now
            _, done = run_queries(system, table, keys, count=8)
            latencies[scheme] = done - start
        assert latencies["device-indirect"] > latencies["core-integrated"]

    def test_cha_schemes_distribute_across_slices(self):
        system = System(small_config(), "cha-tlb")
        table, keys = make_table(system)
        homes = {
            system.integration.home_node(0, table.header_addr, table.store_key(k))
            for k in keys[:40]
        }
        assert len(homes) > 1  # queries spread over CHAs

    def test_device_scheme_centralizes(self):
        system = System(small_config(), "device-direct")
        table, keys = make_table(system)
        homes = {
            system.integration.home_node(0, table.header_addr, table.store_key(k))
            for k in keys[:20]
        }
        assert len(homes) == 1

    def test_qst_capacity_per_scheme(self):
        config = small_config()
        assert config.effective_qst_entries("core-integrated") == 10
        assert config.effective_qst_entries("cha-tlb") == 10 * config.llc.slices
        assert (
            config.effective_qst_entries("device-direct")
            == 10 * config.num_cores
        )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            System(small_config(), "quantum-entangled")


class TestNocHotspot:
    def test_device_scheme_creates_hotter_links_than_distributed(self):
        """The paper's Sec. V argument: a centralized accelerator makes a
        traffic hotspot around its NoC stop."""
        results = {}
        for scheme in ("device-direct", "cha-tlb"):
            system = System(small_config(), scheme)
            system.warm_llc()
            table, keys = make_table(system)
            system.noc.reset_traffic()
            _, done = run_queries(system, table, keys, count=40)
            results[scheme] = system.noc.hotspot_factor(max(1, done))
        assert results["device-direct"] > results["cha-tlb"]


class TestQstOccupancyAblation:
    """The paper picked ten QST entries for 50-90% occupancy (Sec. VI-A)."""

    def _throughput(self, qst_entries):
        config = small_config().replace(
            qei=QeiConfig(qst_entries=qst_entries)
        )
        system = System(config, "core-integrated")
        system.warm_llc()
        table, keys = make_table(system)
        start = system.engine.now
        _, done = run_queries(system, table, keys, count=40)
        return done - start, system.accelerator.qst.mean_occupancy()

    def test_more_entries_help_with_diminishing_returns(self):
        t2, _ = self._throughput(2)
        t10, occ10 = self._throughput(10)
        t40, _ = self._throughput(40)
        assert t10 < t2                       # 10 entries beat 2
        assert t40 <= t10                     # capacity never hurts
        # Marginal gain per added entry shrinks past the paper's pick of 10.
        gain_2_to_10 = (t2 - t10) / 8
        gain_10_to_40 = (t10 - t40) / 30
        assert gain_2_to_10 > gain_10_to_40
        assert 0.2 < occ10 <= 1.0             # the table is actually used


class TestStatsPlumbing:
    def test_accelerator_stats_accumulate(self):
        system = System(small_config())
        table, keys = make_table(system)
        before = system.stats.snapshot()
        run_queries(system, table, keys, count=10)
        delta = system.stats.diff(before)
        assert delta.get("qei.queries.completed", 0) == 10
        assert delta.get("qei.cee.steps", 0) > 10
        assert any("uops.mem" in k and v > 0 for k, v in delta.items())

    def test_flush_caches_resets_timing_state(self):
        system = System(small_config())
        table, keys = make_table(system)
        run_queries(system, table, keys, count=5)
        system.flush_caches()
        line = system.hierarchy.line_of(
            system.space.translate(table.table_addr)
        )
        assert not system.hierarchy.l2[0].probe(line)
