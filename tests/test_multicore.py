"""Tests for multi-programmed multicore execution."""

import pytest

from repro import small_config
from repro.cpu import TraceBuilder
from repro.cpu.multicore import run_multiprogrammed
from repro.datastructs import CuckooHashTable
from repro.errors import SimulationError
from repro.system import System


@pytest.fixture
def system():
    return System(small_config())


def alu_trace(n):
    builder = TraceBuilder()
    builder.alu(count=n)
    return builder.trace


def load_trace(addrs):
    builder = TraceBuilder()
    prev = -1
    for addr in addrs:
        prev = builder.load(addr, deps=(prev,) if prev >= 0 else ())
    return builder.trace


class TestBasics:
    def test_single_core_matches_execute(self, system):
        trace = alu_trace(200)
        solo = system.cores[0].execute(trace)
        system2 = System(small_config())
        multi = run_multiprogrammed([(system2.cores[0], alu_trace(200))])
        assert multi.per_core[0].cycles == solo.cycles

    def test_independent_cores_run_concurrently(self, system):
        # Two CPU-bound cores: the makespan is one core's time, not two.
        jobs = [(system.cores[0], alu_trace(400)), (system.cores[1], alu_trace(400))]
        result = run_multiprogrammed(jobs)
        assert result.per_core[0].cycles == result.per_core[1].cycles
        assert result.makespan == result.per_core[0].cycles
        assert result.aggregate_throughput > 1.0

    def test_duplicate_core_rejected(self, system):
        with pytest.raises(SimulationError):
            run_multiprogrammed(
                [(system.cores[0], alu_trace(5)), (system.cores[0], alu_trace(5))]
            )

    def test_empty_traces_are_fine(self, system):
        result = run_multiprogrammed([(system.cores[0], alu_trace(1))])
        assert result.per_core[0].instructions == 1


class TestSharedResourceContention:
    def test_corun_slows_memory_bound_traces(self):
        """Two cores chasing disjoint data contend in LLC/DRAM: each runs
        slower than it would alone."""
        def addresses(base):
            return [base + i * 4096 + (i % 8) * 64 for i in range(200)]

        solo_system = System(small_config())
        for a in addresses(0x2000_0000) + addresses(0x3000_0000):
            page = a - a % 4096
            if not solo_system.space.is_mapped(page):
                solo_system.space.map_page(page)
        solo = solo_system.cores[0].execute(load_trace(addresses(0x2000_0000)))

        co_system = System(small_config())
        for a in addresses(0x2000_0000) + addresses(0x3000_0000):
            page = a - a % 4096
            if not co_system.space.is_mapped(page):
                co_system.space.map_page(page)
        multi = run_multiprogrammed(
            [
                (co_system.cores[0], load_trace(addresses(0x2000_0000))),
                (co_system.cores[1], load_trace(addresses(0x3000_0000))),
            ]
        )
        # DRAM channel occupancy makes the co-run at least as slow.
        assert multi.per_core[0].cycles >= solo.cycles

    def test_queries_from_two_cores_share_the_accelerator(self):
        system = System(small_config())
        table = CuckooHashTable(system.mem, key_length=16, num_buckets=128)
        keys = [(b"k%d" % i).ljust(16, b"_") for i in range(40)]
        for i, key in enumerate(keys):
            table.insert(key, i)

        from repro.core.isa import QueryOperands

        def qtrace(key_slice):
            builder = TraceBuilder()
            for key in key_slice:
                q = builder.query_b(
                    QueryOperands(table.header_addr, table.store_key(key))
                )
                builder.alu(deps=(q,))
            return builder.trace

        ports = {i: system.query_port(i) for i in (0, 1)}
        result = run_multiprogrammed(
            [
                (system.cores[0], qtrace(keys[:10])),
                (system.cores[1], qtrace(keys[10:20])),
            ],
            externals=ports,
        )
        system.engine.run()
        values = sorted(
            h.value for port in ports.values() for h in port.handles
        )
        assert values == list(range(20))
        assert result.per_core[0].queries_issued == 10
        assert result.per_core[1].queries_issued == 10
