"""Tests for QUERY instruction semantics and the core<->QEI co-simulation."""

import pytest

from repro import small_config
from repro.core.accelerator import QueryStatus
from repro.core.isa import CompletionPromise, NbBatch, QueryOperands
from repro.cpu import TraceBuilder
from repro.datastructs import CuckooHashTable
from repro.errors import AcceleratorError
from repro.system import System


@pytest.fixture
def setup():
    system = System(small_config())
    table = CuckooHashTable(system.mem, key_length=16, num_buckets=128)
    keys = [(b"k%d" % i).ljust(16, b"_") for i in range(64)]
    for i, key in enumerate(keys):
        table.insert(key, 500 + i)
    return system, table, keys


def operands(system, table, key, *, result_addr=0):
    return QueryOperands(table.header_addr, table.store_key(key), result_addr)


class TestQueryB:
    def test_result_flows_back_to_register(self, setup):
        system, table, keys = setup
        builder = TraceBuilder()
        q = builder.query_b(operands(system, table, keys[3]))
        builder.alu(deps=(q,))
        port = system.query_port(0)
        system.run_trace(builder.trace, port=port)
        assert port.handles[0].value == 503

    def test_blocking_batch_overlaps(self, setup):
        """Eight batched QUERY_Bs finish much faster than 8x one query."""
        system, table, keys = setup
        builder = TraceBuilder()
        q = builder.query_b(operands(system, table, keys[0]))
        builder.alu(deps=(q,))
        port = system.query_port(0)
        single = system.run_trace(builder.trace, port=port).cycles

        system2 = System(small_config())
        table2 = CuckooHashTable(system2.mem, key_length=16, num_buckets=128)
        for i, key in enumerate(keys):
            table2.insert(key, 500 + i)
        builder = TraceBuilder()
        ops = [builder.query_b(operands(system2, table2, k)) for k in keys[:8]]
        for q in ops:
            builder.alu(deps=(q,))
        port2 = system2.query_port(0)
        batched = system2.run_trace(builder.trace, port=port2).cycles
        assert batched < 8 * single * 0.6

    def test_dependent_query_serializes(self, setup):
        """A query whose issue depends on the previous result must wait."""
        system, table, keys = setup
        builder = TraceBuilder()
        q1 = builder.query_b(operands(system, table, keys[0]))
        gate = builder.alu(deps=(q1,))
        q2 = builder.query_b(operands(system, table, keys[1]), deps=(gate,))
        builder.alu(deps=(q2,))
        port = system.query_port(0)
        system.run_trace(builder.trace, port=port)
        h1, h2 = port.handles
        assert h2.submit_cycle >= h1.completion_cycle


class TestQueryNb:
    def test_results_written_to_memory(self, setup):
        system, table, keys = setup
        base = system.mem.alloc(16 * 4, align=64)
        batch = NbBatch(base)
        builder = TraceBuilder()
        for i, key in enumerate(keys[:4]):
            builder.query_nb(
                (operands(system, table, key, result_addr=base + 16 * i), batch)
            )
        builder.wait_result(batch)
        port = system.query_port(0)
        system.run_trace(builder.trace, port=port)
        for i in range(4):
            assert system.space.read_u64(base + 16 * i) == 1  # FOUND
            assert system.space.read_u64(base + 16 * i + 8) == 500 + i

    def test_nb_requires_result_address(self, setup):
        system, table, keys = setup
        builder = TraceBuilder()
        builder.query_nb((operands(system, table, keys[0]), None))
        with pytest.raises(AcceleratorError):
            system.run_trace(builder.trace, port=system.query_port(0))

    def test_wait_result_counts_poll_instructions(self, setup):
        system, table, keys = setup
        base = system.mem.alloc(16 * 16, align=64)
        batch = NbBatch(base)
        builder = TraceBuilder()
        for i, key in enumerate(keys[:16]):
            builder.query_nb(
                (operands(system, table, key, result_addr=base + 16 * i), batch)
            )
        builder.wait_result(batch)
        port = system.query_port(0)
        result = system.run_trace(builder.trace, port=port)
        # 16 NB ops + 1 wait pseudo-instruction + polling overhead.
        assert result.instructions > 17


class TestPromises:
    def test_promise_resolves_once(self):
        calls = []

        def resolver():
            calls.append(1)
            return 42

        promise = CompletionPromise(resolver)
        assert promise.resolve() == 42
        assert promise.resolve() == 42
        assert len(calls) == 1

    def test_bad_payload_rejected(self, setup):
        system, table, keys = setup
        builder = TraceBuilder()
        builder.query_b(payload="not-operands")
        with pytest.raises(AcceleratorError):
            system.run_trace(builder.trace, port=system.query_port(0))

    def test_wait_result_payload_type_checked(self, setup):
        system, table, keys = setup
        builder = TraceBuilder()
        builder.wait_result(payload=["not-a-batch"])
        with pytest.raises(AcceleratorError):
            system.run_trace(builder.trace, port=system.query_port(0))


class TestPortBookkeeping:
    def test_handles_recorded_in_program_order(self, setup):
        system, table, keys = setup
        builder = TraceBuilder()
        for key in keys[:6]:
            q = builder.query_b(operands(system, table, key))
            builder.alu(deps=(q,))
        port = system.query_port(0)
        system.run_trace(builder.trace, port=port)
        values = [h.value for h in port.handles]
        assert values == [500, 501, 502, 503, 504, 505]
        assert all(h.status is QueryStatus.FOUND for h in port.handles)
