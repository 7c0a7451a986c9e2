"""Tests for the CPI-stack decomposition — including the paper's Sec. II-A
claim that hash queries are backend(memory)-bound while skip-list queries
carry much heavier frontend pressure."""

import pytest

from repro import small_config
from repro.analysis.cpi_stack import cpi_stack
from repro.cpu.core import CoreResult
from repro.system import System
from repro.workloads import make_workload, run_baseline


def fake_result(**kwargs):
    defaults = dict(
        cycles=1000,
        instructions=400,
        start_cycle=0,
        end_cycle=1000,
        branch_mispredicts=10,
        frontend_stall_cycles=100,
    )
    defaults.update(kwargs)
    return CoreResult(**defaults)


class TestDecomposition:
    def test_components_sum_to_total(self):
        stack = cpi_stack(fake_result(), small_config().core)
        assert stack.base + stack.branch + stack.frontend + stack.memory == (
            pytest.approx(stack.total)
        )

    def test_shares_sum_to_one(self):
        stack = cpi_stack(fake_result(), small_config().core)
        assert sum(stack.shares().values()) == pytest.approx(1.0)

    def test_zero_cycle_run_is_safe(self):
        stack = cpi_stack(fake_result(cycles=0, instructions=0), small_config().core)
        assert stack.shares() == {
            "base": 0.0, "branch": 0.0, "frontend": 0.0, "memory": 0.0
        }

    def test_memory_never_negative(self):
        # Oversubscribed attribution (more stall events than cycles).
        stack = cpi_stack(
            fake_result(cycles=10, branch_mispredicts=100),
            small_config().core,
        )
        assert stack.memory == 0.0

    def test_format_contains_shares(self):
        text = cpi_stack(fake_result(), small_config().core).format()
        assert "memory=" in text and "cycles=1000" in text

    def test_dominant_category(self):
        memory_bound = cpi_stack(
            fake_result(branch_mispredicts=0, frontend_stall_cycles=0),
            small_config().core,
        )
        assert memory_bound.dominant() == "memory"


class TestPaperClaim:
    """Sec. II-A: hash-table queries are backend (memory) bound; skip-list
    queries put far more pressure on the frontend."""

    def run_stack(self, name):
        system = System(small_config())
        params = {
            "dpdk": dict(num_flows=512, num_buckets=256, num_queries=40),
            "rocksdb": dict(num_items=400, num_queries=25),
        }[name]
        workload = make_workload(name, system, **params)
        baseline = run_baseline(system, workload)
        return cpi_stack(baseline.core_result, system.config.core)

    def test_hash_queries_are_memory_bound(self):
        stack = self.run_stack("dpdk")
        assert stack.dominant() == "memory"

    def test_skiplist_frontend_pressure_exceeds_hash(self):
        dpdk = self.run_stack("dpdk").shares()
        rocksdb = self.run_stack("rocksdb").shares()
        assert rocksdb["frontend"] > dpdk["frontend"]
