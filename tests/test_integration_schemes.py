"""Unit tests for the integration schemes' timing paths."""

import pytest

from repro import small_config
from repro.config import IntegrationScheme
from repro.core.integration import (
    ChaNoTlbScheme,
    ChaTlbScheme,
    CoreIntegratedScheme,
    DeviceDirectScheme,
    DeviceIndirectScheme,
)
from repro.system import System


@pytest.fixture
def systems():
    """One system per scheme over identical memory contents."""
    out = {}
    for scheme in IntegrationScheme:
        system = System(small_config(), scheme)
        base = system.mem.alloc(4096, align=64)
        system.space.write(base, b"\xab" * 4096)
        out[scheme.value] = (system, base)
    return out


def test_build_integration_returns_right_classes(systems):
    classes = {
        "core-integrated": CoreIntegratedScheme,
        "cha-tlb": ChaTlbScheme,
        "cha-notlb": ChaNoTlbScheme,
        "device-direct": DeviceDirectScheme,
        "device-indirect": DeviceIndirectScheme,
    }
    for name, (system, _) in systems.items():
        assert isinstance(system.integration, classes[name])


class TestTranslatePaths:
    def test_core_integrated_uses_l2_tlb(self, systems):
        system, base = systems["core-integrated"]
        integ = system.integration
        # First translation: page walk through the L2 TLB.
        _, cold = integ.translate(base, "r", 0, 0, 0)
        _, warm = integ.translate(base + 8, "r", 0, 0, 0)
        assert cold > warm
        assert warm == system.config.core.l2_tlb.latency_cycles

    def test_cha_tlb_uses_dedicated_tlb(self, systems):
        system, base = systems["cha-tlb"]
        integ = system.integration
        integ.translate(base, "r", 0, 2, 0)
        _, warm = integ.translate(base + 8, "r", 0, 2, 0)
        assert warm == system.config.qei.cha_tlb.latency_cycles

    def test_cha_notlb_pays_mesh_round_trip(self, systems):
        system, base = systems["cha-notlb"]
        integ = system.integration
        home = 3  # a slice away from core 0
        integ.translate(base, "r", 0, home, 0)
        _, warm = integ.translate(base + 8, "r", 0, home, 0)
        round_trip = 2 * system.noc.latency(home, 0)
        assert warm >= round_trip

    def test_device_translate_uses_device_tlb(self, systems):
        system, base = systems["device-direct"]
        integ = system.integration
        integ.translate(base, "r", 0, integ.device_node, 0)
        _, warm = integ.translate(base + 8, "r", 0, integ.device_node, 0)
        assert warm == system.config.qei.cha_tlb.latency_cycles


class TestMicroTlb:
    def test_micro_tlb_absorbs_page_reuse(self, systems):
        system, base = systems["core-integrated"]
        integ = system.integration
        integ.mem_read(base, 8, 0, 0, 0)
        before = integ._micro_hits.value
        integ.mem_read(base + 64, 8, 0, 0, 0)  # same page
        assert integ._micro_hits.value == before + 1

    def test_micro_tlb_flushed_on_shootdown(self, systems):
        system, base = systems["core-integrated"]
        integ = system.integration
        integ.mem_read(base, 8, 0, 0, 0)
        integ.flush_translations()
        before = integ._micro_hits.value
        integ.mem_read(base, 8, 0, 0, 0)
        assert integ._micro_hits.value == before  # miss after the flush


class TestDataPaths:
    def test_device_indirect_pays_interface_per_access(self, systems):
        sys_direct, base_d = systems["device-direct"]
        sys_indirect, base_i = systems["device-indirect"]
        direct = sys_direct.integration.mem_read(
            base_d, 8, 0, sys_direct.integration.device_node, 0
        )
        indirect = sys_indirect.integration.mem_read(
            base_i, 8, 0, sys_indirect.integration.device_node, 0
        )
        extra_indirect = sys_indirect.config.scheme_latency(
            "device-indirect"
        ).accel_to_data
        extra_direct = sys_direct.config.scheme_latency(
            "device-direct"
        ).accel_to_data
        # Same machine state on both sides: the latency gap is exactly the
        # difference of the two interface charges.
        assert indirect - direct == extra_indirect - extra_direct

    def test_core_integrated_memread_skips_l1(self, systems):
        system, base = systems["core-integrated"]
        system.integration.mem_read(base, 8, 0, 0, 0)
        line = system.hierarchy.line_of(system.space.translate(base))
        assert not system.hierarchy.l1[0].probe(line)
        assert system.hierarchy.l2[0].probe(line)

    def test_multi_line_read_translates_once_per_page(self, systems):
        system, base = systems["cha-tlb"]
        integ = system.integration
        before = integ._translations.value
        integ.mem_read(base, 256, 0, 1, 0)  # 4 lines, one page
        assert integ._translations.value == before + 1


class TestComparePaths:
    def test_core_integrated_small_key_compares_locally(self, systems):
        system, base = systems["core-integrated"]
        integ = system.integration
        before = integ.local_comparators[0].stats.counter("ops").value
        integ.compare(base, base + 512, 16, 0, 0, 0)
        assert integ.local_comparators[0].stats.counter("ops").value == before + 1

    def test_core_integrated_large_key_compares_remotely(self, systems):
        system, base = systems["core-integrated"]
        integ = system.integration
        local_before = integ.local_comparators[0].stats.counter("ops").value
        integ.compare(base, base + 512, 100, 0, 0, 0)
        assert (
            integ.local_comparators[0].stats.counter("ops").value == local_before
        )
        slice_ops = sum(
            pool.stats.counter("ops").value for pool in integ.slice_comparators
        )
        assert slice_ops >= 1

    def test_compare_latency_grows_with_key_size(self, systems):
        system, base = systems["cha-tlb"]
        integ = system.integration
        # Warm both operand regions first.
        integ.compare(base, base + 512, 8, 0, 1, 0)
        small = integ.compare(base, base + 512, 8, 0, 1, 0)
        big = integ.compare(base, base + 512, 512, 0, 1, 0)
        assert big > small


class TestSubmitLatencies:
    def test_ordering_matches_table1(self, systems):
        latencies = {}
        for name, (system, base) in systems.items():
            integ = system.integration
            home = integ.home_node(0, base, base)
            latencies[name] = integ.submit_latency(0, home) + integ.return_latency(
                0, home
            )
        assert latencies["core-integrated"] < latencies["cha-tlb"]
        assert latencies["cha-tlb"] < latencies["device-direct"]
        assert latencies["device-direct"] < latencies["device-indirect"]
