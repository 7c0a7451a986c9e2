"""The fault campaign driver: pinned vectors, determinism, coverage, CLI."""

import pytest

from repro.__main__ import main
from repro.analysis import fault_campaign


#: Outcome vectors of ``fault_campaign(seed, faults, repeats=1)`` as
#: recorded before the handlers shared one settle step.  Together the three
#: runs reach every outcome label except ``abort.null_pointer``; a handler
#: change that moves one RNG draw or reclassifies one fault moves a count.
PINNED_VECTORS = {
    (1, 100): {
        "abort.bad_aux": 1, "abort.bad_key_length": 3, "abort.bad_magic": 9,
        "abort.bad_size": 3, "abort.bad_subtype": 8, "abort.bad_type": 11,
        "abort.flush": 7, "abort.header_invalid": 11, "abort.segfault": 9,
        "abort.slice_down": 6, "abort.watchdog": 2, "firmware-swap": 5,
        "masked": 21, "mismatch-detected": 1, "write.orphan_reclaimed": 1,
        "write.resize_stall": 2,
    },
    (2, 100): {
        "abort.bad_key_length": 7, "abort.bad_magic": 5, "abort.bad_size": 1,
        "abort.bad_subtype": 6, "abort.bad_type": 10, "abort.flush": 4,
        "abort.header_invalid": 15, "abort.segfault": 4, "abort.slice_down": 11,
        "abort.version_conflict": 1, "abort.watchdog": 1, "firmware-swap": 7,
        "masked": 27, "write.resize_stall": 1,
    },
    (7, 300): {
        "abort.bad_aux": 4, "abort.bad_key_length": 29, "abort.bad_magic": 35,
        "abort.bad_size": 9, "abort.bad_subtype": 21, "abort.bad_type": 21,
        "abort.flush": 18, "abort.header_invalid": 17, "abort.segfault": 16,
        "abort.slice_down": 30, "abort.version_conflict": 3, "abort.watchdog": 1,
        "firmware-swap": 20, "masked": 70, "write.orphan_reclaimed": 2,
        "write.resize_stall": 4,
    },
}


@pytest.mark.parametrize("seed,faults", sorted(PINNED_VECTORS))
def test_outcome_vector_is_pinned(seed, faults):
    result = fault_campaign(seed=seed, faults=faults, repeats=1)
    assert [r["outcome"] for r in result.rows] == sorted(PINNED_VECTORS[seed, faults])
    assert {r["outcome"]: r["count"] for r in result.rows} == PINNED_VECTORS[seed, faults]


class TestCampaign:
    def test_small_campaign_holds_invariant_and_reproduces(self):
        result = fault_campaign(seed=11, faults=40, repeats=2)
        assert result.experiment == "fault-campaign"
        assert sum(r["count"] for r in result.rows) == 40
        assert any("reproduced identically" in n for n in result.notes)
        # Abort outcomes and fallback coverage actually happened.
        outcomes = {r["outcome"] for r in result.rows}
        assert any(o.startswith("abort.") for o in outcomes)

    def test_workload_filter(self):
        result = fault_campaign(
            seed=5, faults=15, repeats=1, workloads=["dpdk"], schemes=["cha-tlb"]
        )
        assert sum(r["count"] for r in result.rows) == 15

    def test_unknown_workload_rejected(self):
        from repro.analysis import CampaignViolation

        with pytest.raises(CampaignViolation):
            fault_campaign(seed=1, faults=1, workloads=["nope"])

    def test_same_seed_same_vector(self):
        a = fault_campaign(seed=21, faults=25, repeats=1, schemes=["cha-tlb"])
        b = fault_campaign(seed=21, faults=25, repeats=1, schemes=["cha-tlb"])
        assert a.rows == b.rows


class TestCli:
    def test_fault_campaign_verb(self, capsys):
        rc = main(
            [
                "fault-campaign",
                "--seed",
                "3",
                "--faults",
                "20",
                "--repeats",
                "1",
                "--workloads",
                "jvm",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault-campaign" in out and "outcome" in out
