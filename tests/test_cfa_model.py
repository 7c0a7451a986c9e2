"""Unit tests for the CFA model, firmware registry, QST and DPU pools.

The micro-op dataclasses, ``StepOutcome`` and the interpreted context are
the vocabulary of the interpreted oracles in ``tests/cfa_reference.py``.
"""

import pytest

from repro.core.cfa import (
    CfaProgram,
    FirmwareImage,
    QueryContext,
    STATE_DONE,
    STATE_START,
)
from repro.core.dpu import AluPool, ComparatorPool, HashUnit, UnitPool
from repro.core.programs import (
    BinaryTreeCfa,
    HashTableCfa,
    LinkedListCfa,
    SkipListCfa,
    TrieCfa,
    default_firmware,
)
from repro.core.qst import QueryStateTable
from repro.errors import AcceleratorError, FirmwareError

from . import cfa_reference as ref
from .cfa_reference import AluOp, Compare, Done, Fault, HashOp, MemRead, StepOutcome


class TestMicroActions:
    def test_memread_segments_iterate_in_order(self):
        action = MemRead(0x1000, 64, "a", also=((0x2000, 8, "b"), (0x3000, 16, "c")))
        segments = list(action.segments())
        assert segments == [(0x1000, 64, "a"), (0x2000, 8, "b"), (0x3000, 16, "c")]

    def test_actions_are_immutable(self):
        action = Compare(1, 2, 16, "cmp")
        with pytest.raises(AttributeError):
            action.length = 32

    def test_query_context_scratch_u64(self):
        ctx = ref.QueryContext(header_addr=0x100, key_addr=0x200)
        ctx.scratch["node"] = (123456789).to_bytes(8, "little") + b"\x01" + b"\x00" * 7
        assert ctx.scratch_u64("node") == 123456789
        assert ctx.scratch_u64("node", 8) == 1


class TestFirmwareImage:
    def test_default_firmware_covers_builtin_types(self):
        image = default_firmware()
        for type_code in (1, 2, 3, 4, 5):
            assert image.supports(type_code)
        assert not image.supports(6)  # hash-of-lists is a runtime add-on
        assert image.types() == [1, 2, 3, 4, 5]

    def test_unknown_type_raises(self):
        image = default_firmware()
        with pytest.raises(FirmwareError):
            image.program_for(99)

    def test_program_must_declare_states(self):
        class Empty(CfaProgram):
            TYPE_CODE = 42
            NAME = "empty"
            STATES = ()

        with pytest.raises(FirmwareError):
            FirmwareImage().register(Empty())

    def test_program_must_include_architectural_states(self):
        class NoDone(CfaProgram):
            TYPE_CODE = 43
            NAME = "nodone"
            STATES = (STATE_START, "X")

        with pytest.raises(FirmwareError):
            FirmwareImage().register(NoDone())

    def test_all_builtin_programs_fit_the_state_budget(self):
        for program in (
            LinkedListCfa(),
            HashTableCfa(),
            SkipListCfa(),
            BinaryTreeCfa(),
            TrieCfa(),
        ):
            program.validate(256)
            assert STATE_DONE in program.STATES


class TestQueryStateTable:
    def ctx(self):
        return QueryContext(header_addr=0x40, key_addr=0x80)

    def test_allocate_until_full(self):
        qst = QueryStateTable(3)
        entries = [qst.allocate(self.ctx(), blocking=True) for _ in range(3)]
        assert all(e is not None for e in entries)
        assert {e.index for e in entries} == {0, 1, 2}
        assert qst.allocate(self.ctx(), blocking=True) is None
        assert qst.free_slots == 0

    def test_release_recycles_lowest_slot(self):
        qst = QueryStateTable(2)
        first = qst.allocate(self.ctx(), blocking=True)
        qst.allocate(self.ctx(), blocking=True)
        qst.release(first)
        again = qst.allocate(self.ctx(), blocking=False, result_addr=0x999)
        assert again.index == first.index
        assert not again.mode_blocking
        assert again.result_addr == 0x999

    def test_double_release_rejected(self):
        qst = QueryStateTable(1)
        entry = qst.allocate(self.ctx(), blocking=True)
        qst.release(entry)
        with pytest.raises(AcceleratorError):
            qst.release(entry)

    def test_occupancy_sampling(self):
        qst = QueryStateTable(4)
        entry = qst.allocate(self.ctx(), blocking=True)
        qst.release(entry)
        assert 0.0 < qst.mean_occupancy() <= 1.0

    def test_non_blocking_listing(self):
        qst = QueryStateTable(4)
        qst.allocate(self.ctx(), blocking=True)
        nb = qst.allocate(self.ctx(), blocking=False, result_addr=8)
        assert qst.non_blocking_entries() == [nb]

    def test_zero_capacity_rejected(self):
        with pytest.raises(AcceleratorError):
            QueryStateTable(0)


class TestDpuPools:
    def test_pool_picks_earliest_free_unit(self):
        pool = UnitPool(2, "test")
        a = pool.issue(0, 10)   # unit 0 busy until 10
        b = pool.issue(0, 10)   # unit 1 busy until 10
        c = pool.issue(0, 10)   # queues behind the earliest (10)
        assert (a, b) == (10, 10)
        assert c == 20

    def test_queue_cycles_accounted(self):
        pool = UnitPool(1, "test")
        pool.issue(0, 5)
        pool.issue(0, 5)
        assert pool.stats.counter("queue_cycles").value == 5

    def test_comparator_busy_scales_with_bytes(self):
        pool = ComparatorPool(1, "cmp")
        short = pool.compare(0, 8)
        pool.reset_timing()
        long = pool.compare(0, 100)
        assert long - 0 == 13  # ceil(100/8)
        assert short == 1

    def test_hash_unit_setup_plus_per_qword(self):
        unit = HashUnit(setup_cycles=3)
        assert unit.hash(0, 16) == 3 + 2

    def test_alu_pool_latency(self):
        pool = AluPool(5, "alus")
        assert pool.alu(100, 2) == 102

    def test_invalid_issue_rejected(self):
        pool = UnitPool(1, "test")
        with pytest.raises(AcceleratorError):
            pool.issue(0, 0)
        with pytest.raises(AcceleratorError):
            UnitPool(0, "empty")


class TestStepOutcome:
    def test_internal_transition_has_no_action(self):
        outcome = StepOutcome("NEXT")
        assert outcome.action is None
        assert outcome.next_state == "NEXT"

    def test_terminal_actions(self):
        assert Done(5).value == 5
        assert Done(None).value is None
        fault = Fault(detail="boom")
        assert fault.code == 3  # RESULT_FAULT
        assert HashOp("key", "h").kind == "fnv1a"
        assert AluOp().cycles == 1
