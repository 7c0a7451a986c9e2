"""Fault injection + accelerator hardening: watchdog, abort codes, fallback.

Every injected fault must surface a documented :class:`AbortCode` (or be
provably masked), and the software fallback must recover the right answer.
"""

import dataclasses
import random

import pytest

from repro import IntegrationScheme, small_config
from repro.core import AbortCode, read_result
from repro.core.accelerator import QueryRequest, QueryStatus
from repro.core.cfa import RESULT_ABORTED
from repro.core.header import DataStructureHeader, StructureType
from repro.datastructs import (
    BinarySearchTree,
    CuckooHashTable,
    LinkedList,
    SkipList,
)
from repro.errors import AcceleratorError, ConfigurationError, SegmentationFault
from repro.faults import FaultInjector, FaultKind
from repro.faults.injector import KINDS_BY_TYPE, InjectionError
from repro.system import System

#: Kinds the injector applies to memory; the rest are raised elsewhere.
MEMORY_KINDS = {kind for kinds in KINDS_BY_TYPE.values() for kind in kinds}


def make_system(scheme="core-integrated", *, watchdog_steps=None):
    cfg = small_config()
    if watchdog_steps is not None:
        cfg = cfg.replace(
            qei=dataclasses.replace(cfg.qei, watchdog_steps=watchdog_steps)
        )
    return System(cfg, scheme)


def keys_of(n, length=16):
    return [(b"k%d" % i).ljust(length, b"_")[:length] for i in range(n)]


def build_list(sys_, n=12):
    ll = LinkedList(sys_.mem, key_length=16)
    for i, k in enumerate(keys_of(n)):
        ll.insert(k, 100 + i)
    return ll


def run_query(sys_, structure, key):
    handle = sys_.accelerator.submit(
        QueryRequest(
            header_addr=structure.header_addr,
            key_addr=structure.store_key(key),
            blocking=True,
        ),
        sys_.engine.now,
    )
    sys_.accelerator.wait_for(handle)
    return handle


ABSENT = b"absent".ljust(16, b"_")


class TestWatchdog:
    def test_cycle_caught_within_budget(self):
        """An injected pointer cycle must hit ABORT_WATCHDOG, not hang."""
        sys_ = make_system(watchdog_steps=500)
        ll = build_list(sys_)
        injector = FaultInjector(sys_.space, rng=random.Random(1))
        injector.inject(FaultKind.POINTER_CYCLE, ll.header_addr)
        # A missing key forces a full walk straight into the loop.
        handle = run_query(sys_, ll, ABSENT)
        assert handle.status is QueryStatus.FAULT
        assert handle.abort_code is AbortCode.WATCHDOG
        assert sys_.stats.counter("qei.abort.watchdog").value == 1
        injector.heal()
        assert run_query(sys_, ll, keys_of(12)[3]).value == 103

    def test_watchdog_budget_validated(self):
        with pytest.raises(ConfigurationError):
            make_system(watchdog_steps=0)
        with pytest.raises(AcceleratorError):
            sys_ = make_system()
            type(sys_.accelerator)(
                sys_.engine,
                sys_.firmware,
                sys_.integration,
                sys_.space,
                qst_entries=8,
                watchdog_steps=-1,
            )

    def test_generous_budget_leaves_legit_queries_alone(self):
        sys_ = make_system(watchdog_steps=100_000)
        ll = build_list(sys_)
        assert run_query(sys_, ll, keys_of(12)[7]).value == 107


class TestHeaderValidation:
    """Satellite: decode-time rejection with one abort code per field."""

    @pytest.mark.parametrize(
        "kind,code",
        [
            (FaultKind.HEADER_CLEAR_VALID, AbortCode.HEADER_INVALID),
            (FaultKind.HEADER_BAD_MAGIC, AbortCode.BAD_MAGIC),
            (FaultKind.HEADER_BAD_TYPE, AbortCode.BAD_TYPE),
            (FaultKind.HEADER_BAD_SUBTYPE, AbortCode.BAD_SUBTYPE),
            (FaultKind.HEADER_BAD_KEY_LENGTH, AbortCode.BAD_KEY_LENGTH),
        ],
    )
    def test_list_header_faults(self, kind, code):
        sys_ = make_system()
        ll = build_list(sys_)
        injector = FaultInjector(sys_.space, rng=random.Random(2))
        fault = injector.inject(kind, ll.header_addr)
        assert code in fault.expected
        handle = run_query(sys_, ll, keys_of(12)[0])
        assert handle.status is QueryStatus.FAULT
        assert handle.abort_code is code
        assert sys_.stats.counter(f"qei.abort.{code.name.lower()}").value == 1
        injector.heal()
        assert run_query(sys_, ll, keys_of(12)[0]).value == 100

    def test_zero_key_length_rejected(self):
        """Bugfix satellite: key_length == 0 must not pass validation."""
        header = DataStructureHeader(
            root_ptr=0x1000,
            type_code=int(StructureType.LINKED_LIST),
            subtype=0,
            key_length=0,
            flags=1,  # FLAG_VALID
            size=0,
            aux=0,
        )
        assert header.validate() is AbortCode.BAD_KEY_LENGTH

    def test_bad_size_on_hash_table(self):
        sys_ = make_system()
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=32)
        for i, k in enumerate(keys_of(40)):
            ht.insert(k, i)
        injector = FaultInjector(sys_.space, rng=random.Random(3))
        injector.inject(FaultKind.HEADER_BAD_SIZE, ht.header_addr)
        handle = run_query(sys_, ht, keys_of(40)[0])
        assert handle.abort_code is AbortCode.BAD_SIZE
        injector.heal()

    def test_bad_aux_on_skip_list(self):
        sys_ = make_system()
        sl = SkipList(sys_.mem, key_length=16)
        for i, k in enumerate(keys_of(30)):
            sl.insert(k, i)
        injector = FaultInjector(sys_.space, rng=random.Random(4))
        injector.inject(FaultKind.HEADER_BAD_AUX, sl.header_addr)
        handle = run_query(sys_, sl, keys_of(30)[0])
        assert handle.abort_code is AbortCode.BAD_AUX
        injector.heal()


class TestPointerFaults:
    def test_dangling_pointer_segfaults(self):
        sys_ = make_system()
        ll = build_list(sys_)
        injector = FaultInjector(sys_.space, rng=random.Random(5))
        injector.inject(FaultKind.POINTER_DANGLE, ll.header_addr)
        # The full walk for a missing key must cross the dangling link.
        handle = run_query(sys_, ll, ABSENT)
        assert handle.status is QueryStatus.FAULT
        assert handle.abort_code is AbortCode.SEGFAULT
        injector.heal()
        assert run_query(sys_, ll, ABSENT).value is None

    def test_null_key_pointer(self):
        sys_ = make_system()
        ll = build_list(sys_)
        injector = FaultInjector(sys_.space, rng=random.Random(6))
        injector.inject(FaultKind.POINTER_NULL_KEY, ll.header_addr)
        handle = run_query(sys_, ll, ABSENT)
        assert handle.status is QueryStatus.FAULT
        assert handle.abort_code in (AbortCode.NULL_POINTER, AbortCode.SEGFAULT)
        injector.heal()

    def test_tree_cycle_watchdog(self):
        """Cycled BST nodes either abort (watchdog) or mask — never lie.

        A cycle on a leaf is unreachable and masks for every query, so probe
        several injection seeds and demand at least one abort overall while
        every completed query still matches the software reference.
        """
        sys_ = make_system(watchdog_steps=500)
        bst = BinarySearchTree(sys_.mem, key_length=16)
        keys = keys_of(30)
        for i, k in enumerate(keys):
            bst.insert(k, i)
        aborts = 0
        for seed in range(5):
            injector = FaultInjector(sys_.space, rng=random.Random(seed))
            injector.inject(FaultKind.POINTER_CYCLE, bst.header_addr)
            for k in keys:
                handle = run_query(sys_, bst, k)
                if handle.status is QueryStatus.FAULT:
                    aborts += 1
                    assert handle.abort_code in (
                        AbortCode.WATCHDOG,
                        AbortCode.NULL_POINTER,
                        AbortCode.SEGFAULT,
                    )
                else:
                    assert handle.value == keys.index(k)
            injector.heal()
        assert aborts >= 1
        assert sys_.stats.counter("qei.abort.watchdog").value >= 1


class TestHealAndPaging:
    def test_unmap_restore_roundtrip(self):
        sys_ = make_system()
        ll = build_list(sys_)
        node = ll.header_addr  # any mapped address works
        original = sys_.space.read(node, 64)
        page = node - node % sys_.space.page_bytes
        entry = sys_.space.unmap_page(page, free_frame=False)
        with pytest.raises(SegmentationFault):
            sys_.space.read(node, 64)
        sys_.space.restore_page(page, entry)
        assert sys_.space.read(node, 64) == original

    @pytest.mark.parametrize(
        "kind",
        [
            FaultKind.HEADER_BAD_TYPE,
            FaultKind.POINTER_DANGLE,
            FaultKind.POINTER_CYCLE,
            FaultKind.KEY_FLIP,
            FaultKind.PAGE_UNMAP,
        ],
    )
    def test_heal_is_byte_exact(self, kind):
        sys_ = make_system()
        ll = build_list(sys_)
        base = ll.header_addr - ll.header_addr % sys_.space.page_bytes
        snapshot = sys_.space.read(base, sys_.space.page_bytes)
        injector = FaultInjector(sys_.space, rng=random.Random(8))
        injector.inject(kind, ll.header_addr)
        assert injector.armed
        injector.heal()
        assert not injector.armed
        assert sys_.space.read(base, sys_.space.page_bytes) == snapshot
        assert run_query(sys_, ll, keys_of(12)[5]).value == 105

    def test_double_inject_requires_heal(self):
        sys_ = make_system()
        ll = build_list(sys_)
        injector = FaultInjector(sys_.space, rng=random.Random(9))
        injector.inject(FaultKind.KEY_FLIP, ll.header_addr)
        with pytest.raises(InjectionError):
            injector.inject(FaultKind.KEY_FLIP, ll.header_addr)
        injector.heal()

    @pytest.mark.parametrize("kind", [k for k in FaultKind if k not in MEMORY_KINDS])
    def test_inject_refuses_non_memory_kinds(self, kind):
        # Machine, write-path and cluster kinds are raised through their
        # control surfaces: inject() refuses them without touching memory.
        sys_ = make_system()
        ll = build_list(sys_)
        injector = FaultInjector(sys_.space, rng=random.Random(10))
        with pytest.raises(InjectionError):
            injector.inject(kind, ll.header_addr)
        assert not injector.armed and injector.epoch == 0


class TestSoftwareFallback:
    def test_fallback_retries_until_page_repaired(self):
        """PAGE_UNMAP: attempt 1 fails, the OS repair lands, attempt 2 wins."""
        sys_ = make_system()
        ll = build_list(sys_)
        key_addr = ll.store_key(ABSENT)  # before the page disappears
        injector = FaultInjector(sys_.space, rng=random.Random(10))
        injector.inject(FaultKind.PAGE_UNMAP, ll.header_addr)
        request = QueryRequest(
            header_addr=ll.header_addr,
            key_addr=key_addr,
            blocking=True,
        )
        outcome = sys_.fallback.execute(
            request,
            lambda: ll.lookup(ABSENT),
            before_retry=lambda: sys_.engine.schedule(100, injector.heal),
        )
        assert not outcome.accelerated
        assert outcome.abort_code is AbortCode.SEGFAULT
        assert outcome.attempts == 2  # first retry hits the missing page
        assert outcome.resolved and outcome.value is None
        assert not injector.armed
        assert sys_.fallback.fallback_fraction == 1.0

    def test_accelerated_path_records_no_fallback(self):
        sys_ = make_system()
        ll = build_list(sys_)
        request = QueryRequest(
            header_addr=ll.header_addr,
            key_addr=ll.store_key(keys_of(12)[2]),
            blocking=True,
        )
        outcome = sys_.fallback.execute(request, lambda: ll.lookup(keys_of(12)[2]))
        assert outcome.accelerated and outcome.value == 102
        assert sys_.fallback.fallback_fraction == 0.0


@pytest.mark.parametrize("scheme", [s.value for s in IntegrationScheme])
class TestInterruptFlush:
    """Satellite: flushed non-blocking queries leave FLUSH at result_addr."""

    def test_result_record_holds_abort_code(self, scheme):
        sys_ = make_system(scheme)
        ll = build_list(sys_, n=48)
        result_base = sys_.mem.alloc(16 * 4, align=64)
        handles = []
        for j in range(4):
            addr = result_base + 16 * j
            sys_.space.write_u64(addr, 0)
            sys_.space.write_u64(addr + 8, 0)
            handles.append(
                sys_.accelerator.submit(
                    QueryRequest(
                        header_addr=ll.header_addr,
                        key_addr=ll.store_key(ABSENT),
                        blocking=False,
                        result_addr=addr,
                    ),
                    sys_.engine.now,
                )
            )
        # Step until the queries occupy the QST, then raise the interrupt.
        guard = 0
        while sys_.accelerator.qst.occupancy == 0:
            assert sys_.engine.step(), "queries never reached the QST"
            guard += 1
            assert guard < 100_000
        finish = sys_.accelerator.flush()
        sys_.engine.run(until=max(finish, sys_.engine.now))
        aborted_with_record = 0
        for j, handle in enumerate(handles):
            if not handle.done:
                sys_.accelerator.wait_for(handle)
            if handle.status is not QueryStatus.ABORTED:
                continue
            assert handle.abort_code is AbortCode.FLUSH
            status, payload, code = read_result(sys_.space, result_base + 16 * j)
            if status:  # queued-then-flushed handles never get a write
                assert status == RESULT_ABORTED
                assert code is AbortCode.FLUSH
                aborted_with_record += 1
        assert aborted_with_record >= 1
        assert sys_.stats.counter("qei.abort.flush").value >= 1
