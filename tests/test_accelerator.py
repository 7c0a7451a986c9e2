"""Integration tests for the QEI accelerator against every data structure.

The key invariant: for any structure and any key, the accelerator's CFA walk
returns exactly the same value as the pure software reference lookup — on
every integration scheme.
"""

import hashlib
import json

import pytest

from repro import IntegrationScheme, small_config
from repro.core.abort import AbortCode
from repro.core.accelerator import QueryRequest, QueryStatus
from repro.core.cfa import RESULT_ABORTED, FirmwareImage
from repro.core.isa import read_result
from repro.core.programs import HashOfListsCfa, default_firmware
from repro.datastructs import (
    BinarySearchTree,
    CuckooHashTable,
    HashOfLists,
    LinkedList,
    SkipList,
    Trie,
)
from repro.errors import FirmwareError
from repro.system import System


def make_system(scheme="core-integrated"):
    sys_ = System(small_config(), scheme)
    return sys_


def keys_of(n, length=16):
    return [(b"k%d" % i).ljust(length, b"_")[:length] for i in range(n)]


def run_query(sys_, structure, key, *, blocking=True, result_addr=0):
    key_addr = structure.store_key(key) if hasattr(structure, "store_key") else None
    handle = sys_.accelerator.submit(
        QueryRequest(
            header_addr=structure.header_addr,
            key_addr=key_addr,
            blocking=blocking,
            result_addr=result_addr,
        ),
        sys_.engine.now,
    )
    sys_.accelerator.wait_for(handle)
    return handle


@pytest.fixture
def sys_():
    return make_system()


class TestCfaFunctionalAgreement:
    def test_linked_list(self, sys_):
        ll = LinkedList(sys_.mem, key_length=16)
        keys = keys_of(12)
        for i, k in enumerate(keys):
            ll.insert(k, 100 + i)
        for k in keys + [b"missing".ljust(16, b"_")]:
            handle = run_query(sys_, ll, k)
            assert handle.value == ll.lookup(k)

    def test_hash_table(self, sys_):
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        keys = keys_of(150)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        for k in keys[:30] + [b"absent".ljust(16, b"_")]:
            handle = run_query(sys_, ht, k)
            assert handle.value == ht.lookup(k)

    def test_skip_list(self, sys_):
        sl = SkipList(sys_.mem, key_length=16)
        keys = keys_of(80)
        for i, k in enumerate(keys):
            sl.insert(k, i)
        for k in keys[:20] + [b"absent".ljust(16, b"_")]:
            handle = run_query(sys_, sl, k)
            assert handle.value == sl.lookup(k)

    def test_binary_tree(self, sys_):
        bst = BinarySearchTree(sys_.mem, key_length=16)
        keys = keys_of(60)
        for i, k in enumerate(keys):
            bst.insert(k, i)
        for k in keys[:20] + [b"absent".ljust(16, b"_")]:
            handle = run_query(sys_, bst, k)
            assert handle.value == bst.lookup(k)

    def test_trie_exact(self, sys_):
        trie = Trie(sys_.mem, key_length=8)
        words = [b"cat", b"car", b"cart", b"dog"]
        for i, w in enumerate(words):
            trie.insert(w, i)
        trie.seal()
        for w in words:
            # Trie queries use padded fixed-length keys; store exact length
            # via a custom header is exercised in the snort workload; here
            # use keys that are exactly key_length long.
            pass
        trie8 = Trie(sys_.mem, key_length=4)
        for i, w in enumerate([b"abcd", b"abce", b"bcde"]):
            trie8.insert(w, i)
        trie8.seal()
        for w in [b"abcd", b"abce", b"bcde", b"zzzz"]:
            key_addr = sys_.mem.store_bytes(w)
            handle = sys_.accelerator.submit(
                QueryRequest(header_addr=trie8.header_addr, key_addr=key_addr),
                sys_.engine.now,
            )
            sys_.accelerator.wait_for(handle)
            assert handle.value == trie8.lookup(w)

    @pytest.mark.parametrize(
        "scheme",
        [s.value for s in IntegrationScheme],
    )
    def test_all_schemes_agree(self, scheme):
        sys_ = make_system(scheme)
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        keys = keys_of(50)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        for k in keys[:10]:
            handle = run_query(sys_, ht, k)
            assert handle.status is QueryStatus.FOUND
            assert handle.value == ht.lookup(k)


class TestQueryLifecycle:
    def test_blocking_query_has_latency(self, sys_):
        ll = LinkedList(sys_.mem, key_length=16)
        k = keys_of(1)[0]
        ll.insert(k, 7)
        handle = run_query(sys_, ll, k)
        assert handle.completion_cycle > handle.submit_cycle
        assert handle.status is QueryStatus.FOUND

    def test_not_found_status(self, sys_):
        ll = LinkedList(sys_.mem, key_length=16)
        ll.insert(keys_of(1)[0], 7)
        handle = run_query(sys_, ll, b"missing".ljust(16, b"_"))
        assert handle.status is QueryStatus.NOT_FOUND
        assert handle.value is None

    def test_non_blocking_writes_result_to_memory(self, sys_):
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        k = keys_of(1)[0]
        ht.insert(k, 42)
        result_addr = sys_.mem.alloc(16, align=8)
        handle = run_query(sys_, ht, k, blocking=False, result_addr=result_addr)
        assert handle.status is QueryStatus.FOUND
        assert sys_.space.read_u64(result_addr) == 1  # RESULT_FOUND
        assert sys_.space.read_u64(result_addr + 8) == 42

    def test_queries_overlap_in_flight(self, sys_):
        """N independent queries must take far less than N x single latency."""
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=256)
        keys = keys_of(100)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        # Single-query latency.
        single = run_query(sys_, ht, keys[0])
        single_latency = single.completion_cycle - single.submit_cycle
        # Ten concurrent queries.
        start = sys_.engine.now
        handles = []
        for k in keys[1:11]:
            key_addr = ht.store_key(k)
            handles.append(
                sys_.accelerator.submit(
                    QueryRequest(header_addr=ht.header_addr, key_addr=key_addr),
                    start,
                )
            )
        done = max(sys_.accelerator.wait_for(h) for h in handles)
        assert done - start < 10 * single_latency * 0.6

    def test_qst_overflow_queues_rather_than_drops(self, sys_):
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        keys = keys_of(40)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        capacity = sys_.accelerator.qst.capacity
        handles = []
        for k in keys:  # 40 > 10 QST entries
            key_addr = ht.store_key(k)
            handles.append(
                sys_.accelerator.submit(
                    QueryRequest(header_addr=ht.header_addr, key_addr=key_addr),
                    sys_.engine.now,
                )
            )
        for h in handles:
            sys_.accelerator.wait_for(h)
        assert all(h.status is QueryStatus.FOUND for h in handles)
        assert sys_.accelerator.qst.occupancy == 0
        assert capacity == 10


class TestExceptions:
    def test_bad_header_faults(self, sys_):
        bogus_header = sys_.mem.alloc(64, align=64)  # zeroed: invalid flags
        key_addr = sys_.mem.store_bytes(b"x" * 16)
        handle = sys_.accelerator.submit(
            QueryRequest(header_addr=bogus_header, key_addr=key_addr),
            0,
        )
        sys_.accelerator.wait_for(handle)
        assert handle.status is QueryStatus.FAULT

    def test_unmapped_structure_faults_not_crashes(self, sys_):
        ll = LinkedList(sys_.mem, key_length=16)
        ll.insert(keys_of(1)[0], 1)
        # Corrupt the root pointer to an unmapped page.
        sys_.space.write_u64(ll.header_addr, 0xDEAD0000)
        handle = run_query(sys_, ll, keys_of(1)[0])
        assert handle.status is QueryStatus.FAULT
        assert "0x" in handle.fault_detail or handle.fault_detail

    def test_nonblocking_fault_writes_error_code(self, sys_):
        ll = LinkedList(sys_.mem, key_length=16)
        ll.insert(keys_of(1)[0], 1)
        sys_.space.write_u64(ll.header_addr, 0xDEAD0000)
        result_addr = sys_.mem.alloc(16)
        handle = run_query(
            sys_, ll, keys_of(1)[0], blocking=False, result_addr=result_addr
        )
        assert handle.status is QueryStatus.FAULT
        assert sys_.space.read_u64(result_addr) == 3  # RESULT_FAULT


class TestDispatchRoute:
    """Queries no firmware table entry covers run the per-step dispatch route.

    An unregistered header type (hash-of-lists before its firmware is
    loaded) faults BAD_TYPE and an unmapped header page faults SEGFAULT.
    Completion cycles are pinned, including the interleaving with ordinary
    linked-list lookups in the same burst.
    """

    UNMAPPED = 0xDEAD0000

    #: scheme -> (burst [(abort code, completion cycle)], single BAD_TYPE
    #: (submit, completion), single SEGFAULT (submit, completion)).
    EXPECTED = {
        "core-integrated": (
            [
                (AbortCode.NONE, 723),
                (AbortCode.BAD_TYPE, 19),
                (AbortCode.NONE, 634),
                (AbortCode.SEGFAULT, 21),
                (AbortCode.NONE, 598),
            ],
            (723, 741),
            (741, 759),
        ),
        "cha-tlb": (
            [
                (AbortCode.NONE, 921),
                (AbortCode.BAD_TYPE, 51),
                (AbortCode.NONE, 841),
                (AbortCode.SEGFAULT, 52),
                (AbortCode.NONE, 781),
            ],
            (921, 971),
            (971, 1021),
        ),
    }

    @pytest.mark.parametrize("scheme", sorted(EXPECTED))
    def test_bad_type_and_unmapped_header_timing(self, scheme):
        sys_ = make_system(scheme)
        accel = sys_.accelerator
        ll = LinkedList(sys_.mem, key_length=16)
        keys = keys_of(6)
        for i, k in enumerate(keys):
            ll.insert(k, i + 1)
        hol = HashOfLists(sys_.mem, key_length=16)
        hol.insert(keys[0], 9)

        def bad_type():
            return QueryRequest(hol.header_addr, hol.store_key(keys[0]))

        def unmapped():
            return QueryRequest(self.UNMAPPED, ll.store_key(keys[0]))

        burst = [QueryRequest(ll.header_addr, ll.store_key(k)) for k in keys[:3]]
        burst.insert(1, bad_type())
        burst.insert(3, unmapped())
        handles = [accel.submit(request, 0) for request in burst]
        accel.drain()
        expected_burst, single_bad, single_unmapped = self.EXPECTED[scheme]
        assert [(h.abort_code, h.completion_cycle) for h in handles] == expected_burst
        assert [h.value for h in handles] == [1, None, 2, None, 3]

        for request, code, (submit, finish) in (
            (bad_type(), AbortCode.BAD_TYPE, single_bad),
            (unmapped(), AbortCode.SEGFAULT, single_unmapped),
        ):
            handle = accel.submit(request, sys_.engine.now)
            accel.wait_for(handle)
            assert handle.status is QueryStatus.FAULT
            assert (handle.abort_code, handle.submit_cycle) == (code, submit)
            assert handle.completion_cycle == finish
        assert handles[1].fault_detail == (
            f"no CFA program loaded for structure type {hol.header().type_code}"
        )


class TestFlush:
    def test_flush_aborts_nonblocking_with_code(self, sys_):
        # More queries than QST entries: the flush catches some in the QST
        # and the rest in the overflow queue, and both get the abort record.
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        keys = keys_of(sys_.accelerator.qst.capacity + 5)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        result_addrs = [sys_.mem.alloc(16) for _ in keys]
        handles = []
        for k, ra in zip(keys, result_addrs):
            key_addr = ht.store_key(k)
            handles.append(
                sys_.accelerator.submit(
                    QueryRequest(
                        header_addr=ht.header_addr,
                        key_addr=key_addr,
                        blocking=False,
                        result_addr=ra,
                    ),
                    sys_.engine.now,
                )
            )
        # Let them arrive in the QST, then flush (context switch).
        sys_.engine.advance(60)
        assert sys_.accelerator.qst.occupancy == sys_.accelerator.qst.capacity
        sys_.accelerator.flush()
        assert sys_.accelerator.qst.occupancy == 0
        assert sys_.accelerator.in_flight == 0
        aborted = [h for h in handles if h.status is QueryStatus.ABORTED]
        assert len(aborted) > sys_.accelerator.qst.capacity
        for h in aborted:
            assert read_result(sys_.space, h.request.result_addr) == (
                RESULT_ABORTED, int(AbortCode.FLUSH), AbortCode.FLUSH,
            )
        assert sys_.stats.counter("qei.abort.flush").value == len(aborted)

    @pytest.mark.parametrize(
        "flush, status, code",
        [
            (False, QueryStatus.FAULT, AbortCode.SEGFAULT),
            (True, QueryStatus.ABORTED, AbortCode.FLUSH),
        ],
        ids=["retire", "flush"],
    )
    def test_unwritable_result_record_frees_the_entry(self, sys_, flush, status, code):
        # The result record sits on a page of its own, unmapped before the
        # query ends: the record store faults, not the walk.  Retiring it
        # ends the query FAULT with the memory code; a flush aborts it
        # without the record.
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        ht.insert(keys_of(1)[0], 7)
        page = sys_.space.page_bytes
        result_addr = sys_.mem.alloc(2 * page)
        result_addr += -result_addr % page
        sys_.space.unmap_page(result_addr)
        handle = sys_.accelerator.submit(
            QueryRequest(
                header_addr=ht.header_addr,
                key_addr=ht.store_key(keys_of(1)[0]),
                blocking=False,
                result_addr=result_addr,
            ),
            sys_.engine.now,
        )
        if flush:
            sys_.engine.advance(60)
            assert sys_.accelerator.qst.occupancy == 1
            sys_.accelerator.flush()
        sys_.accelerator.drain()
        assert handle.status is status
        assert handle.abort_code is code
        assert sys_.accelerator.qst.occupancy == 0
        assert sys_.accelerator.in_flight == 0

    def test_flush_then_refill_keeps_cycles(self, sys_):
        # A full QST of walks is flushed while their wakes are still queued
        # as engine events; a fresh batch then reallocates the freed slots
        # before those stale events fire.  They must fire as no-ops: every
        # handle's outcome and cycle, and the whole stats snapshot, pinned.
        accelerator = sys_.accelerator
        capacity = accelerator.qst.capacity
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        keys = keys_of(2 * capacity)
        for i, k in enumerate(keys):
            ht.insert(k, i)

        def submit(batch):
            return [
                accelerator.submit(
                    QueryRequest(
                        header_addr=ht.header_addr,
                        key_addr=ht.store_key(k),
                        blocking=False,
                        result_addr=sys_.mem.alloc(16),
                    ),
                    sys_.engine.now,
                )
                for k in batch
            ]

        first = submit(keys[:capacity])
        sys_.engine.advance(60)
        assert accelerator.qst.occupancy == capacity
        accelerator.flush()
        assert sys_.engine.pending() > 0  # the flushed walks' wakes
        second = submit(keys[capacity:])
        accelerator.drain()
        outcome = [
            (h.status, h.abort_code, h.value, h.completion_cycle)
            for h in first + second
        ]
        assert outcome[:capacity] == [
            (QueryStatus.ABORTED, AbortCode.FLUSH, None, 60)
        ] * capacity
        assert outcome[capacity:] == [
            (QueryStatus.FOUND, AbortCode.NONE, capacity + i, cycle)
            for i, cycle in enumerate(
                [605, 608, 602, 606, 588, 607, 389, 610, 604, 609]
            )
        ]
        payload = json.dumps(sorted(sys_.stats.snapshot().items()), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "9b5e56035bd5b406d7137a27d04d8729219a5b890d44e2d5050851475d64983b"
        )

    def test_flush_empty_accelerator_is_noop(self, sys_):
        assert sys_.accelerator.flush() == sys_.engine.now


class TestPoll:
    def test_poll_empty_handle_list(self, sys_):
        assert sys_.accelerator.poll([]) == []

    def test_poll_reports_flushed_handles_terminal(self, sys_):
        # Handles from a flushed batch are stale generations: poll must
        # report them terminal (done, ABORTED) rather than leave the
        # caller spinning on a batch the QST no longer tracks.
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        keys = keys_of(4)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        handles = []
        for k in keys:
            handles.append(
                sys_.accelerator.submit(
                    QueryRequest(
                        header_addr=ht.header_addr,
                        key_addr=ht.store_key(k),
                        blocking=False,
                        result_addr=sys_.mem.alloc(16),
                    ),
                    sys_.engine.now,
                )
            )
        sys_.engine.advance(60)  # arrive in the QST
        sys_.accelerator.flush()
        sys_.engine.run()
        done = sys_.accelerator.poll(handles)
        assert done == handles, "every flushed handle must be terminal"
        for handle in done:
            assert handle.status in (
                QueryStatus.ABORTED,
                QueryStatus.FOUND,
                QueryStatus.NOT_FOUND,
            )

    def test_poll_reports_slice_failed_handles_terminal(self, sys_):
        ht = CuckooHashTable(sys_.mem, key_length=16, num_buckets=64)
        keys = keys_of(4)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        handles = []
        for k in keys:
            handles.append(
                sys_.accelerator.submit(
                    QueryRequest(
                        header_addr=ht.header_addr,
                        key_addr=ht.store_key(k),
                        blocking=False,
                        result_addr=sys_.mem.alloc(16),
                    ),
                    sys_.engine.now,
                )
            )
        sys_.engine.advance(5)
        for home in sys_.integration.accelerator_homes():
            sys_.accelerator.fail_home(home)
        sys_.engine.run()
        done = sys_.accelerator.poll(handles)
        assert done == handles, "aborted-batch handles must not hang poll"


class TestFirmwareUpdate:
    def test_unknown_type_faults_without_firmware(self, sys_):
        hol = HashOfLists(sys_.mem, key_length=16)
        hol.insert(keys_of(1)[0], 9)
        handle = run_query(sys_, hol, keys_of(1)[0])
        assert handle.status is QueryStatus.FAULT  # no CFA program loaded

    def test_runtime_firmware_registration(self, sys_):
        sys_.firmware.register(HashOfListsCfa())
        hol = HashOfLists(sys_.mem, key_length=16, num_buckets=8)
        keys = keys_of(25)
        for i, k in enumerate(keys):
            hol.insert(k, i)
        for k in keys[:8] + [b"no".ljust(16, b"_")]:
            handle = run_query(sys_, hol, k)
            assert handle.value == hol.lookup(k)

    def test_duplicate_registration_rejected(self):
        fw = default_firmware()
        with pytest.raises(FirmwareError):
            fw.register(HashOfListsCfa().__class__())  # fresh instance, fine
            fw.register(HashOfListsCfa())

    def test_replace_firmware(self):
        fw = default_firmware()
        fw.register(HashOfListsCfa())
        fw.register(HashOfListsCfa(), replace=True)
        assert fw.supports(int(HashOfListsCfa.TYPE_CODE))

    def test_state_budget_enforced(self):
        fw = FirmwareImage(max_states=4)
        with pytest.raises(FirmwareError):
            fw.register(HashOfListsCfa())
