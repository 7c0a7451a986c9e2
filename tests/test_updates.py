"""Tests for software-side update operations (Sec. IV-A).

Updates stay in software; these tests verify the hash table stays
consistent after deletes — including that the *accelerator* sees the
post-update state, since QEI reads the same simulated memory.
"""

import pytest

from repro import small_config
from repro.core.accelerator import QueryRequest, QueryStatus
from repro.datastructs import CuckooHashTable, ProcessMemory
from repro.system import System


def keys_of(n, length=16):
    return [(b"k%d" % i).ljust(length, b"_") for i in range(n)]


@pytest.fixture
def mem():
    return ProcessMemory(physical_bytes=64 * 1024 * 1024)


class TestHashTableDelete:
    def test_delete_then_lookup_misses(self, mem):
        ht = CuckooHashTable(mem, key_length=16, num_buckets=64)
        keys = keys_of(80)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        assert ht.delete(keys[10])
        assert ht.lookup(keys[10]) is None
        assert len(ht) == 79
        # The rest survive.
        assert all(ht.lookup(k) == i for i, k in enumerate(keys) if i != 10)

    def test_slot_is_reusable_after_delete(self, mem):
        ht = CuckooHashTable(mem, key_length=16, num_buckets=64)
        keys = keys_of(50)
        for i, k in enumerate(keys):
            ht.insert(k, i)
        ht.delete(keys[5])
        ht.insert(keys[5], 555)
        assert ht.lookup(keys[5]) == 555

    def test_delete_absent(self, mem):
        ht = CuckooHashTable(mem, key_length=16, num_buckets=64)
        assert not ht.delete(keys_of(1)[0])


class TestAcceleratorSeesUpdates:
    """QEI reads the same bytes: post-update queries must reflect updates."""

    def test_query_after_delete(self):
        system = System(small_config())
        ht = CuckooHashTable(system.mem, key_length=16, num_buckets=64)
        keys = keys_of(30)
        for i, k in enumerate(keys):
            ht.insert(k, i)

        def query(k):
            handle = system.accelerator.submit(
                QueryRequest(header_addr=ht.header_addr, key_addr=ht.store_key(k)),
                system.engine.now,
            )
            system.accelerator.wait_for(handle)
            return handle

        assert query(keys[3]).value == 3
        ht.delete(keys[3])
        after = query(keys[3])
        assert after.status is QueryStatus.NOT_FOUND
        ht.insert(keys[3], 777)
        assert query(keys[3]).value == 777
