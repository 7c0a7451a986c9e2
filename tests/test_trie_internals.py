"""Extra trie internals: serialization, edge search, seal semantics."""

import pytest

from repro.datastructs import AhoCorasickTrie, ProcessMemory, Trie
from repro.datastructs.trie import EDGE_BYTES
from repro.errors import DataStructureError


@pytest.fixture
def mem():
    return ProcessMemory(physical_bytes=32 * 1024 * 1024)


class TestSerialization:
    def test_seal_is_idempotent(self, mem):
        trie = Trie(mem, key_length=8)
        trie.insert(b"abc", 1)
        trie.seal()
        root = trie.header().root_ptr
        trie.seal()
        assert trie.header().root_ptr == root

    def test_insert_after_seal_rejected(self, mem):
        trie = Trie(mem, key_length=8)
        trie.insert(b"a", 0)
        trie.seal()
        with pytest.raises(DataStructureError):
            trie.insert(b"b", 1)

    def test_edges_serialized_sorted(self, mem):
        trie = Trie(mem, key_length=8)
        for byte in (0x7A, 0x41, 0x5A, 0x30):  # unsorted insert order
            trie.insert(bytes([byte]), byte)
        trie.seal()
        root = trie.header().root_ptr
        _, _, count, edges_ptr = trie._node_fields(root)
        assert count == 4
        stored = [
            mem.space.read_u64(edges_ptr + i * EDGE_BYTES) for i in range(count)
        ]
        assert stored == sorted(stored)

    def test_node_count_in_header(self, mem):
        trie = Trie(mem, key_length=8)
        trie.insert(b"ab", 0)
        trie.insert(b"ac", 1)
        trie.seal()
        # root + 'a' + 'b' + 'c' = 4 nodes
        assert trie.header().size == 4

    def test_empty_key_rejected(self, mem):
        trie = Trie(mem, key_length=8)
        with pytest.raises(DataStructureError):
            trie.insert(b"", 1)

    def test_negative_value_rejected(self, mem):
        trie = Trie(mem, key_length=8)
        with pytest.raises(DataStructureError):
            trie.insert(b"a", -1)


class TestEdgeSearch:
    def test_find_edge_early_exit_on_sorted_order(self, mem):
        trie = Trie(mem, key_length=8)
        trie.insert(bytes([10]), 0)
        trie.insert(bytes([200]), 1)
        trie.seal()
        root = trie.header().root_ptr
        # Searching for byte 50 stops at the first greater edge (200).
        child, probes = trie._find_edge(root, 50)
        assert child == 0
        assert probes == 2

    def test_find_edge_hit_returns_child(self, mem):
        trie = Trie(mem, key_length=8)
        trie.insert(bytes([7, 9]), 3)
        trie.seal()
        root = trie.header().root_ptr
        child, _ = trie._find_edge(root, 7)
        assert child != 0
        grand, _ = trie._find_edge(child, 9)
        assert grand != 0


class TestAhoCorasickLinks:
    def test_fail_links_point_to_longest_proper_suffix(self, mem):
        ac = AhoCorasickTrie(mem, key_length=16)
        ac.insert(b"ab", 0)
        ac.insert(b"bab", 1)
        ac.seal()
        # Node for "bab": its fail must be the node for "ab".
        root = ac.header().root_ptr
        node_b, _ = ac._find_edge(root, ord("b"))
        node_ba, _ = ac._find_edge(node_b, ord("a"))
        node_bab, _ = ac._find_edge(node_ba, ord("b"))
        node_a, _ = ac._find_edge(root, ord("a"))
        node_ab, _ = ac._find_edge(node_a, ord("b"))
        fail_of_bab = ac._node_fields(node_bab)[0]
        assert fail_of_bab == node_ab

    def test_root_children_fail_to_root(self, mem):
        ac = AhoCorasickTrie(mem, key_length=16)
        ac.insert(b"x", 0)
        ac.seal()
        root = ac.header().root_ptr
        node_x, _ = ac._find_edge(root, ord("x"))
        assert ac._node_fields(node_x)[0] == root

    def test_overlapping_matches_counted_per_position(self, mem):
        ac = AhoCorasickTrie(mem, key_length=16)
        ac.insert(b"aa", 0)
        ac.seal()
        matches = ac.match(b"aaaa")
        assert [p for p, _ in matches] == [1, 2, 3]
