"""A B+-tree in simulated memory (database index traversal).

The paper positions QEI against index-traversal accelerators ("Meet the
walkers" accelerates B+-tree index lookups for in-memory databases); this
module provides that structure as a *firmware extension*: its CFA program
(:class:`repro.core.programs_ext.BPlusTreeCfa`) is not part of the default
image and is registered at runtime, exercising the paper's
firmware-update path on a second, realistic structure.

Layout — inner and leaf nodes share one frame so the CFA can parse either::

    offset 0:  u64 flags        (bit0: 1 = leaf)
    offset 8:  u64 key_count
    offset 16: u64 next_leaf    (leaf-level linked list; 0 for inner nodes)
    offset 24: u64 keys_ptr     -> key_count keys, each key_length bytes
    offset 32: u64 slots_ptr    -> values (leaf) or children (inner)

Inner nodes hold ``key_count + 1`` children; child ``i`` covers keys
``< keys[i]``, the last child covers the rest.  Leaves hold ``key_count``
values aligned with their keys.  Fan-out is fixed at build time; the tree
is bulk-loaded from sorted input (the common shape for in-memory index
snapshots).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.header import StructureType
from ..errors import DataStructureError
from ..cpu.trace import TraceBuilder
from .base import (
    DIRECTION_MISPREDICT_RATE,
    MATCH_EXIT_MISPREDICT_RATE,
    ProcessMemory,
    SimStructure,
)
from .hashing import branch_outcome

NODE_HEADER_BYTES = 40
LEAF_FLAG = 0x1
#: Per-level software bookkeeping: bounds checks and slot arithmetic of a
#: database index walker.
LEVEL_INSTRUCTIONS = 10


class BPlusTree(SimStructure):
    """Bulk-loaded B+-tree with fixed fan-out and out-of-line key arrays."""

    TYPE = StructureType.BPLUS_TREE

    def __init__(
        self,
        mem: ProcessMemory,
        *,
        key_length: int,
        fanout: int = 8,
    ) -> None:
        if not 2 <= fanout <= 64:
            raise DataStructureError("fanout must be in [2, 64]")
        super().__init__(mem, key_length=key_length, subtype=fanout)
        self.fanout = fanout
        self._built = False
        self.height = 0

    # ------------------------------------------------------------------ #
    # Construction (bulk load from sorted pairs)
    # ------------------------------------------------------------------ #

    def bulk_load(self, items: Sequence[Tuple[bytes, int]]) -> None:
        """Build the tree from (key, value) pairs; keys must be unique."""
        if self._built:
            raise DataStructureError("B+-tree is already built")
        if not items:
            raise DataStructureError("cannot bulk-load an empty tree")
        pairs = sorted((self._check_key(k), v) for k, v in items)
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a == b:
                raise DataStructureError(f"duplicate key {a!r}")

        # Build the leaf level.
        leaves: List[int] = []
        level_seps: List[bytes] = []  # first key of each node after the 0th
        for start in range(0, len(pairs), self.fanout):
            chunk = pairs[start : start + self.fanout]
            node = self._write_node(
                leaf=True,
                keys=[k for k, _ in chunk],
                slots=[v for _, v in chunk],
            )
            leaves.append(node)
        for prev, nxt in zip(leaves, leaves[1:]):
            self.mem.space.write_u64(prev + 16, nxt)

        # Build inner levels up to a single root.
        level_nodes = leaves
        level_first_keys = [pairs[0][0]] + [
            pairs[start][0] for start in range(self.fanout, len(pairs), self.fanout)
        ]
        self.height = 1
        while len(level_nodes) > 1:
            parents: List[int] = []
            parent_first_keys: List[bytes] = []
            group = self.fanout
            for start in range(0, len(level_nodes), group):
                children = level_nodes[start : start + group]
                seps = level_first_keys[start + 1 : start + len(children)]
                node = self._write_node(leaf=False, keys=seps, slots=children)
                parents.append(node)
                parent_first_keys.append(level_first_keys[start])
            level_nodes = parents
            level_first_keys = parent_first_keys
            self.height += 1
        self._update_header(root_ptr=level_nodes[0], size=len(pairs))
        self._built = True

    def _write_node(self, *, leaf: bool, keys: List[bytes], slots: List[int]) -> int:
        space = self.mem.space
        node = self.mem.alloc(NODE_HEADER_BYTES, align=8)
        keys_ptr = (
            self.mem.store_bytes(b"".join(keys)) if keys else 0
        )
        slots_ptr = self.mem.alloc(8 * max(1, len(slots)), align=8)
        for i, slot in enumerate(slots):
            space.write_u64(slots_ptr + 8 * i, slot)
        space.write_u64(node + 0, LEAF_FLAG if leaf else 0)
        space.write_u64(node + 8, len(keys))
        space.write_u64(node + 16, 0)
        space.write_u64(node + 24, keys_ptr)
        space.write_u64(node + 32, slots_ptr)
        return node

    # ------------------------------------------------------------------ #
    # Node parsing helpers
    # ------------------------------------------------------------------ #

    def _fields(self, node: int) -> Tuple[int, int, int, int, int]:
        space = self.mem.space
        return (
            space.read_u64(node + 0),
            space.read_u64(node + 8),
            space.read_u64(node + 16),
            space.read_u64(node + 24),
            space.read_u64(node + 32),
        )

    def _node_key(self, keys_ptr: int, index: int) -> bytes:
        return self.mem.space.read(
            keys_ptr + index * self.key_length, self.key_length
        )

    def _require_built(self) -> None:
        if not self._built:
            raise DataStructureError("bulk_load() the tree before querying")

    def __len__(self) -> int:
        return self.header().size if self._built else 0

    # ------------------------------------------------------------------ #
    # Query — functional reference
    # ------------------------------------------------------------------ #

    def lookup(self, key: bytes) -> Optional[int]:
        self._require_built()
        key = self._check_key(key)
        node = self.header().root_ptr
        while True:
            flags, count, _, keys_ptr, slots_ptr = self._fields(node)
            if flags & LEAF_FLAG:
                for i in range(count):
                    if self._node_key(keys_ptr, i) == key:
                        return self.mem.space.read_u64(slots_ptr + 8 * i)
                return None
            child_index = count  # rightmost unless a separator exceeds key
            for i in range(count):
                if key < self._node_key(keys_ptr, i):
                    child_index = i
                    break
            node = self.mem.space.read_u64(slots_ptr + 8 * child_index)

    def items(self) -> Iterator[Tuple[bytes, int]]:
        """Leaf-level scan in key order (via the leaf linked list)."""
        self._require_built()
        node = self.header().root_ptr
        flags, count, _, keys_ptr, slots_ptr = self._fields(node)
        while not flags & LEAF_FLAG:
            node = self.mem.space.read_u64(slots_ptr)
            flags, count, _, keys_ptr, slots_ptr = self._fields(node)
        while node:
            flags, count, next_leaf, keys_ptr, slots_ptr = self._fields(node)
            for i in range(count):
                yield (
                    self._node_key(keys_ptr, i),
                    self.mem.space.read_u64(slots_ptr + 8 * i),
                )
            node = next_leaf

    def range_count(self, low: bytes, high: bytes) -> int:
        """Keys in [low, high] — index range scans, the other common op."""
        return sum(1 for k, _ in self.items() if low <= k <= high)

    # ------------------------------------------------------------------ #
    # Query — software baseline (functional + micro-op trace)
    # ------------------------------------------------------------------ #

    def emit_lookup(
        self, builder: TraceBuilder, key_addr: int, key: bytes
    ) -> Optional[int]:
        self._require_built()
        key = self._check_key(key)
        space = self.mem.space
        header_load = builder.load(self.header_addr)
        builder.load_span(key_addr, self.key_length)
        cursor = builder.alu(deps=(header_load,))
        node = space.read_u64(self.header_addr)
        depth = 0

        while True:
            node_loads = builder.load_span(node, NODE_HEADER_BYTES, (cursor,))
            level = builder.alu(deps=tuple(node_loads), count=LEVEL_INSTRUCTIONS)
            flags, count, _, keys_ptr, slots_ptr = self._fields(node)
            if flags & LEAF_FLAG:
                for i in range(count):
                    cmp_op = self._emit_memcmp(
                        builder,
                        keys_ptr + i * self.key_length,
                        key_addr,
                        self.key_length,
                        (level,),
                    )
                    matched = self._node_key(keys_ptr, i) == key
                    builder.branch(
                        deps=(cmp_op,),
                        mispredicted=matched
                        and branch_outcome(key, depth, MATCH_EXIT_MISPREDICT_RATE),
                    )
                    if matched:
                        builder.load(slots_ptr + 8 * i, (cmp_op,))
                        return space.read_u64(slots_ptr + 8 * i)
                builder.branch(deps=(level,), mispredicted=True)
                return None
            # Inner node: binary-search-ish separator scan.
            child_index = count
            for i in range(count):
                cmp_op = self._emit_memcmp(
                    builder,
                    keys_ptr + i * self.key_length,
                    key_addr,
                    self.key_length,
                    (level,),
                )
                builder.branch(
                    deps=(cmp_op,),
                    mispredicted=branch_outcome(
                        key, depth * 64 + i, DIRECTION_MISPREDICT_RATE
                    ),
                )
                if key < self._node_key(keys_ptr, i):
                    child_index = i
                    break
            child_load = builder.load(slots_ptr + 8 * child_index, (level,))
            cursor = builder.alu(deps=(child_load,))
            node = space.read_u64(slots_ptr + 8 * child_index)
            depth += 1
