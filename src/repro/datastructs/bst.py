"""A binary search tree in simulated memory (the JVM object-tree stand-in).

Node layout (32 bytes)::

    offset 0:  u64 key_ptr  -> key bytes
    offset 8:  u64 value    (object payload / mark word)
    offset 16: u64 left
    offset 24: u64 right

The JVM workload uses this as the live-object tree a serial mark-and-sweep
collector walks; each "query" descends from the root to an object, which
gives the long pointer-chasing chains (tens of memory accesses per query)
the paper reports for the JVM benchmark.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..core.header import StructureType
from ..cpu.trace import TraceBuilder
from .base import (
    DIRECTION_MISPREDICT_RATE,
    MATCH_EXIT_MISPREDICT_RATE,
    ProcessMemory,
    SimStructure,
)
from .hashing import branch_outcome

NODE_BYTES = 32
#: Per-node software bookkeeping the baseline pays during traversal: the
#: JVM's object walk tests mark words, loads klass pointers and runs write
#: barriers around every visited object (dependent work after the node
#: load) — part of why the paper finds tree queries frontend-bound.
VISIT_INSTRUCTIONS = 12
#: Frontend redirect every other visited node: barrier/marking code paths
#: alternate data-dependently, defeating the fetch unit.
IFETCH_STALL_CYCLES = 14


class BinarySearchTree(SimStructure):
    """Unbalanced BST ordered by memcmp over out-of-line keys."""

    TYPE = StructureType.BINARY_TREE

    def __init__(self, mem: ProcessMemory, *, key_length: int) -> None:
        super().__init__(mem, key_length=key_length)
        self._count = 0

    # ------------------------------------------------------------------ #

    def _key_of(self, node: int) -> bytes:
        key_ptr = self.mem.space.read_u64(node)
        return self.mem.space.read(key_ptr, self.key_length)

    def _child(self, node: int, right: bool) -> int:
        return self.mem.space.read_u64(node + (24 if right else 16))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def insert(self, key: bytes, value: int) -> int:
        key = self._check_key(key)
        space = self.mem.space
        root = self.header().root_ptr

        parent, go_right = 0, False
        node = root
        while node:
            node_key = self._key_of(node)
            if key == node_key:
                space.write_u64(node + 8, value)
                return node
            parent, go_right = node, key > node_key
            node = self._child(node, go_right)

        key_addr = self.mem.store_bytes(key)
        new_node = self.mem.alloc(NODE_BYTES, align=8)
        space.write_u64(new_node + 0, key_addr)
        space.write_u64(new_node + 8, value)
        space.write_u64(new_node + 16, 0)
        space.write_u64(new_node + 24, 0)
        if parent:
            space.write_u64(parent + (24 if go_right else 16), new_node)
        else:
            self._update_header(root_ptr=new_node)
        self._count += 1
        self._update_header(size=self._count)
        return new_node

    def items(self) -> Iterator[Tuple[bytes, int]]:
        """In-order traversal (iterative, to survive deep trees)."""
        stack = []
        node = self.header().root_ptr
        while stack or node:
            while node:
                stack.append(node)
                node = self._child(node, right=False)
            node = stack.pop()
            yield self._key_of(node), self.mem.space.read_u64(node + 8)
            node = self._child(node, right=True)

    def depth_of(self, key: bytes) -> int:
        """Number of nodes on the root-to-key path (0 if absent)."""
        node = self.header().root_ptr
        depth = 0
        while node:
            depth += 1
            node_key = self._key_of(node)
            if node_key == key:
                return depth
            node = self._child(node, key > node_key)
        return 0

    # ------------------------------------------------------------------ #
    # Query — functional reference
    # ------------------------------------------------------------------ #

    def lookup(self, key: bytes) -> Optional[int]:
        key = self._check_key(key)
        node = self.header().root_ptr
        while node:
            node_key = self._key_of(node)
            if key == node_key:
                return self.mem.space.read_u64(node + 8)
            node = self._child(node, key > node_key)
        return None

    # ------------------------------------------------------------------ #
    # Query — software baseline (functional + micro-op trace)
    # ------------------------------------------------------------------ #

    def emit_lookup(
        self, builder: TraceBuilder, key_addr: int, key: bytes
    ) -> Optional[int]:
        key = self._check_key(key)
        space = self.mem.space

        header_load = builder.load(self.header_addr)
        cursor = builder.alu(deps=(header_load,))
        node = space.read_u64(self.header_addr)
        depth = 0

        while node:
            node_loads = builder.load_span(node, NODE_BYTES, (cursor,))
            if depth % 2:
                builder.ifetch_stall(IFETCH_STALL_CYCLES)
            visit = builder.alu(deps=tuple(node_loads), count=VISIT_INSTRUCTIONS)
            key_ptr = space.read_u64(node)
            cmp_op = self._emit_memcmp(
                builder, key_ptr, key_addr, self.key_length, (visit,)
            )
            node_key = space.read(key_ptr, self.key_length)
            if node_key == key:
                builder.branch(
                    deps=(cmp_op,),
                    mispredicted=branch_outcome(
                        key, depth, MATCH_EXIT_MISPREDICT_RATE
                    ),
                )
                builder.load(node + 8, (cmp_op,))
                return space.read_u64(node + 8)
            # Direction branch: essentially random on hashed keys.
            builder.branch(
                deps=(cmp_op,),
                mispredicted=branch_outcome(key, depth, DIRECTION_MISPREDICT_RATE),
            )
            cursor = builder.alu(deps=(cmp_op,))
            node = self._child(node, key > node_key)
            depth += 1

        builder.branch(deps=(cursor,), mispredicted=True)  # null exit
        return None
