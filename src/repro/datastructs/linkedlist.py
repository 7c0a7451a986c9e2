"""A singly linked list in simulated memory (paper List 1 / Fig. 3).

Node layout (24 bytes)::

    offset 0:  u64 key_ptr    -> key bytes (key_length long)
    offset 8:  u64 value
    offset 16: u64 next_ptr   -> next node, 0 terminates

Keys live out-of-line, exactly like the C routine in the paper's List 1
(``memcmp(current->_key, key, KEY_LENGTH)``), so every probe costs a node
load *and* a key load.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..core.header import StructureType
from ..cpu.trace import TraceBuilder
from .base import MATCH_EXIT_MISPREDICT_RATE, ProcessMemory, SimStructure
from .hashing import branch_outcome

NODE_BYTES = 24
#: Per-node software bookkeeping (loop control, pointer checks, accounting).
VISIT_INSTRUCTIONS = 6


class LinkedList(SimStructure):
    """Singly linked list with out-of-line keys."""

    TYPE = StructureType.LINKED_LIST

    def __init__(self, mem: ProcessMemory, *, key_length: int) -> None:
        super().__init__(mem, key_length=key_length)
        self._count = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def insert(self, key: bytes, value: int) -> int:
        """Prepend a node; returns its address.  O(1), like typical lists."""
        key = self._check_key(key)
        key_addr = self.mem.store_bytes(key)
        node = self.mem.alloc(NODE_BYTES, align=8)
        space = self.mem.space
        head = self.header().root_ptr
        space.write_u64(node + 0, key_addr)
        space.write_u64(node + 8, value)
        space.write_u64(node + 16, head)
        self._update_header(root_ptr=node)
        self._count += 1
        return node

    def __len__(self) -> int:
        return self._count

    def nodes(self) -> Iterator[Tuple[int, bytes, int]]:
        """Yield (node_addr, key, value) in list order."""
        space = self.mem.space
        node = self.header().root_ptr
        while node:
            key_addr = space.read_u64(node + 0)
            yield node, space.read(key_addr, self.key_length), space.read_u64(node + 8)
            node = space.read_u64(node + 16)

    # ------------------------------------------------------------------ #
    # Query — functional reference
    # ------------------------------------------------------------------ #

    def lookup(self, key: bytes) -> Optional[int]:
        key = self._check_key(key)
        for _, node_key, value in self.nodes():
            if node_key == key:
                return value
        return None

    # ------------------------------------------------------------------ #
    # Query — software baseline (functional + micro-op trace)
    # ------------------------------------------------------------------ #

    def emit_lookup(
        self, builder: TraceBuilder, key_addr: int, key: bytes
    ) -> Optional[int]:
        """Walk the list like the C routine in List 1, emitting its trace."""
        key = self._check_key(key)
        space = self.mem.space

        header_load = builder.load(self.header_addr)
        node = space.read_u64(self.header_addr)  # root_ptr field
        current = builder.alu(deps=(header_load,))
        probes = 0

        while node:
            # Load the node (key_ptr/value/next share one or two lines).
            node_loads = builder.load_span(node, NODE_BYTES, (current,))
            visit = builder.alu(deps=tuple(node_loads), count=VISIT_INSTRUCTIONS)
            key_ptr = space.read_u64(node + 0)
            # memcmp(current->_key, key, KEY_LENGTH)
            cmp_op = self._emit_memcmp(
                builder, key_ptr, key_addr, self.key_length, (visit,)
            )
            node_key = space.read(key_ptr, self.key_length)
            matched = node_key == key
            builder.branch(
                deps=(cmp_op,),
                mispredicted=matched
                and branch_outcome(key, probes, MATCH_EXIT_MISPREDICT_RATE),
            )
            if matched:
                return space.read_u64(node + 8)
            # current = current->_next
            current = builder.alu(deps=tuple(node_loads))
            node = space.read_u64(node + 16)
            probes += 1

        builder.branch(deps=(current,), mispredicted=True)  # loop exit
        return None
