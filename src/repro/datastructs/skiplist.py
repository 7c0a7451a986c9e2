"""A skip list in simulated memory (RocksDB-memtable-style).

Node layout::

    offset 0:         u64 key_ptr   -> key bytes (0 for the head sentinel)
    offset 8:         u64 value
    offset 16:        u64 height
    offset 24:        u64 next[height]   (forward pointers, level 0 lowest)

Keys are compared lexicographically (memcmp order), like RocksDB's default
comparator.  Tower heights come from a deterministic per-key coin flip so
builds are reproducible.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..core.header import StructureType
from ..errors import DataStructureError
from ..cpu.trace import TraceBuilder
from .base import (
    DIRECTION_MISPREDICT_RATE,
    MATCH_EXIT_MISPREDICT_RATE,
    ProcessMemory,
    SimStructure,
)
from .hashing import branch_outcome, mix64, primary_hash

NODE_FIXED_BYTES = 24
DEFAULT_MAX_LEVEL = 12
#: P(level up) = 1/4, like RocksDB's InlineSkipList default.
LEVEL_FANOUT = 4
#: Dynamic instructions of comparator-call overhead the software baseline
#: pays per probe: RocksDB routes every key comparison through
#: KeyIsAfterNode -> a virtual InternalKeyComparator::Compare -> user-key
#: extraction, varint length decode and sequence-number handling — a
#: dependent call chain of several dozen instructions on top of the raw
#: memcmp (this is why the paper finds skip-list queries frontend-bound,
#: Sec. II-A).
COMPARATOR_CALL_INSTRUCTIONS = 60
#: Frontend redirect per probe: the seek loop's virtual-comparator call
#: chain crosses code pages; the paper's top-down profile shows RocksDB
#: queries 25.9% frontend bound (Sec. II-A).
IFETCH_STALL_CYCLES = 18


def tower_height(key: bytes, max_level: int) -> int:
    """Deterministic geometric height in [1, max_level]."""
    h = 1
    bits = mix64(primary_hash(key))
    while h < max_level and bits % LEVEL_FANOUT == 0:
        h += 1
        bits //= LEVEL_FANOUT
    return h


class SkipList(SimStructure):
    """Sorted skip list with out-of-line keys."""

    TYPE = StructureType.SKIP_LIST

    def __init__(
        self,
        mem: ProcessMemory,
        *,
        key_length: int,
        max_level: int = DEFAULT_MAX_LEVEL,
    ) -> None:
        if not 1 <= max_level <= 32:
            raise DataStructureError("max_level must be in [1, 32]")
        super().__init__(mem, key_length=key_length, aux=max_level)
        self.max_level = max_level
        head = self._alloc_node(key_ptr=0, value=0, height=max_level)
        self._update_header(root_ptr=head)
        self.head_addr = head
        self._count = 0

    # ------------------------------------------------------------------ #

    def _alloc_node(self, *, key_ptr: int, value: int, height: int) -> int:
        node = self.mem.alloc(NODE_FIXED_BYTES + 8 * height, align=8)
        space = self.mem.space
        space.write_u64(node + 0, key_ptr)
        space.write_u64(node + 8, value)
        space.write_u64(node + 16, height)
        for level in range(height):
            space.write_u64(node + NODE_FIXED_BYTES + 8 * level, 0)
        return node

    def _next(self, node: int, level: int) -> int:
        return self.mem.space.read_u64(node + NODE_FIXED_BYTES + 8 * level)

    def _set_next(self, node: int, level: int, target: int) -> None:
        self.mem.space.write_u64(node + NODE_FIXED_BYTES + 8 * level, target)

    def _key_of(self, node: int) -> Optional[bytes]:
        key_ptr = self.mem.space.read_u64(node)
        if not key_ptr:
            return None
        return self.mem.space.read(key_ptr, self.key_length)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._count

    def insert(self, key: bytes, value: int) -> None:
        key = self._check_key(key)
        update = [self.head_addr] * self.max_level
        node = self.head_addr
        for level in range(self.max_level - 1, -1, -1):
            while True:
                nxt = self._next(node, level)
                nxt_key = self._key_of(nxt) if nxt else None
                if nxt and nxt_key is not None and nxt_key < key:
                    node = nxt
                else:
                    break
            update[level] = node

        candidate = self._next(node, 0)
        if candidate and self._key_of(candidate) == key:
            self.mem.space.write_u64(candidate + 8, value)
            return

        height = tower_height(key, self.max_level)
        key_addr = self.mem.store_bytes(key)
        new_node = self._alloc_node(key_ptr=key_addr, value=value, height=height)
        for level in range(height):
            self._set_next(new_node, level, self._next(update[level], level))
            self._set_next(update[level], level, new_node)
        self._count += 1

    def items(self) -> Iterator[Tuple[bytes, int]]:
        node = self._next(self.head_addr, 0)
        while node:
            key = self._key_of(node)
            yield key, self.mem.space.read_u64(node + 8)
            node = self._next(node, 0)

    # ------------------------------------------------------------------ #
    # Query — functional reference
    # ------------------------------------------------------------------ #

    def lookup(self, key: bytes) -> Optional[int]:
        key = self._check_key(key)
        node = self.head_addr
        for level in range(self.max_level - 1, -1, -1):
            while True:
                nxt = self._next(node, level)
                if not nxt:
                    break
                nxt_key = self._key_of(nxt)
                if nxt_key < key:
                    node = nxt
                else:
                    break
        candidate = self._next(node, 0)
        if candidate and self._key_of(candidate) == key:
            return self.mem.space.read_u64(candidate + 8)
        return None

    # ------------------------------------------------------------------ #
    # Query — software baseline (functional + micro-op trace)
    # ------------------------------------------------------------------ #

    def emit_lookup(
        self, builder: TraceBuilder, key_addr: int, key: bytes
    ) -> Optional[int]:
        """RocksDB-style seek: descend levels, compare keys at each probe."""
        key = self._check_key(key)
        space = self.mem.space

        header_load = builder.load(self.header_addr)
        cursor = builder.alu(deps=(header_load,))
        node = self.head_addr
        probes = 0

        for level in range(self.max_level - 1, -1, -1):
            while True:
                # Load the forward pointer for this level.
                ptr_load = builder.load(node + NODE_FIXED_BYTES + 8 * level, (cursor,))
                nxt = self._next(node, level)
                builder.branch(deps=(ptr_load,))  # null check: predictable
                if not nxt:
                    break
                nxt_loads = builder.load_span(nxt, NODE_FIXED_BYTES, (ptr_load,))
                key_ptr = space.read_u64(nxt)
                # Virtual comparator call: dependent setup before the memcmp.
                builder.ifetch_stall(IFETCH_STALL_CYCLES)
                call = builder.alu(
                    deps=tuple(nxt_loads), count=COMPARATOR_CALL_INSTRUCTIONS
                )
                cmp_op = self._emit_memcmp(
                    builder, key_ptr, key_addr, self.key_length, (call,)
                )
                nxt_key = space.read(key_ptr, self.key_length)
                advance = nxt_key < key
                builder.branch(
                    deps=(cmp_op,),
                    mispredicted=branch_outcome(
                        key, probes, DIRECTION_MISPREDICT_RATE
                    ),
                )
                probes += 1
                if advance:
                    node = nxt
                    cursor = builder.alu(deps=(cmp_op,))
                else:
                    break
            cursor = builder.alu(deps=(cursor,))  # drop one level

        # Final candidate check at level 0.
        ptr_load = builder.load(node + NODE_FIXED_BYTES, (cursor,))
        candidate = self._next(node, 0)
        if candidate:
            cand_loads = builder.load_span(candidate, NODE_FIXED_BYTES, (ptr_load,))
            key_ptr = space.read_u64(candidate)
            cmp_op = self._emit_memcmp(
                builder, key_ptr, key_addr, self.key_length, tuple(cand_loads)
            )
            matched = space.read(key_ptr, self.key_length) == key
            builder.branch(
                deps=(cmp_op,),
                mispredicted=matched
                and branch_outcome(key, 999, MATCH_EXIT_MISPREDICT_RATE),
            )
            if matched:
                builder.load(candidate + 8, (cmp_op,))
                return space.read_u64(candidate + 8)
        else:
            builder.branch(deps=(ptr_load,), mispredicted=True)
        return None
