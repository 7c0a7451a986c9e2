"""Byte-wise trie and Aho-Corasick automaton in simulated memory (Snort).

Node layout (32 bytes)::

    offset 0:  u64 fail_ptr     (AC failure link; 0 for plain trie)
    offset 8:  u64 output       (match value + 1; 0 = no output here)
    offset 16: u64 edge_count
    offset 24: u64 edges_ptr    -> edge array

Edge entry (16 bytes, sorted by byte value)::

    offset 0: u64 byte
    offset 8: u64 child_ptr

Each trie step searches the node's edge index table (linear scan in the
software baseline — matching the paper's "within a node, we search an index
table for a match") and then follows the child pointer.  The Aho-Corasick
subclass adds failure links and output aggregation for multi-keyword literal
matching over an input string.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.header import StructureType
from ..errors import DataStructureError
from ..cpu.trace import TraceBuilder
from .base import (
    DIRECTION_MISPREDICT_RATE,
    ProcessMemory,
    SimStructure,
)
from .hashing import branch_outcome

NODE_BYTES = 32
EDGE_BYTES = 16
#: Per-input-byte software bookkeeping in the baseline scanner: Snort's AC
#: loop case-folds the byte, bounds-checks the state, decodes the node
#: format and tests the output list before the next transition.
STEP_INSTRUCTIONS = 10
#: Fetch redirect every few consumed bytes: output-list checks and case
#: tables pull the scanner off its hot path.
IFETCH_STALL_CYCLES = 12
IFETCH_STALL_EVERY = 3


class _BuildNode:
    """In-Python trie node used during construction, before serialisation."""

    __slots__ = ("children", "output", "fail", "addr")

    def __init__(self) -> None:
        self.children: Dict[int, "_BuildNode"] = {}
        self.output = 0  # value + 1; 0 = none
        self.fail: Optional["_BuildNode"] = None
        self.addr = 0


class Trie(SimStructure):
    """A byte trie supporting exact-match lookup of variable-depth keys.

    ``key_length`` in the header is the *maximum* query length; individual
    keys may be shorter (the trie terminates on output nodes).
    """

    TYPE = StructureType.TRIE
    #: Header subtype: 0 = exact-match lookup, 1 = Aho-Corasick scan.
    SUBTYPE = 0

    def __init__(self, mem: ProcessMemory, *, key_length: int) -> None:
        super().__init__(mem, key_length=key_length, subtype=self.SUBTYPE)
        self._root = _BuildNode()
        self._sealed = False
        self._count = 0

    # ------------------------------------------------------------------ #
    # Construction: build in Python, then serialise once
    # ------------------------------------------------------------------ #

    def insert(self, key: bytes, value: int) -> None:
        if self._sealed:
            raise DataStructureError("trie is sealed; inserts must precede seal()")
        if not key:
            raise DataStructureError("trie keys must be non-empty")
        if value < 0:
            raise DataStructureError("trie values must be non-negative")
        node = self._root
        for byte in key:
            node = node.children.setdefault(byte, _BuildNode())
        if node.output == 0:
            self._count += 1
        node.output = value + 1

    def __len__(self) -> int:
        return self._count

    def seal(self) -> None:
        """Serialise the trie into simulated memory."""
        if self._sealed:
            return
        self._prepare_links()
        order = self._bfs_order()
        for node in order:
            node.addr = self.mem.alloc(NODE_BYTES, align=8)
        space = self.mem.space
        for node in order:
            edges = sorted(node.children.items())
            edges_ptr = 0
            if edges:
                edges_ptr = self.mem.alloc(len(edges) * EDGE_BYTES, align=8)
                for i, (byte, child) in enumerate(edges):
                    space.write_u64(edges_ptr + i * EDGE_BYTES, byte)
                    space.write_u64(edges_ptr + i * EDGE_BYTES + 8, child.addr)
            fail_addr = node.fail.addr if node.fail is not None else 0
            space.write_u64(node.addr + 0, fail_addr)
            space.write_u64(node.addr + 8, node.output)
            space.write_u64(node.addr + 16, len(edges))
            space.write_u64(node.addr + 24, edges_ptr)
        self._update_header(root_ptr=self._root.addr, size=len(order))
        self._sealed = True
        # Lookups read the serialised form only.  Dropping the build graph
        # (cyclic once failure links exist) keeps it out of every
        # warm-system snapshot restore.
        self._root = None

    def _prepare_links(self) -> None:
        """Hook for subclasses (AC failure links). Plain tries do nothing."""

    def _bfs_order(self) -> List[_BuildNode]:
        order = [self._root]
        frontier = [self._root]
        while frontier:
            next_frontier: List[_BuildNode] = []
            for node in frontier:
                for _, child in sorted(node.children.items()):
                    order.append(child)
                    next_frontier.append(child)
            frontier = next_frontier
        return order

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise DataStructureError("call seal() before querying the trie")

    # ------------------------------------------------------------------ #
    # Serialized-node helpers (read back from simulated memory)
    # ------------------------------------------------------------------ #

    def _node_fields(self, node: int) -> Tuple[int, int, int, int]:
        space = self.mem.space
        return (
            space.read_u64(node + 0),
            space.read_u64(node + 8),
            space.read_u64(node + 16),
            space.read_u64(node + 24),
        )

    def _find_edge(self, node: int, byte: int) -> Tuple[int, int]:
        """Return (child_addr, probes); child 0 when absent."""
        _, _, count, edges_ptr = self._node_fields(node)
        space = self.mem.space
        for i in range(count):
            stored = space.read_u64(edges_ptr + i * EDGE_BYTES)
            if stored == byte:
                return space.read_u64(edges_ptr + i * EDGE_BYTES + 8), i + 1
            if stored > byte:
                return 0, i + 1
        return 0, count

    # ------------------------------------------------------------------ #
    # Query — functional reference
    # ------------------------------------------------------------------ #

    def lookup(self, key: bytes) -> Optional[int]:
        """Exact match of ``key``; returns its value or None."""
        self._require_sealed()
        node = self.header().root_ptr
        for byte in key:
            child, _ = self._find_edge(node, byte)
            if not child:
                return None
            node = child
        output = self._node_fields(node)[1]
        return output - 1 if output else None

    # ------------------------------------------------------------------ #
    # Query — software baseline (functional + micro-op trace)
    # ------------------------------------------------------------------ #

    def emit_lookup(
        self, builder: TraceBuilder, key_addr: int, key: bytes
    ) -> Optional[int]:
        self._require_sealed()
        space = self.mem.space
        header_load = builder.load(self.header_addr)
        key_loads = builder.load_span(key_addr, len(key))
        cursor = builder.alu(deps=(header_load,))
        node = space.read_u64(self.header_addr)

        for depth, byte in enumerate(key):
            node_loads = builder.load_span(node, NODE_BYTES, (cursor,))
            cursor = builder.alu(deps=tuple(node_loads), count=STEP_INSTRUCTIONS)
            child, probes = self._emit_edge_search(
                builder, node, byte, tuple(node_loads), key, depth
            )
            if not child:
                builder.branch(deps=(cursor,), mispredicted=True)
                return None
            cursor = builder.alu(deps=tuple(node_loads))
            node = child
        out_load = builder.load(node + 8, (cursor,))
        output = space.read_u64(node + 8)
        builder.branch(deps=(out_load,))
        return output - 1 if output else None

    def _emit_edge_search(
        self,
        builder: TraceBuilder,
        node: int,
        byte: int,
        deps: Tuple[int, ...],
        key: bytes,
        salt: int,
    ) -> Tuple[int, int]:
        """Linear index-table scan with one compare+branch per probe."""
        _, _, count, edges_ptr = self._node_fields(node)
        space = self.mem.space
        child, probes = self._find_edge(node, byte)
        last = deps[-1] if deps else -1
        for i in range(max(1, probes)):
            edge_load = builder.load(edges_ptr + i * EDGE_BYTES, deps) if count else None
            cmp_deps = (edge_load,) if edge_load is not None else deps
            cmp_op = builder.alu(deps=cmp_deps)
            builder.branch(
                deps=(cmp_op,),
                mispredicted=branch_outcome(
                    key, salt * 256 + i, DIRECTION_MISPREDICT_RATE
                ),
            )
            last = cmp_op
        if child:
            builder.load(edges_ptr + (probes - 1) * EDGE_BYTES + 8, (last,))
        return child, probes


class LpmTrie(Trie):
    """Longest-prefix-match trie (routing-table lookups, Sec. II-A).

    Prefixes of any length up to ``key_length`` map to route values; a
    lookup walks the full address and returns the value of the deepest
    prefix on the path (e.g., IPv4 FIB: ``key_length=4``, byte-granular
    prefixes).
    """

    SUBTYPE = 2

    def insert_prefix(self, prefix: bytes, value: int) -> None:
        """Insert a route for ``prefix`` (1..key_length bytes)."""
        if not 1 <= len(prefix) <= self.key_length:
            raise DataStructureError(
                f"prefix must be 1..{self.key_length} bytes, got {len(prefix)}"
            )
        self.insert(prefix, value)

    def lookup_lpm(self, addr: bytes) -> Optional[int]:
        """Functional reference: value of the longest matching prefix."""
        self._require_sealed()
        addr = self._check_key(addr)
        node = self.header().root_ptr
        best = self._node_fields(node)[1]
        for byte in addr:
            child, _ = self._find_edge(node, byte)
            if not child:
                break
            node = child
            output = self._node_fields(node)[1]
            if output:
                best = output
        return best - 1 if best else None

    def emit_lookup_lpm(
        self, builder: TraceBuilder, addr_vaddr: int, addr: bytes
    ) -> Optional[int]:
        """Software LPM walk (a Poptrie/LC-trie-style loop), with trace."""
        self._require_sealed()
        addr = self._check_key(addr)
        space = self.mem.space
        header_load = builder.load(self.header_addr)
        builder.load_span(addr_vaddr, len(addr))
        cursor = builder.alu(deps=(header_load,))
        node = space.read_u64(self.header_addr)
        best = self._node_fields(node)[1]

        for depth, byte in enumerate(addr):
            node_loads = builder.load_span(node, NODE_BYTES, (cursor,))
            cursor = builder.alu(deps=tuple(node_loads), count=STEP_INSTRUCTIONS)
            child, _ = self._emit_edge_search(
                builder, node, byte, (cursor,), addr, depth
            )
            if not child:
                builder.branch(deps=(cursor,), mispredicted=True)
                break
            node = child
            out_load = builder.load(node + 8, (cursor,))
            output = space.read_u64(node + 8)
            builder.branch(deps=(out_load,), mispredicted=bool(output))
            if output:
                best = output
            cursor = builder.alu(deps=(out_load,))
        return best - 1 if best else None


class AhoCorasickTrie(Trie):
    """Aho-Corasick automaton for multi-keyword literal matching.

    ``match(text)`` scans an input string and returns every (position,
    value) where a dictionary keyword ends — the Snort IPS use case.  The
    serialized form reuses the trie node layout with failure links filled
    in; outputs are aggregated along failure chains at build time so the
    scan itself only checks the current node's output — one (most-specific)
    match is reported per text position.
    """

    SUBTYPE = 1

    def _prepare_links(self) -> None:
        root = self._root
        root.fail = root
        frontier: List[_BuildNode] = []
        for child in root.children.values():
            child.fail = root
            frontier.append(child)
        while frontier:
            next_frontier: List[_BuildNode] = []
            for node in frontier:
                for byte, child in node.children.items():
                    # Walk failure links to find the longest proper suffix.
                    fail = node.fail
                    while fail is not root and byte not in fail.children:
                        fail = fail.fail
                    candidate = fail.children.get(byte)
                    child.fail = candidate if candidate is not None and candidate is not child else root
                    if child.output == 0 and child.fail.output:
                        # Aggregate: a suffix keyword also matches here.
                        child.output = child.fail.output
                    next_frontier.append(child)
            frontier = next_frontier

    # ------------------------------------------------------------------ #

    def match(self, text: bytes) -> List[Tuple[int, int]]:
        """Functional scan: list of (end_position, value) matches."""
        self._require_sealed()
        root = self.header().root_ptr
        node = root
        out: List[Tuple[int, int]] = []
        for pos, byte in enumerate(text):
            node = self._step(node, byte, root)
            output = self._node_fields(node)[1]
            if output:
                out.append((pos, output - 1))
        return out

    def _step(self, node: int, byte: int, root: int) -> int:
        while True:
            child, _ = self._find_edge(node, byte)
            if child:
                return child
            if node == root:
                return root
            node = self._node_fields(node)[0]  # fail link

    # ------------------------------------------------------------------ #

    def emit_match(
        self, builder: TraceBuilder, text_addr: int, text: bytes
    ) -> List[Tuple[int, int]]:
        """Software AC scan over ``text``, emitting the baseline trace."""
        self._require_sealed()
        space = self.mem.space
        header_load = builder.load(self.header_addr)
        root = space.read_u64(self.header_addr)
        node = root
        cursor = builder.alu(deps=(header_load,))
        out: List[Tuple[int, int]] = []

        for pos, byte in enumerate(text):
            # Load the input byte (one load per cacheline thanks to locality).
            if pos % 64 == 0:
                text_load = builder.load(text_addr + pos, (cursor,))
            if pos % IFETCH_STALL_EVERY == 0:
                builder.ifetch_stall(IFETCH_STALL_CYCLES)
            # goto/fail loop
            while True:
                node_loads = builder.load_span(node, NODE_BYTES, (cursor,))
                cursor = builder.alu(deps=tuple(node_loads), count=STEP_INSTRUCTIONS)
                child, _ = self._emit_edge_search(
                    builder, node, byte, tuple(node_loads), text[pos : pos + 1] or b"\0", pos
                )
                if child:
                    node = child
                    cursor = builder.alu(deps=tuple(node_loads))
                    break
                if node == root:
                    cursor = builder.alu(deps=tuple(node_loads))
                    break
                node = self._node_fields(node)[0]
                cursor = builder.alu(deps=tuple(node_loads))
            output = self._node_fields(node)[1]
            out_check = builder.alu(deps=(cursor,))
            builder.branch(deps=(out_check,), mispredicted=bool(output))
            if output:
                out.append((pos, output - 1))
        return out
