"""Seed-driven fault injector over simulated memory (the chaos half).

The injector mutates a *live* data structure the way a hostile or buggy
cloud tenant would: corrupting its single-cacheline metadata header,
breaking pointer chains mid-structure, flipping stored key bytes, or
unmapping a page the accelerator is about to walk through.  Every mutation
is recorded in an undo log so :meth:`FaultInjector.heal` restores memory
byte-exactly — modelling the OS repairing the damage before the software
fallback retries.

All strategies are driven by one ``random.Random`` instance, so a campaign
seeded identically reproduces the identical fault sequence.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.abort import AbortCode
from ..core.header import HEADER_BYTES, DataStructureHeader, StructureType
from ..errors import ReproError
from ..mem.paging import AddressSpace, PageTableEntry

#: Node-layout constants shared with :mod:`repro.core.programs`.
_LIST_NODE_NEXT = 16
_TREE_LEFT, _TREE_RIGHT = 16, 24
_SKIP_NEXT0 = 24
_TRIE_FAIL, _TRIE_EDGE_COUNT, _TRIE_EDGES_PTR = 0, 16, 24
_EDGE_BYTES = 16
_SLOT_BYTES = 16

#: Far above any arena allocation; asserted unmapped before use.
DANGLE_BASE = 0x7FFF_F000_0000

#: Cap on nodes discovered per structure (keeps injection O(1)-ish).
DISCOVER_LIMIT = 96


class FaultKind(str, enum.Enum):
    """The fault taxonomy (docs/fault-injection.md)."""

    HEADER_CLEAR_VALID = "header-clear-valid"
    HEADER_BAD_MAGIC = "header-bad-magic"
    HEADER_BAD_TYPE = "header-bad-type"
    HEADER_BAD_SUBTYPE = "header-bad-subtype"
    HEADER_BAD_KEY_LENGTH = "header-bad-key-length"
    HEADER_BAD_SIZE = "header-bad-size"
    HEADER_BAD_AUX = "header-bad-aux"
    POINTER_DANGLE = "pointer-dangle"
    POINTER_NULL_KEY = "pointer-null-key"
    POINTER_CYCLE = "pointer-cycle"
    KEY_FLIP = "key-flip"
    PAGE_UNMAP = "page-unmap"
    INTERRUPT_FLUSH = "interrupt-flush"
    SLICE_FAIL = "slice-fail"
    SLICE_FLAP = "slice-flap"
    FIRMWARE_SWAP = "firmware-swap"
    NODE_KILL = "node-kill"
    NODE_FLAP = "node-flap"
    NET_PARTITION = "net-partition"
    #: Replication faults (docs/recovery.md): a replica whose apply stream
    #: is delivered late, and a crashed node restarting with the tail of
    #: its commit log missing (it must detect the ordinal gap and
    #: full-resync rather than ship or serve its stale history).
    REPLICA_LAG = "replica-lag"
    LOG_TRUNCATE = "log-truncate"
    WRITE_ABORT = "write-abort"
    VERSION_STORM = "version-storm"
    RESIZE_STALL = "resize-stall"


#: Infrastructure kinds are machine state, not memory state: the campaign
#: raises them through the System control surface (``fail_slice``,
#: ``recover_slice``, ``update_firmware``), never through :meth:`inject`.
#: The campaign draws from this tuple, so its order is part of the seed
#: contract.
MACHINE_KINDS = (
    FaultKind.INTERRUPT_FLUSH,
    FaultKind.SLICE_FAIL,
    FaultKind.SLICE_FLAP,
    FaultKind.FIRMWARE_SWAP,
)

#: Write-path kinds (docs/mutations.md) exercise the seqlock protocol —
#: a dead writer's orphaned lock, a reader racing a storm of version
#: bumps, a write landing while an online resize is stalled mid-migration.
#: The campaign drives them through the mutation control surface
#: (``System.mutations()`` / ``System.start_resize``), only against
#: structures whose workload supports mutation, drawing in this order.
WRITE_KINDS = (
    FaultKind.WRITE_ABORT,
    FaultKind.VERSION_STORM,
    FaultKind.RESIZE_STALL,
)


#: Abort codes each single-machine kind may legitimately surface.  Pointer
#: faults planted off the queried path may also be *masked* (the query
#: completes); the campaign validates completed results against the
#: un-faulted oracle.  Cluster-scope kinds never surface accelerator codes:
#: the load balancer masks them with replica failover.
EXPECTED_CODES: Dict[FaultKind, Tuple[AbortCode, ...]] = {
    FaultKind.HEADER_CLEAR_VALID: (AbortCode.HEADER_INVALID,),
    FaultKind.HEADER_BAD_MAGIC: (AbortCode.BAD_MAGIC,),
    FaultKind.HEADER_BAD_TYPE: (AbortCode.BAD_TYPE,),
    FaultKind.HEADER_BAD_SUBTYPE: (AbortCode.BAD_SUBTYPE,),
    FaultKind.HEADER_BAD_KEY_LENGTH: (AbortCode.BAD_KEY_LENGTH,),
    FaultKind.HEADER_BAD_SIZE: (AbortCode.BAD_SIZE,),
    FaultKind.HEADER_BAD_AUX: (AbortCode.BAD_AUX,),
    FaultKind.POINTER_DANGLE: (AbortCode.SEGFAULT,),
    FaultKind.POINTER_NULL_KEY: (AbortCode.NULL_POINTER, AbortCode.SEGFAULT),
    FaultKind.POINTER_CYCLE: (
        AbortCode.WATCHDOG,
        AbortCode.NULL_POINTER,
        AbortCode.SEGFAULT,
    ),
    FaultKind.KEY_FLIP: (),
    FaultKind.PAGE_UNMAP: (AbortCode.SEGFAULT,),
    FaultKind.INTERRUPT_FLUSH: (AbortCode.FLUSH,),
    FaultKind.SLICE_FAIL: (AbortCode.SLICE_DOWN,),
    FaultKind.SLICE_FLAP: (AbortCode.SLICE_DOWN,),
    # A hot-swap quiesces instead of aborting: queries drain, then the
    # table swaps; no abort code is ever legitimate.
    FaultKind.FIRMWARE_SWAP: (),
    # Seqlock contention and resize routing both surface as
    # VERSION_CONFLICT; the software path then applies (or re-reads)
    # against settled state.
    FaultKind.WRITE_ABORT: (AbortCode.VERSION_CONFLICT,),
    FaultKind.VERSION_STORM: (AbortCode.VERSION_CONFLICT,),
    FaultKind.RESIZE_STALL: (AbortCode.VERSION_CONFLICT,),
}

#: Memory kinds whose damage can miss the queried path entirely (masked
#: outcome) instead of aborting the query.
MASKABLE_KINDS = frozenset(
    {
        FaultKind.POINTER_DANGLE,
        FaultKind.POINTER_NULL_KEY,
        FaultKind.POINTER_CYCLE,
        FaultKind.KEY_FLIP,
        FaultKind.PAGE_UNMAP,
    }
)

#: Header-field kinds applicable to every structure type.
_GENERIC_HEADER_KINDS = (
    FaultKind.HEADER_CLEAR_VALID,
    FaultKind.HEADER_BAD_MAGIC,
    FaultKind.HEADER_BAD_TYPE,
    FaultKind.HEADER_BAD_SUBTYPE,
    FaultKind.HEADER_BAD_KEY_LENGTH,
)

#: Structure-type -> fault kinds that make sense for it.
KINDS_BY_TYPE: Dict[StructureType, Tuple[FaultKind, ...]] = {
    StructureType.LINKED_LIST: _GENERIC_HEADER_KINDS
    + (
        FaultKind.POINTER_DANGLE,
        FaultKind.POINTER_NULL_KEY,
        FaultKind.POINTER_CYCLE,
        FaultKind.KEY_FLIP,
        FaultKind.PAGE_UNMAP,
    ),
    StructureType.HASH_TABLE: _GENERIC_HEADER_KINDS
    + (
        FaultKind.HEADER_BAD_SIZE,
        FaultKind.POINTER_DANGLE,
        FaultKind.KEY_FLIP,
        FaultKind.PAGE_UNMAP,
    ),
    StructureType.SKIP_LIST: _GENERIC_HEADER_KINDS
    + (
        FaultKind.HEADER_BAD_AUX,
        FaultKind.POINTER_DANGLE,
        FaultKind.POINTER_NULL_KEY,
        FaultKind.POINTER_CYCLE,
        FaultKind.KEY_FLIP,
        FaultKind.PAGE_UNMAP,
    ),
    StructureType.BINARY_TREE: _GENERIC_HEADER_KINDS
    + (
        FaultKind.POINTER_DANGLE,
        FaultKind.POINTER_NULL_KEY,
        FaultKind.POINTER_CYCLE,
        FaultKind.KEY_FLIP,
        FaultKind.PAGE_UNMAP,
    ),
    StructureType.TRIE: _GENERIC_HEADER_KINDS
    + (
        FaultKind.POINTER_DANGLE,
        FaultKind.POINTER_CYCLE,
        FaultKind.PAGE_UNMAP,
    ),
}


@dataclass
class InjectedFault:
    """What one injection did, for campaign bookkeeping."""

    kind: FaultKind
    description: str
    expected: Tuple[AbortCode, ...] = ()
    #: Addresses the injection touched (pokes and unmapped pages).
    touched: Tuple[int, ...] = ()


class InjectionError(ReproError):
    """The injector could not apply the requested fault kind here."""


class FaultInjector:
    """Applies one fault at a time to a structure, with byte-exact heal."""

    def __init__(self, space: AddressSpace, rng: Optional[random.Random] = None):
        self.space = space
        self.rng = rng or random.Random(0)
        self._pokes: List[Tuple[int, bytes]] = []
        self._unmapped: List[Tuple[int, PageTableEntry]] = []
        #: Bumped per injection so deferred repairs (e.g. an OS-repair event
        #: scheduled on the engine) can tell they outlived their fault.
        self.epoch = 0

    # ------------------------------------------------------------------ #
    # Undo log
    # ------------------------------------------------------------------ #

    @property
    def armed(self) -> bool:
        """True while injected damage is still live in memory."""
        return bool(self._pokes or self._unmapped)

    def heal(self) -> None:
        """Undo every live mutation byte-exactly (pages first, then bytes)."""
        while self._unmapped:
            vaddr, entry = self._unmapped.pop()
            self.space.restore_page(vaddr, entry)
        while self._pokes:
            vaddr, original = self._pokes.pop()
            self.space.write(vaddr, original)

    def _poke(self, vaddr: int, data: bytes) -> None:
        self._pokes.append((vaddr, self.space.read(vaddr, len(data))))
        self.space.write(vaddr, data)

    def _poke_u64(self, vaddr: int, value: int) -> None:
        self._poke(vaddr, value.to_bytes(8, "little"))

    def _unmap(self, vaddr: int) -> None:
        page = vaddr - vaddr % self.space.page_bytes
        entry = self.space.unmap_page(page, free_frame=False)
        self._unmapped.append((page, entry))

    def _u64(self, vaddr: int) -> int:
        return self.space.read_u64(vaddr)

    # ------------------------------------------------------------------ #
    # Injection entry point
    # ------------------------------------------------------------------ #

    def kinds_for(self, header_addr: int) -> Tuple[FaultKind, ...]:
        """The fault kinds applicable to the structure at ``header_addr``."""
        header = DataStructureHeader.load(self.space, header_addr)
        return KINDS_BY_TYPE.get(header.structure_type, _GENERIC_HEADER_KINDS)

    def inject(self, kind: FaultKind, header_addr: int) -> InjectedFault:
        """Apply one fault of ``kind`` to the structure at ``header_addr``.

        Exactly one fault may be armed at a time; heal the previous one
        first.  Only memory kinds have an injection strategy: machine,
        write-path and cluster kinds are raised through the
        ``System``/``Accelerator`` or ``SimulatedCluster`` control surface.
        """
        if self.armed:
            raise InjectionError("previous fault not healed; call heal() first")
        handler = getattr(self, f"_inject_{kind.name.lower()}", None)
        if handler is None:
            raise InjectionError(
                f"{kind.value} is not memory state; raise it through its "
                "System, mutation or cluster control surface, not inject()"
            )
        self.epoch += 1
        header = DataStructureHeader.load(self.space, header_addr)
        description = handler(header_addr, header)
        return InjectedFault(
            kind=kind,
            description=description,
            expected=EXPECTED_CODES[kind],
            touched=tuple(addr for addr, _ in self._pokes)
            + tuple(addr for addr, _ in self._unmapped),
        )

    # ------------------------------------------------------------------ #
    # Header corruption (offsets per core/header.py)
    # ------------------------------------------------------------------ #

    def _inject_header_clear_valid(self, addr: int, header) -> str:
        self._poke(addr + 12, (header.flags & ~0x1).to_bytes(4, "little"))
        return "cleared the header VALID flag"

    def _inject_header_bad_magic(self, addr: int, header) -> str:
        # Bytes 32..39 are the seqlock version word (core/header.py): any
        # value there is legitimate mutation state, so garbage must land in
        # the genuinely-reserved tail 40..63 to be a magic violation.
        offset = 40 + self.rng.randrange(HEADER_BYTES - 40)
        self._poke(addr + offset, bytes([1 + self.rng.randrange(255)]))
        return f"wrote garbage into reserved header byte {offset}"

    def _inject_header_bad_type(self, addr: int, header) -> str:
        self._poke(addr + 8, bytes([0xEE]))
        return "replaced the type byte with unknown code 0xEE"

    def _inject_header_bad_subtype(self, addr: int, header) -> str:
        self._poke(addr + 9, bytes([0xFF]))
        return "set the subtype byte to out-of-range 0xFF"

    def _inject_header_bad_key_length(self, addr: int, header) -> str:
        bad = 0 if self.rng.random() < 0.5 else 0x8000
        self._poke(addr + 10, bad.to_bytes(2, "little"))
        return f"set the key-length field to {bad}"

    def _inject_header_bad_size(self, addr: int, header) -> str:
        self._poke(addr + 16, (0).to_bytes(8, "little"))
        return "zeroed the size field (bucket count)"

    def _inject_header_bad_aux(self, addr: int, header) -> str:
        self._poke(addr + 24, (0).to_bytes(8, "little"))
        return "zeroed the aux field (skip-list max level)"

    # ------------------------------------------------------------------ #
    # Pointer-chain corruption
    # ------------------------------------------------------------------ #

    def _dangle_addr(self) -> int:
        for _ in range(64):
            addr = DANGLE_BASE + self.space.page_bytes * self.rng.randrange(1 << 16)
            if not self.space.is_mapped(addr):
                return addr + self.rng.randrange(self.space.page_bytes - 64)
        raise InjectionError("could not find an unmapped dangle target")

    def _inject_pointer_dangle(self, addr: int, header) -> str:
        slots = self._pointer_slots(header)
        if not slots:
            raise InjectionError("structure has no pointer slots to corrupt")
        slot, label = self.rng.choice(slots)
        target = self._dangle_addr()
        self._poke_u64(slot, target)
        return f"pointed {label} at unmapped 0x{target:x}"

    def _inject_pointer_null_key(self, addr: int, header) -> str:
        nodes = self._key_nodes(header)
        if not nodes:
            raise InjectionError("structure has no keyed nodes")
        node = self.rng.choice(nodes)
        self._poke_u64(node, 0)
        return f"zeroed the key pointer of node 0x{node:x}"

    def _inject_pointer_cycle(self, addr: int, header) -> str:
        kind = header.structure_type
        if kind is StructureType.LINKED_LIST:
            nodes = self._list_nodes(header.root_ptr, _LIST_NODE_NEXT)
            if not nodes:
                raise InjectionError("empty list; no cycle possible")
            node = self.rng.choice(nodes)
            self._poke_u64(node + _LIST_NODE_NEXT, nodes[0])
            return f"looped list node 0x{node:x}.next back to the head"
        if kind is StructureType.SKIP_LIST:
            nodes = self._skip_nodes(header.root_ptr)
            if not nodes:
                raise InjectionError("empty skip list; no cycle possible")
            node = self.rng.choice(nodes)
            self._poke_u64(node + _SKIP_NEXT0, node)
            return f"looped skip-list node 0x{node:x}.next[0] onto itself"
        if kind is StructureType.BINARY_TREE:
            nodes = self._tree_nodes(header.root_ptr)
            if not nodes:
                raise InjectionError("empty tree; no cycle possible")
            node = self.rng.choice(nodes)
            self._poke_u64(node + _TREE_LEFT, node)
            self._poke_u64(node + _TREE_RIGHT, node)
            return f"looped both children of BST node 0x{node:x} onto itself"
        if kind is StructureType.TRIE:
            nodes = self._trie_nodes(header.root_ptr)
            candidates = [n for n in nodes if n != header.root_ptr]
            if not candidates:
                raise InjectionError("trie has no non-root nodes")
            node = self.rng.choice(candidates)
            self._poke_u64(node + _TRIE_FAIL, node)
            return f"looped trie node 0x{node:x}'s fail pointer onto itself"
        raise InjectionError(f"no cycle strategy for {kind.name}")

    def _inject_key_flip(self, addr: int, header) -> str:
        keys = self._stored_keys(header)
        if not keys:
            raise InjectionError("structure stores no keys to flip")
        key_addr = self.rng.choice(keys)
        offset = self.rng.randrange(max(1, header.key_length))
        original = self.space.read_u8(key_addr + offset)
        self._poke(key_addr + offset, bytes([original ^ (1 << self.rng.randrange(8))]))
        return f"flipped one bit of the stored key at 0x{key_addr + offset:x}"

    def _inject_page_unmap(self, addr: int, header) -> str:
        nodes = self._all_nodes(header)
        if not nodes:
            raise InjectionError("structure has no nodes; nothing to unmap")
        node = self.rng.choice(nodes)
        self._unmap(node)
        page = node - node % self.space.page_bytes
        return f"unmapped page 0x{page:x} under node 0x{node:x}"

    # ------------------------------------------------------------------ #
    # Structure discovery (functional reads over simulated memory)
    # ------------------------------------------------------------------ #

    def _list_nodes(self, root: int, next_offset: int) -> List[int]:
        nodes: List[int] = []
        seen = set()
        addr = root
        while addr and addr not in seen and len(nodes) < DISCOVER_LIMIT:
            seen.add(addr)
            nodes.append(addr)
            addr = self._u64(addr + next_offset)
        return nodes

    def _skip_nodes(self, head: int) -> List[int]:
        """Level-0 chain, excluding the keyless head sentinel."""
        return self._list_nodes(head, _SKIP_NEXT0)[1:]

    def _tree_nodes(self, root: int) -> List[int]:
        nodes: List[int] = []
        stack = [root] if root else []
        seen = set()
        while stack and len(nodes) < DISCOVER_LIMIT:
            addr = stack.pop()
            if not addr or addr in seen:
                continue
            seen.add(addr)
            nodes.append(addr)
            stack.append(self._u64(addr + _TREE_LEFT))
            stack.append(self._u64(addr + _TREE_RIGHT))
        return nodes

    def _trie_nodes(self, root: int) -> List[int]:
        nodes: List[int] = []
        queue = [root] if root else []
        seen = set()
        while queue and len(nodes) < DISCOVER_LIMIT:
            addr = queue.pop(0)
            if not addr or addr in seen:
                continue
            seen.add(addr)
            nodes.append(addr)
            count = self._u64(addr + _TRIE_EDGE_COUNT)
            edges = self._u64(addr + _TRIE_EDGES_PTR)
            for i in range(min(count, 64)):
                queue.append(self._u64(edges + i * _EDGE_BYTES + 8))
        return nodes

    def _hash_slots(self, header) -> List[int]:
        """Occupied slot addresses of a cuckoo table (sig != 0)."""
        slots: List[int] = []
        total = header.size * header.subtype
        for i in range(min(total, 4 * DISCOVER_LIMIT)):
            slot = header.root_ptr + i * _SLOT_BYTES
            if self._u64(slot):
                slots.append(slot)
                if len(slots) >= DISCOVER_LIMIT:
                    break
        return slots

    def _pointer_slots(self, header) -> List[Tuple[int, str]]:
        """(address, label) of every u64 pointer slot a dangle can target."""
        kind = header.structure_type
        out: List[Tuple[int, str]] = []
        if kind is StructureType.LINKED_LIST:
            for node in self._list_nodes(header.root_ptr, _LIST_NODE_NEXT):
                out.append((node + _LIST_NODE_NEXT, f"list node 0x{node:x}.next"))
        elif kind is StructureType.SKIP_LIST:
            for node in self._list_nodes(header.root_ptr, _SKIP_NEXT0):
                out.append((node + _SKIP_NEXT0, f"skip node 0x{node:x}.next[0]"))
        elif kind is StructureType.BINARY_TREE:
            for node in self._tree_nodes(header.root_ptr):
                out.append((node + _TREE_LEFT, f"BST node 0x{node:x}.left"))
                out.append((node + _TREE_RIGHT, f"BST node 0x{node:x}.right"))
        elif kind is StructureType.TRIE:
            for node in self._trie_nodes(header.root_ptr):
                count = self._u64(node + _TRIE_EDGE_COUNT)
                edges = self._u64(node + _TRIE_EDGES_PTR)
                for i in range(min(count, 8)):
                    out.append(
                        (edges + i * _EDGE_BYTES + 8, f"trie edge {i} of 0x{node:x}")
                    )
        elif kind is StructureType.HASH_TABLE:
            for slot in self._hash_slots(header):
                out.append((slot + 8, f"hash slot 0x{slot:x}.kv"))
        return out

    def _key_nodes(self, header) -> List[int]:
        """Node addresses whose offset-0 word is a key pointer."""
        kind = header.structure_type
        if kind is StructureType.LINKED_LIST:
            return self._list_nodes(header.root_ptr, _LIST_NODE_NEXT)
        if kind is StructureType.SKIP_LIST:
            return self._skip_nodes(header.root_ptr)
        if kind is StructureType.BINARY_TREE:
            return self._tree_nodes(header.root_ptr)
        return []

    def _stored_keys(self, header) -> List[int]:
        """Addresses of stored key bytes (for KEY_FLIP)."""
        kind = header.structure_type
        if kind is StructureType.HASH_TABLE:
            return [self._u64(slot + 8) + 8 for slot in self._hash_slots(header)]
        return [self._u64(node) for node in self._key_nodes(header) if self._u64(node)]

    def _all_nodes(self, header) -> List[int]:
        kind = header.structure_type
        if kind is StructureType.HASH_TABLE:
            return self._hash_slots(header) or [header.root_ptr]
        if kind is StructureType.TRIE:
            return self._trie_nodes(header.root_ptr)
        nodes = self._key_nodes(header)
        return nodes or ([header.root_ptr] if header.root_ptr else [])
