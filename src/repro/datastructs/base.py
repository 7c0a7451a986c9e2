"""Shared plumbing for simulated-memory data structures.

:class:`ProcessMemory` bundles an address space with a page-scattering heap
allocator (so structures never sit in one contiguous physical region) and
key/header helpers.  :class:`SimStructure` is the base class all structures
derive from: it owns the 64B metadata header and the baseline software
branch-misprediction model.
"""

from __future__ import annotations

from typing import Optional

from ..config import CACHELINE_BYTES
from ..errors import DataStructureError
from ..mem.allocator import PageScatterAllocator
from ..mem.paging import AddressSpace
from ..mem.physical import PhysicalMemory
from ..core.header import DataStructureHeader, FLAG_VALID, StructureType
from ..cpu.trace import TraceBuilder

#: Default virtual layout of a simulated process.
HEAP_BASE = 0x1000_0000
HEAP_BYTES = 256 * 1024 * 1024

#: Mispredict probabilities for the software baseline's data-dependent
#: branches.  Direction branches (BST left/right, skip-list drop) behave
#: like hard-to-predict compares on random keys; loop-exit branches
#: mispredict once at the end of a traversal.
DIRECTION_MISPREDICT_RATE = 0.30
MATCH_EXIT_MISPREDICT_RATE = 1.0


class ProcessMemory:
    """One simulated process's memory: address space + fragmented heap."""

    def __init__(
        self,
        space: Optional[AddressSpace] = None,
        *,
        physical_bytes: int = 512 * 1024 * 1024,
        heap_base: int = HEAP_BASE,
        heap_bytes: int = HEAP_BYTES,
        scatter_frames: int = 3,
    ) -> None:
        self.space = space or AddressSpace(PhysicalMemory(physical_bytes))
        self.heap = PageScatterAllocator(
            self.space, heap_base, heap_bytes, scatter_frames=scatter_frames
        )

    def alloc(self, size: int, *, align: int = 8) -> int:
        return self.heap.allocate(size, alignment=align)

    def alloc_header(self) -> int:
        """Reserve one cacheline-aligned header slot."""
        return self.alloc(CACHELINE_BYTES, align=CACHELINE_BYTES)

    def store_bytes(self, data: bytes, *, align: int = 8) -> int:
        """Copy ``data`` into the heap, returning its address."""
        if not data:
            raise DataStructureError("cannot store an empty byte string")
        addr = self.alloc(len(data), align=align)
        self.space.write(addr, data)
        return addr

    def read(self, vaddr: int, length: int) -> bytes:
        return self.space.read(vaddr, length)


class SimStructure:
    """Base class: owns a metadata header in simulated memory."""

    TYPE: StructureType

    def __init__(
        self,
        mem: ProcessMemory,
        *,
        key_length: int,
        subtype: int = 0,
        size: int = 0,
        aux: int = 0,
    ) -> None:
        if key_length <= 0:
            raise DataStructureError("key_length must be positive")
        self.mem = mem
        self.key_length = key_length
        self.header_addr = mem.alloc_header()
        self._subtype = subtype
        self._write_header(root_ptr=0, size=size, aux=aux)

    # ------------------------------------------------------------------ #
    # Header maintenance (software usage model, Sec. III-B)
    # ------------------------------------------------------------------ #

    def _write_header(
        self,
        *,
        root_ptr: int,
        size: int,
        aux: int,
        flags: int = FLAG_VALID,
        version: int = 0,
    ) -> None:
        DataStructureHeader(
            root_ptr=root_ptr,
            type_code=int(self.TYPE),
            subtype=self._subtype,
            key_length=self.key_length,
            flags=flags,
            size=size,
            aux=aux,
            version=version,
        ).store(self.mem.space, self.header_addr)

    def header(self) -> DataStructureHeader:
        return DataStructureHeader.load(self.mem.space, self.header_addr)

    def _update_header(self, **changes: int) -> None:
        # Flags and the seqlock version word are preserved unless explicitly
        # changed: a size/root update must never release (or reset) a held
        # write lock or drop the RESIZING flag (docs/mutations.md).
        current = self.header()
        fields = {
            "root_ptr": current.root_ptr,
            "size": current.size,
            "aux": current.aux,
            "flags": current.flags,
            "version": current.version,
        }
        fields.update(changes)
        self._write_header(**fields)

    # ------------------------------------------------------------------ #
    # Key helpers
    # ------------------------------------------------------------------ #

    def _check_key(self, key: bytes) -> bytes:
        if len(key) != self.key_length:
            raise DataStructureError(
                f"key must be exactly {self.key_length} bytes, got {len(key)}"
            )
        return key

    def store_key(self, key: bytes) -> int:
        """Place a query key into simulated memory (QEI reads it by pointer)."""
        return self.mem.store_bytes(self._check_key(key))

    # ------------------------------------------------------------------ #
    # Software-baseline trace helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _emit_memcmp(
        builder: TraceBuilder,
        a_addr: int,
        b_addr: int,
        length: int,
        deps: tuple,
    ) -> int:
        """Software memcmp: load both operands, one compare per 8 bytes."""
        loads_a = builder.load_span(a_addr, length, deps)
        loads_b = builder.load_span(b_addr, length, deps)
        cmp_op = builder.alu(deps=tuple(loads_a + loads_b), count=max(1, length // 8))
        return cmp_op
