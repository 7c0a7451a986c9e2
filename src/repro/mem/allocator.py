"""Virtual-memory allocators for simulated processes.

Two allocators:

* :class:`BumpArena` — a simple bump-pointer arena inside one virtual range,
  mapping pages on demand (contiguous *virtual* addresses).
* :class:`PageScatterAllocator` — the default for workload heaps.  It hands
  out virtually-contiguous allocations, but deliberately interleaves page
  mappings from several processes' allocation streams so *physical* frames
  are scattered.  This realises the paper's premise that data structures do
  not sit in one contiguous (huge-page) region, making translation
  unavoidable for the accelerator.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import PAGE_BYTES
from ..errors import AllocationError
from .paging import AddressSpace


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise AllocationError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


class BumpArena:
    """Bump-pointer allocation within ``[base, base + capacity)``.

    Pages are mapped lazily as the bump pointer crosses them.  ``free`` is a
    no-op except for the whole-arena ``reset`` — this matches how the
    workloads use arenas (build once, query many times).
    """

    def __init__(
        self,
        space: AddressSpace,
        base: int,
        capacity: int,
        *,
        name: str = "arena",
    ) -> None:
        if base % PAGE_BYTES:
            raise AllocationError("arena base must be page aligned")
        if capacity <= 0 or capacity % PAGE_BYTES:
            raise AllocationError("arena capacity must be a positive page multiple")
        self.space = space
        self.base = base
        self.capacity = capacity
        self.name = name
        self._cursor = base
        self._mapped_through = base  # first unmapped byte

    @property
    def end(self) -> int:
        return self.base + self.capacity

    def allocate(self, size: int, *, alignment: int = 8) -> int:
        """Reserve ``size`` bytes, returning the virtual address."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        addr = align_up(self._cursor, alignment)
        new_cursor = addr + size
        if new_cursor > self.end:
            raise AllocationError(
                f"arena {self.name!r} exhausted: need {size} bytes, "
                f"{self.end - addr} remain"
            )
        self._ensure_mapped(new_cursor)
        self._cursor = new_cursor
        return addr

    def _ensure_mapped(self, through: int) -> None:
        while self._mapped_through < through:
            self.space.map_page(self._mapped_through)
            self._mapped_through += PAGE_BYTES

    def reset(self) -> None:
        """Forget all allocations (mappings are kept for reuse)."""
        self._cursor = self.base


class HugePageArena:
    """Bump allocation inside 2MB huge-page mappings.

    This is the memory-placement assumption HALO-style designs rely on
    (Sec. II-B challenge 3): the whole structure sits in physically
    contiguous huge pages, so one TLB entry covers 2MB and accelerators
    barely need translation hardware.  Allocation fails with
    :class:`~repro.errors.OutOfMemory` when physical memory is too
    fragmented to supply contiguous runs — the paper's objection.
    """

    HUGE = 2 * 1024 * 1024

    def __init__(self, space: AddressSpace, base: int, huge_pages: int) -> None:
        if base % self.HUGE:
            raise AllocationError("huge arena base must be 2MB aligned")
        if huge_pages <= 0:
            raise AllocationError("need at least one huge page")
        self.space = space
        self.base = base
        self.capacity = huge_pages * self.HUGE
        self._cursor = base
        self._mapped_through = base

    @property
    def end(self) -> int:
        return self.base + self.capacity

    def allocate(self, size: int, *, alignment: int = 8) -> int:
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        addr = align_up(self._cursor, alignment)
        new_cursor = addr + size
        if new_cursor > self.end:
            raise AllocationError(
                f"huge arena exhausted: need {size}, {self.end - addr} remain"
            )
        while self._mapped_through < new_cursor:
            self.space.map_huge_page(self._mapped_through)
            self._mapped_through += self.HUGE
        self._cursor = new_cursor
        return addr


class PageScatterAllocator:
    """A malloc-like allocator whose physical frames are non-contiguous.

    Internally it is a collection of bump arenas; between arena refills it
    burns a configurable number of physical frames ("interleave holes") so
    consecutive virtual pages land on non-consecutive physical frames, the
    way a long-lived fragmented heap behaves (Sec. II-B, challenge 3).
    """

    def __init__(
        self,
        space: AddressSpace,
        base: int,
        capacity: int,
        *,
        scatter_frames: int = 3,
        chunk_pages: int = 16,
    ) -> None:
        self.space = space
        self.base = base
        self.capacity = capacity
        self.scatter_frames = scatter_frames
        self.chunk_pages = chunk_pages
        self._next_chunk_base = base
        self._arena: Optional[BumpArena] = None
        self._hole_frames: List[int] = []
        self.total_allocated = 0

    @property
    def end(self) -> int:
        return self.base + self.capacity

    def allocate(self, size: int, *, alignment: int = 8) -> int:
        """Allocate ``size`` bytes of virtually-contiguous memory."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        if self._arena is not None:
            try:
                addr = self._arena.allocate(size, alignment=alignment)
                self.total_allocated += size
                return addr
            except AllocationError:
                pass  # refill below
        self._refill(size + alignment)
        assert self._arena is not None
        addr = self._arena.allocate(size, alignment=alignment)
        self.total_allocated += size
        return addr

    def _refill(self, min_bytes: int) -> None:
        # Scatter: consume a few frames so the next chunk's frames are not
        # adjacent to the previous chunk's.
        for _ in range(self.scatter_frames):
            self._hole_frames.append(self.space.physical.allocate_frame())
        chunk_bytes = max(
            self.chunk_pages * PAGE_BYTES, align_up(min_bytes, PAGE_BYTES)
        )
        if self._next_chunk_base + chunk_bytes > self.end:
            raise AllocationError(
                f"heap exhausted at 0x{self._next_chunk_base:x} "
                f"(capacity {self.capacity} bytes)"
            )
        self._arena = BumpArena(
            self.space, self._next_chunk_base, chunk_bytes, name="heap-chunk"
        )
        self._next_chunk_base += chunk_bytes

    def release_holes(self) -> None:
        """Return scatter frames to the physical pool (heap stays fragmented)."""
        for frame in self._hole_frames:
            self.space.physical.free_frame(frame)
        self._hole_frames.clear()
