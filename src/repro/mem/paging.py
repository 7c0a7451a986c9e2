"""Virtual memory: page tables and per-process address spaces.

The paper's central integration argument is that queried data structures
"seldom reside in a contiguous memory address space" larger than a 4KB page,
so an accelerator *must* translate addresses (Sec. I, Sec. V).  We therefore
model real 4KB paging: each process owns a page table mapping virtual page
numbers to physical frames, and the :class:`~repro.mem.allocator`
deliberately scatters physically-backed pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..config import PAGE_BYTES
from ..errors import ProtectionFault, SegmentationFault, SimulationError
from .physical import PhysicalMemory

MASK64 = (1 << 64) - 1


@dataclass
class PageTableEntry:
    """One VPN -> PFN mapping with permissions."""

    frame_number: int
    readable: bool = True
    writable: bool = True

    def permits(self, access: str) -> bool:
        if access == "r":
            return self.readable
        if access == "w":
            return self.writable
        raise SimulationError(f"unknown access kind {access!r}")


class PageTable:
    """A flat VPN -> PTE map (a radix walk is modelled by the MMU's cost)."""

    def __init__(self, page_bytes: int = PAGE_BYTES) -> None:
        self.page_bytes = page_bytes
        self._entries: Dict[int, PageTableEntry] = {}

    def map(self, vpn: int, frame_number: int, *, writable: bool = True) -> None:
        if vpn in self._entries:
            raise SimulationError(f"VPN 0x{vpn:x} is already mapped")
        self._entries[vpn] = PageTableEntry(frame_number, writable=writable)

    def unmap(self, vpn: int) -> PageTableEntry:
        try:
            return self._entries.pop(vpn)
        except KeyError as exc:
            raise SegmentationFault(
                vpn * self.page_bytes, f"unmap of unmapped VPN 0x{vpn:x}"
            ) from exc

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        return self._entries.get(vpn)

    def __iter__(self) -> Iterator[Tuple[int, PageTableEntry]]:
        return iter(sorted(self._entries.items()))


class AddressSpace:
    """One process's virtual address space over shared physical memory.

    Functional translation only; timing (TLB hits, page-walk cycles) is the
    MMU's job.  The zero page is never mapped so a NULL pointer dereference
    raises :class:`SegmentationFault` — which the QEI accelerator surfaces as
    its architectural EXCEPTION state.
    """

    #: 2MB huge pages (x86 PDE mappings).
    HUGE_PAGE_BYTES = 2 * 1024 * 1024
    #: Tag added to huge-page numbers so TLB keys never collide with VPNs.
    HUGE_KEY_BASE = 1 << 40

    def __init__(self, physical: PhysicalMemory) -> None:
        self.physical = physical
        page_bytes = self.page_bytes = PAGE_BYTES
        #: Shift/mask forms of the page geometry for the in-page fast paths.
        self._page_shift = page_bytes.bit_length() - 1
        self._page_mask = page_bytes - 1
        self._u64_limit = page_bytes - 8
        self._u128_limit = page_bytes - 16
        self.page_table = PageTable(page_bytes)
        #: huge-page number -> base frame of a physically contiguous run.
        self._huge_pages: Dict[int, int] = {}
        #: (vpn, access) -> (tlb_key, base_paddr, span) memo for the pure
        #: functional walk.  Invalidated wholesale on any mapping mutation
        #: (map/unmap/restore); faulting lookups are never cached so
        #: segfault/protection semantics are unchanged.
        self._walk_memo: Dict[Tuple[int, str], Tuple[int, int, int]] = {}
        #: vpn -> (frame bytearray, page base offset) direct-access memos for
        #: in-page reads and the u64 fast paths, split by permission.  The
        #: bytearray is the live backing store (mutated in place by all
        #: writers), so a memo hit needs no translation at all.  Cleared
        #: with ``_walk_memo``.
        self._frame_memo_r: Dict[int, Tuple[bytearray, int]] = {}
        self._frame_memo_w: Dict[int, Tuple[bytearray, int]] = {}

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def map_page(self, vaddr: int, *, writable: bool = True) -> int:
        """Back the page containing ``vaddr`` with a fresh physical frame."""
        if vaddr % self.page_bytes:
            raise SimulationError(f"map_page needs page-aligned vaddr, got 0x{vaddr:x}")
        vpn = vaddr // self.page_bytes
        if vpn == 0:
            raise SimulationError("refusing to map the zero page")
        frame = self.physical.allocate_frame()
        self.page_table.map(vpn, frame, writable=writable)
        self._walk_memo.clear()
        self._frame_memo_r.clear()
        self._frame_memo_w.clear()
        return frame

    def map_huge_page(self, vaddr: int) -> int:
        """Back a 2MB-aligned region with physically contiguous frames.

        One TLB entry covers the whole region — the assumption prior work
        (HALO) builds on, and the paper argues is fragile under
        fragmentation (Sec. II-B challenge 3).  Returns the base frame.
        """
        if vaddr % self.HUGE_PAGE_BYTES:
            raise SimulationError(
                f"huge pages must be 2MB aligned, got 0x{vaddr:x}"
            )
        hpn = vaddr // self.HUGE_PAGE_BYTES
        if hpn in self._huge_pages:
            raise SimulationError(f"huge page 0x{vaddr:x} is already mapped")
        frames = self.HUGE_PAGE_BYTES // self.page_bytes
        base_frame = self.physical.allocate_contiguous(frames)
        self._huge_pages[hpn] = base_frame
        self._walk_memo.clear()
        self._frame_memo_r.clear()
        self._frame_memo_w.clear()
        return base_frame

    def unmap_page(self, vaddr: int, *, free_frame: bool = True) -> PageTableEntry:
        """Drop the mapping for ``vaddr``'s page; returns the removed PTE.

        ``free_frame=False`` keeps the physical frame (contents intact) so
        the page can later be re-established with :meth:`restore_page` —
        the fault injector's unmap-mid-walk / OS-repair hook.
        """
        vpn = vaddr // self.page_bytes
        entry = self.page_table.unmap(vpn)
        self._walk_memo.clear()
        self._frame_memo_r.clear()
        self._frame_memo_w.clear()
        if free_frame:
            self.physical.free_frame(entry.frame_number)
        return entry

    def restore_page(self, vaddr: int, entry: PageTableEntry) -> None:
        """Re-establish a mapping removed with ``unmap_page(free_frame=False)``."""
        self.page_table.map(
            vaddr // self.page_bytes, entry.frame_number, writable=entry.writable
        )
        self._walk_memo.clear()
        self._frame_memo_r.clear()
        self._frame_memo_w.clear()

    def huge_pages(self) -> Iterator[Tuple[int, int]]:
        """``(huge-page number, base frame)`` for every mapped 2MB page."""
        return iter(self._huge_pages.items())

    def is_mapped(self, vaddr: int) -> bool:
        if vaddr // self.HUGE_PAGE_BYTES in self._huge_pages:
            return True
        return self.page_table.lookup(vaddr // self.page_bytes) is not None

    def translation_entry(self, vaddr: int, access: str = "r"):
        """(tlb_key, base_paddr, span) for the page covering ``vaddr``.

        Huge pages return one entry spanning 2MB (a single TLB slot covers
        the whole region); small pages return per-4KB entries.  Successful
        walks are memoized per (vpn, access) — the result is a pure function
        of the mapping state, which invalidates the memo when it changes.
        """
        memo_key = (vaddr // self.page_bytes, access)
        cached = self._walk_memo.get(memo_key)
        if cached is not None:
            return cached
        if vaddr < 0:
            raise SegmentationFault(vaddr)
        hpn = vaddr // self.HUGE_PAGE_BYTES
        base_frame = self._huge_pages.get(hpn)
        if base_frame is not None:
            result = (
                self.HUGE_KEY_BASE + hpn,
                base_frame * self.page_bytes,
                self.HUGE_PAGE_BYTES,
            )
            self._walk_memo[memo_key] = result
            return result
        vpn = memo_key[0]
        entry = self.page_table.lookup(vpn)
        if entry is None:
            raise SegmentationFault(vaddr)
        if not entry.permits(access):
            raise ProtectionFault(vaddr, access)
        result = (vpn, entry.frame_number * self.page_bytes, self.page_bytes)
        self._walk_memo[memo_key] = result
        return result

    def translate(self, vaddr: int, access: str = "r") -> int:
        """Virtual -> physical, raising simulated faults on bad accesses."""
        cached = self._walk_memo.get((vaddr // self.page_bytes, access))
        if cached is not None:
            return cached[1] + vaddr % cached[2]
        _, base_paddr, span = self.translation_entry(vaddr, access)
        return base_paddr + vaddr % span

    # ------------------------------------------------------------------ #
    # Byte access (virtual addresses); splits at page boundaries
    # ------------------------------------------------------------------ #

    def read(self, vaddr: int, length: int) -> bytes:
        # Fast path: the access stays inside one page (the overwhelmingly
        # common case: every CEE operand read, the fixed-width accessors
        # below).  A page seen before reads its live frame directly; a
        # first touch translates, so faults are raised here, then
        # remembers the frame.
        offset = vaddr & self._page_mask
        if 0 < length and offset + length <= self.page_bytes:
            vpn = vaddr >> self._page_shift
            entry = self._frame_memo_r.get(vpn)
            if entry is not None:
                base = entry[1] + offset
                return bytes(entry[0][base : base + length])
            data = self.physical.read(self.translate(vaddr, "r"), length)
            self._memoize_frame(vpn, "r", self._frame_memo_r)
            return data
        out = bytearray()
        addr, remaining = vaddr, length
        while remaining:
            offset = addr % self.page_bytes
            chunk = min(remaining, self.page_bytes - offset)
            out += self.physical.read(self.translate(addr, "r"), chunk)
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, vaddr: int, data: bytes) -> None:
        if data and vaddr % self.page_bytes + len(data) <= self.page_bytes:
            self.physical.write(self.translate(vaddr, "w"), data)
            return
        addr = vaddr
        view = memoryview(data)
        while view:
            offset = addr % self.page_bytes
            chunk = min(len(view), self.page_bytes - offset)
            self.physical.write(self.translate(addr, "w"), bytes(view[:chunk]))
            addr += chunk
            view = view[chunk:]

    # Convenience fixed-width accessors (little-endian, like x86).
    #
    # ``read_u64``/``write_u64`` are the simulator's single hottest calls
    # (every slot/pointer/signature fetch in every data structure), so they
    # read the remembered frame directly instead of calling read().  The
    # fast path only fires for an in-page access to a page read (or, for
    # writes, written) before; everything else (page-crossers, first
    # touches, faults) takes the general path.

    def read_u64(self, vaddr: int) -> int:
        offset = vaddr & self._page_mask
        entry = self._frame_memo_r.get(vaddr >> self._page_shift)
        if entry is not None and offset <= self._u64_limit:
            base = entry[1] + offset
            return int.from_bytes(entry[0][base : base + 8], "little")
        # read() remembers the frame of an in-page access.
        return int.from_bytes(self.read(vaddr, 8), "little")

    def read_2u64(self, vaddr: int) -> Tuple[int, int]:
        """Two consecutive u64s in one access (hot for 16-byte slots)."""
        offset = vaddr & self._page_mask
        entry = self._frame_memo_r.get(vaddr >> self._page_shift)
        if entry is not None and offset <= self._u128_limit:
            base = entry[1] + offset
            word = int.from_bytes(entry[0][base : base + 16], "little")
            return word & MASK64, word >> 64
        return self.read_u64(vaddr), self.read_u64(vaddr + 8)

    def write_u64(self, vaddr: int, value: int) -> None:
        offset = vaddr & self._page_mask
        vpn = vaddr >> self._page_shift
        entry = self._frame_memo_w.get(vpn)
        if entry is not None and offset <= self._u64_limit:
            base = entry[1] + offset
            entry[0][base : base + 8] = (value & MASK64).to_bytes(8, "little")
            return
        self.write(vaddr, (value & MASK64).to_bytes(8, "little"))
        if offset <= self._u64_limit:
            self._memoize_frame(vpn, "w", self._frame_memo_w)

    def _memoize_frame(self, vpn: int, access: str, memo: Dict[int, Tuple[bytearray, int]]) -> None:
        """Remember the live frame backing ``vpn`` for direct u64 access.

        Pages and frames are both 4KB, so every page maps wholly onto one
        frame (pages inside a huge-page run too: their sub-pages are
        frame-aligned).
        """
        physical = self.physical
        base_paddr = self.translate(vpn * self.page_bytes, access)
        frame_number, base_offset = divmod(base_paddr, physical.frame_bytes)
        if base_offset:
            return
        frame = physical._frames.get(frame_number)
        if frame is None:
            frame = bytearray(physical.frame_bytes)
            physical._frames[frame_number] = frame
        memo[vpn] = (frame, 0)

    def read_u32(self, vaddr: int) -> int:
        return int.from_bytes(self.read(vaddr, 4), "little")

    def write_u32(self, vaddr: int, value: int) -> None:
        self.write(vaddr, (value & (2**32 - 1)).to_bytes(4, "little"))

    def read_u16(self, vaddr: int) -> int:
        return int.from_bytes(self.read(vaddr, 2), "little")

    def write_u16(self, vaddr: int, value: int) -> None:
        self.write(vaddr, (value & 0xFFFF).to_bytes(2, "little"))

    def read_u8(self, vaddr: int) -> int:
        return self.read(vaddr, 1)[0]

    def write_u8(self, vaddr: int, value: int) -> None:
        self.write(vaddr, bytes([value & 0xFF]))
