"""Simulated physical memory: a sparse array of 4KB frames.

Frames are allocated lazily so a 512MB machine costs only what is touched.
Reads and writes may span frame boundaries; the class splits them.

The free pool is lazy too.  Frames at or above the ``_fresh`` cursor have
never been handed out; ``_free_frames`` holds only frames given back since
(an insertion-ordered dict used as a LIFO set).  ``allocate_frame`` reuses
the most recently freed frame first, then takes the lowest fresh one: the
same order as popping a ``[n-1, ..., 1, 0]`` list that freed frames are
pushed onto.  So a process costs O(frames used), not O(capacity), to hold,
pickle and restore from a warm-system snapshot.
"""

from __future__ import annotations

from typing import Dict

from ..config import PAGE_BYTES
from ..errors import OutOfMemory, SimulationError


class PhysicalMemory:
    """Byte-addressable simulated DRAM, organised as 4KB frames."""

    def __init__(self, capacity_bytes: int, frame_bytes: int = PAGE_BYTES) -> None:
        if capacity_bytes <= 0 or capacity_bytes % frame_bytes:
            raise SimulationError(
                "physical capacity must be a positive multiple of the frame size"
            )
        self.capacity_bytes = capacity_bytes
        self.frame_bytes = frame_bytes
        self.num_frames = capacity_bytes // frame_bytes
        self._frames: Dict[int, bytearray] = {}
        #: Frames below this have been allocated at least once.
        self._fresh = 0
        #: Released frames in push order; the last one is reused first.
        self._free_frames: Dict[int, None] = {}

    # ------------------------------------------------------------------ #
    # Frame management
    # ------------------------------------------------------------------ #

    def allocate_frame(self) -> int:
        """Reserve one physical frame, returning its frame number."""
        if self._free_frames:
            return self._free_frames.popitem()[0]
        frame = self._fresh
        if frame >= self.num_frames:
            raise OutOfMemory(
                f"physical memory exhausted ({self.num_frames} frames in use)"
            )
        self._fresh = frame + 1
        return frame

    def allocate_contiguous(self, count: int) -> int:
        """Reserve ``count`` physically *consecutive* frames (huge pages).

        Returns the base frame number.  Raises :class:`OutOfMemory` when no
        contiguous run exists — which is exactly the fragmentation failure
        mode the paper raises against huge-page-only designs (Sec. II-B).
        A successful call turns every fresh frame into an explicit free
        frame in ascending order, so later single-frame allocations take
        the highest free frame first.
        """
        if count <= 0:
            raise SimulationError("contiguous allocation needs a positive count")
        # Released frames all lie below the fresh cursor.
        free = sorted(self._free_frames)
        free.extend(range(self._fresh, self.num_frames))
        run_start = 0
        for i in range(1, len(free) + 1):
            if i == len(free) or free[i] != free[i - 1] + 1:
                if i - run_start >= count:
                    base = free[run_start]
                    del free[run_start : run_start + count]
                    self._free_frames = dict.fromkeys(free)
                    self._fresh = self.num_frames
                    return base
                run_start = i
        raise OutOfMemory(
            f"no contiguous run of {count} frames (fragmented physical memory)"
        )

    def free_frame(self, frame_number: int) -> None:
        """Return a frame to the free pool and drop its contents."""
        self._check_frame(frame_number)
        if frame_number >= self._fresh or frame_number in self._free_frames:
            raise SimulationError(f"frame {frame_number} is not allocated")
        self._frames.pop(frame_number, None)
        self._free_frames[frame_number] = None

    @property
    def frames_in_use(self) -> int:
        return self._fresh - len(self._free_frames)

    def _check_frame(self, frame_number: int) -> None:
        if not 0 <= frame_number < self.num_frames:
            raise SimulationError(f"frame {frame_number} out of range")

    def _backing(self, frame_number: int) -> bytearray:
        self._check_frame(frame_number)
        frame = self._frames.get(frame_number)
        if frame is None:
            frame = bytearray(self.frame_bytes)
            self._frames[frame_number] = frame
        return frame

    # ------------------------------------------------------------------ #
    # Byte access (physical addresses)
    # ------------------------------------------------------------------ #

    def read(self, paddr: int, length: int) -> bytes:
        """Read ``length`` bytes at physical address ``paddr``."""
        # Fast path: a non-empty access confined to one frame.
        frame_number, offset = divmod(paddr, self.frame_bytes)
        end = offset + length
        if 0 < length and 0 <= paddr and end <= self.frame_bytes:
            if paddr + length > self.capacity_bytes:
                self._check_range(paddr, length)
            frame = self._frames.get(frame_number)
            if frame is None:
                frame = bytearray(self.frame_bytes)
                self._frames[frame_number] = frame
            return bytes(frame[offset:end])
        self._check_range(paddr, length)
        out = bytearray()
        remaining = length
        addr = paddr
        while remaining:
            frame_number, offset = divmod(addr, self.frame_bytes)
            chunk = min(remaining, self.frame_bytes - offset)
            out += self._backing(frame_number)[offset : offset + chunk]
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        """Write ``data`` at physical address ``paddr``."""
        length = len(data)
        frame_number, offset = divmod(paddr, self.frame_bytes)
        end = offset + length
        if 0 < length and 0 <= paddr and end <= self.frame_bytes:
            if paddr + length > self.capacity_bytes:
                self._check_range(paddr, length)
            frame = self._frames.get(frame_number)
            if frame is None:
                frame = bytearray(self.frame_bytes)
                self._frames[frame_number] = frame
            frame[offset:end] = data
            return
        self._check_range(paddr, length)
        addr = paddr
        view = memoryview(data)
        while view:
            frame_number, offset = divmod(addr, self.frame_bytes)
            chunk = min(len(view), self.frame_bytes - offset)
            self._backing(frame_number)[offset : offset + chunk] = view[:chunk]
            addr += chunk
            view = view[chunk:]

    def _check_range(self, paddr: int, length: int) -> None:
        if length < 0:
            raise SimulationError("negative access length")
        if paddr < 0 or paddr + length > self.capacity_bytes:
            raise SimulationError(
                f"physical access [0x{paddr:x}, +{length}) out of range"
            )
