"""Unit tests for physical memory, paging and address spaces."""

import pytest

from repro.errors import (
    OutOfMemory,
    ProtectionFault,
    SegmentationFault,
    SimulationError,
)
from repro.mem import AddressSpace, PhysicalMemory


@pytest.fixture
def phys():
    return PhysicalMemory(1024 * 1024)


@pytest.fixture
def space(phys):
    return AddressSpace(phys)


class TestPhysicalMemory:
    def test_roundtrip(self, phys):
        phys.write(0x1000, b"hello world")
        assert phys.read(0x1000, 11) == b"hello world"

    def test_unwritten_memory_reads_zero(self, phys):
        assert phys.read(0x2000, 4) == b"\x00" * 4

    def test_cross_frame_access(self, phys):
        data = bytes(range(200)) * 50  # 10000 bytes, spans 3+ frames
        phys.write(4000, data)
        assert phys.read(4000, len(data)) == data

    def test_out_of_range_rejected(self, phys):
        with pytest.raises(SimulationError):
            phys.read(phys.capacity_bytes - 2, 4)
        with pytest.raises(SimulationError):
            phys.write(-1, b"x")

    def test_frame_allocation_exhaustion(self):
        small = PhysicalMemory(3 * 4096)
        frames = [small.allocate_frame() for _ in range(3)]
        assert len(set(frames)) == 3
        with pytest.raises(OutOfMemory):
            small.allocate_frame()
        small.free_frame(frames[0])
        assert small.allocate_frame() == frames[0]

    def test_freed_frame_contents_dropped(self, phys):
        frame = phys.allocate_frame()
        base = frame * phys.frame_bytes
        phys.write(base, b"secret")
        phys.free_frame(frame)
        phys.allocate_frame()
        assert phys.read(base, 6) == b"\x00" * 6

    def test_double_free_rejected(self):
        small = PhysicalMemory(16 * 4096)
        frame = small.allocate_frame()
        small.free_frame(frame)
        with pytest.raises(SimulationError):
            small.free_frame(frame)
        assert small.frames_in_use == 0
        # The frame is handed out once, not twice.
        assert small.allocate_frame() == frame
        assert small.allocate_frame() != frame

    def test_freeing_never_allocated_frame_rejected(self):
        small = PhysicalMemory(16 * 4096)
        with pytest.raises(SimulationError):
            small.free_frame(0)
        small.allocate_frame()
        with pytest.raises(SimulationError):
            small.free_frame(5)
        assert small.frames_in_use == 1

    def test_free_after_contiguous_allocation_checked(self):
        small = PhysicalMemory(16 * 4096)
        base = small.allocate_contiguous(4)
        small.free_frame(base + 1)
        with pytest.raises(SimulationError):
            small.free_frame(base + 1)
        with pytest.raises(SimulationError):
            small.free_frame(base + 4)  # free, never handed out
        assert small.frames_in_use == 3


class TestAddressSpace:
    def test_map_translate_read_write(self, space):
        space.map_page(0x10000)
        space.write(0x10010, b"abc")
        assert space.read(0x10010, 3) == b"abc"

    def test_translation_is_page_granular(self, space):
        space.map_page(0x10000)
        paddr = space.translate(0x10123)
        assert paddr % space.page_bytes == 0x123

    def test_unmapped_access_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(0x50000, 1)

    def test_null_pointer_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.translate(0)
        with pytest.raises(SimulationError):
            space.map_page(0)

    def test_write_to_readonly_page_faults(self, space):
        space.map_page(0x20000, writable=False)
        assert space.read(0x20000, 1) == b"\x00"
        with pytest.raises(ProtectionFault):
            space.write(0x20000, b"x")

    def test_cross_page_virtual_access(self, space):
        space.map_page(0x30000)
        space.map_page(0x31000)
        blob = bytes(range(256)) * 10
        space.write(0x31000 - 100, blob)
        assert space.read(0x31000 - 100, len(blob)) == blob

    def test_scattered_frames_still_virtually_contiguous(self, space):
        # Map two adjacent virtual pages with a hole-frame between them so
        # their physical frames are non-adjacent (the paper's premise).
        space.map_page(0x40000)
        space.physical.allocate_frame()  # burn a frame
        space.map_page(0x41000)
        p0 = space.translate(0x40000)
        p1 = space.translate(0x41000)
        assert abs(p1 - p0) > space.page_bytes
        space.write(0x40FF0, b"0123456789abcdef0123")
        assert space.read(0x40FF0, 20) == b"0123456789abcdef0123"

    def test_unmap_releases_frame(self, space):
        before = space.physical.frames_in_use
        space.map_page(0x60000)
        assert space.physical.frames_in_use == before + 1
        space.unmap_page(0x60000)
        assert space.physical.frames_in_use == before
        with pytest.raises(SegmentationFault):
            space.read(0x60000, 1)

    def test_double_map_rejected(self, space):
        space.map_page(0x70000)
        with pytest.raises(SimulationError):
            space.map_page(0x70000)

    def test_fixed_width_accessors(self, space):
        space.map_page(0x80000)
        space.write_u64(0x80000, 0xDEADBEEFCAFEBABE)
        assert space.read_u64(0x80000) == 0xDEADBEEFCAFEBABE
        space.write_u32(0x80010, 0x12345678)
        assert space.read_u32(0x80010) == 0x12345678
        space.write_u16(0x80020, 0xABCD)
        assert space.read_u16(0x80020) == 0xABCD
        space.write_u8(0x80030, 0xEF)
        assert space.read_u8(0x80030) == 0xEF

    def test_u64_wraps_modulo_2_64(self, space):
        space.map_page(0x90000)
        space.write_u64(0x90000, -1)
        assert space.read_u64(0x90000) == 2**64 - 1
