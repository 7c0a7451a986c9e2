"""Lockstep tests for the lazy physical frame pool.

:class:`PhysicalMemory` keeps only a fresh-frame cursor and the frames
given back since.  :class:`ListPool` is the list it replaces: every frame
number in a ``[n-1, ..., 1, 0]`` list, popped from the end, freed frames
pushed back, and the whole list rebuilt in ascending order by a successful
contiguous allocation.  Random operation sequences must hand out the same
frame numbers from both, fail in the same places, and agree on
``frames_in_use``.
"""

from __future__ import annotations

import copy

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import SystemConfig  # noqa: E402
from repro.errors import OutOfMemory, SimulationError  # noqa: E402
from repro.mem import PhysicalMemory  # noqa: E402

FRAME = 4096


class ListPool:
    """The eager free list: the allocation order PhysicalMemory must keep."""

    def __init__(self, num_frames: int) -> None:
        self.num_frames = num_frames
        self.free = list(range(num_frames - 1, -1, -1))

    def allocate_frame(self) -> int:
        if not self.free:
            raise OutOfMemory("exhausted")
        return self.free.pop()

    def allocate_contiguous(self, count: int) -> int:
        free = sorted(self.free)
        run_start = 0
        for i in range(1, len(free) + 1):
            if i == len(free) or free[i] != free[i - 1] + 1:
                if i - run_start >= count:
                    base = free[run_start]
                    taken = set(range(base, base + count))
                    self.free = [f for f in free if f not in taken]
                    return base
                run_start = i
        raise OutOfMemory("fragmented")

    def free_frame(self, frame: int) -> None:
        if frame in self.free:
            raise SimulationError("not allocated")
        self.free.append(frame)

    @property
    def frames_in_use(self) -> int:
        return self.num_frames - len(self.free)


def outcome(call):
    try:
        return call()
    except (OutOfMemory, SimulationError) as exc:
        return type(exc)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 6)),
        st.tuples(st.just("free"), st.integers(0, 10_000)),
        st.tuples(st.just("free_any"), st.integers(0, 10_000)),
        st.tuples(st.just("contig"), st.integers(1, 12)),
    ),
    max_size=60,
)


@given(num_frames=st.integers(1, 40), ops=OPS)
@settings(max_examples=300, deadline=None)
def test_allocation_order_matches_list_pool(num_frames, ops):
    lazy = PhysicalMemory(num_frames * FRAME)
    model = ListPool(num_frames)
    held = []
    for op, arg in ops:
        if op == "alloc":
            for _ in range(arg):
                got = outcome(lazy.allocate_frame)
                assert got == outcome(model.allocate_frame)
                if isinstance(got, int):
                    held.append(got)
        elif op == "contig":
            got = outcome(lambda: lazy.allocate_contiguous(arg))
            assert got == outcome(lambda: model.allocate_contiguous(arg))
            if isinstance(got, int):
                held.extend(range(got, got + arg))
        elif op == "free" and held:
            frame = held.pop(arg % len(held))
            lazy.free_frame(frame)
            model.free_frame(frame)
        elif op == "free_any":
            # Any frame number: double frees and never-allocated frames
            # must be refused by both.
            frame = arg % num_frames
            got = outcome(lambda: lazy.free_frame(frame))
            assert got == outcome(lambda: model.free_frame(frame))
            if got is None:
                held.remove(frame)
        assert lazy.frames_in_use == model.frames_in_use == len(held)


def test_deepcopy_of_fresh_memory_is_small():
    memory = PhysicalMemory(SystemConfig().memory_bytes)
    assert memory.num_frames >= 100_000
    for _ in range(400):
        memory.allocate_frame()
    memory.free_frame(7)
    clone = copy.deepcopy(memory)
    sizes = {name: len(value) for name, value in vars(clone).items()
             if hasattr(value, "__len__")}
    assert max(sizes.values()) <= 400, sizes
    assert clone.allocate_frame() == 7
    assert clone.allocate_frame() == 400
    assert memory.allocate_frame() == 7
