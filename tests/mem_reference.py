"""A memory hierarchy with the epoch memo unbound: the reference walk.

Every :class:`~repro.mem.hierarchy.MemoryHierarchy` binds the FastMem memo
(``mem/fastpath.py``) over its public entry points as instance
attributes.  Deleting them exposes the class's own methods, which run the
reference walk (``_access_from_*_slow``) directly, and the class's
``fastmem = None``, so the OoO core loop replays no TLB or cache hit
inline and sends every load and store through ``Mmu.translate`` and the
walk.  The golden grid's
``fastmem`` off leg and the lockstep property tests build their slow side
this way, so ``src/`` keeps no switch for it.
"""

from __future__ import annotations

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.paging import AddressSpace

#: The entry points FastMem binds on each hierarchy instance, and the
#: layer itself, through which the core loop replays its L1 hits inline.
MEMO_BOUND = ("access_from_core", "access_from_slice", "warm_lines", "fastmem")


def memo_off(hierarchy: MemoryHierarchy) -> MemoryHierarchy:
    """Unbind the memo from ``hierarchy`` in place and return it."""
    for name in MEMO_BOUND:
        delattr(hierarchy, name)
    return hierarchy


def memo_off_everywhere(monkeypatch) -> None:
    """Every hierarchy built while ``monkeypatch`` is active runs unmemoized."""
    init = MemoryHierarchy.__init__

    def unmemoized_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        memo_off(self)

    monkeypatch.setattr(MemoryHierarchy, "__init__", unmemoized_init)


def _translated_read(space: AddressSpace, vaddr: int, length: int) -> bytes:
    """``AddressSpace.read`` without the frame memo: translate every page."""
    out = bytearray()
    addr, remaining = vaddr, length
    while remaining:
        chunk = min(remaining, space.page_bytes - addr % space.page_bytes)
        out += space.physical.read(space.translate(addr, "r"), chunk)
        addr += chunk
        remaining -= chunk
    return bytes(out)


def reads_translated_everywhere(monkeypatch) -> None:
    """Every ``AddressSpace.read`` translates instead of reading a memo.

    The functional side of the reference: an operand read never reaches a
    remembered frame, so a frame memo left stale by a mapping change shows
    up as a different value.  (The u64 accessors keep their memo; their
    misses now read through here.)
    """
    monkeypatch.setattr(AddressSpace, "read", _translated_read)
