"""Epoch-memoized fast path over the end-to-end memory access walk.

With the CEE driver compiled and fused, the drain is dominated by the
*timing model itself*: every micro-op re-walks
:meth:`~repro.mem.hierarchy.MemoryHierarchy.access_from_core` /
``access_from_slice`` — L1/L2 dict probes, the NUCA slice hash, hop
latency, per-set LRU churn and stats counter objects — even when the line
is resident and the outcome is fully determined by unchanged cache state.
This module memoizes that walk, exactly.

Epoch contract
--------------

Every :class:`~repro.mem.cache.Cache` set carries a generation counter,
``set_epochs[index]``, bumped only when line *presence* in the set
changes: a new-tag fill, an eviction, an invalidate.
Hits (LRU pop-and-reinsert) and dirty-only refills of an already-present
tag do **not** bump it.  Therefore:

    set epoch unchanged  ⇒  the memoized tag is still present  ⇒  the access
    is still a hit at the same level with the same latency, hop count and
    home slice.

A memo record is stored only for outcomes whose slow path performs **no
fill**: an L1 hit, an L2 hit with ``fill_l1=False`` (the QEI sits beside
the L2, Sec. V-A), or an LLC-slice hit.  Outcomes that fill (L2 hits that
also fill the L1, anything reaching DRAM) would bump the very epoch the
record depends on — they self-invalidate, so caching them is pure waste —
and DRAM latency additionally depends on ``now`` against the channel
queues (``Dram.timing_epoch``), which no per-line record can capture.

Replay then reproduces the slow path's *entire* effect:

* **MRU short-circuit** — insertion-ordered dicts implement LRU by
  pop-and-reinsert, so when the tag is already last (``next(reversed(s))``)
  the touch is a no-op on ordering and is skipped outright; a write to a
  clean MRU line degenerates to one existing-key store (which preserves
  position).  Non-MRU hits replay the exact pop-and-reinsert.
* **Batched stats** — the hit and access counters accumulate in plain ints
  (``Cache._pending_hits``, ``FastMem._pending_accesses``) and fold into
  the :class:`~repro.sim.stats.StatsRegistry` through flush hooks; every
  registry read flushes first, so snapshots are bit-identical to the
  unbatched path.
* **Batched NoC charges** — slice hits replay their mesh crossing through
  the hierarchy's charge hook (:meth:`MeshNoc.charge`, which every mesh
  message goes through), which accumulates per-(src, dst) counts and
  replays the commutative per-link byte sums at flush time.
* The :class:`~repro.mem.hierarchy.AccessResult` named tuple itself is
  reused (it is immutable) — same latency, level, home and hop count by
  construction.

Two loops replay records without a call, reading them inline as
:meth:`FastMem.warm_lines` does:

* the OoO core loop, its own loads' and stores' L1 hits
  (:meth:`FastMem.core_probe`);
* the CEE driver, its memory micro-ops' line accesses: the slice records
  the CHA and device schemes issue (:meth:`FastMem.slice_probe`) and the
  core-integrated scheme's L2 hits, read beside the L2 with
  ``fill_l1=False`` (core key low bits ``0b001``).  The integration binds
  them (:meth:`~repro.core.integration.Integration.cee_probe`) and the
  driver reports its replays through :meth:`FastMem.count_replays`.

Every hierarchy binds this layer; there is no switch.  The hierarchy
keeps its reference walk (``_access_from_*_slow``) for memo misses, and
the class's own entry points run it directly: the tests get a memo-off
hierarchy by deleting the instance attributes bound here, ``fastmem``
included (``tests/mem_reference.py``).  The golden-stats suite replays
its pairs both ways and proves them cycle-bit-identical, and
``tests/test_fastmem_properties.py`` drives memoized and un-memoized
hierarchies in lockstep through random access streams asserting equal
results and equal final state.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from ..config import CACHELINE_BYTES
from .cache import CacheLevelName

_L1 = CacheLevelName.L1
_L2 = CacheLevelName.L2
_LLC = CacheLevelName.LLC


class FastMem:
    """Memo layer bound over one :class:`MemoryHierarchy` instance.

    The hierarchy rebinds its public ``access_from_core`` /
    ``access_from_slice`` / ``warm_lines`` entry points to the bound methods
    below at construction, so the fast path costs zero extra indirection
    and the class's reference walk stays untouched beneath it.
    """

    __slots__ = (
        "_h",
        "_accesses",
        "_l1",
        "_l2",
        "_llc",
        "_ncores",
        "_nslices",
        "_core_memo",
        "_cha_memo",
        "_charge",
        "_pending_accesses",
    )

    def __init__(self, hierarchy) -> None:
        # The hierarchy holds this layer (its entry points are bound to
        # it), so the way back is a weak proxy: a dropped System is then
        # freed by reference counting, without waiting for the cyclic GC.
        # Only memo misses take it, to reach the reference walk.
        self._h = weakref.proxy(hierarchy)
        self._accesses = hierarchy._accesses
        self._l1 = hierarchy.l1
        self._l2 = hierarchy.l2
        self._llc = hierarchy.llc_slices
        self._ncores = len(hierarchy.l1)
        self._nslices = len(hierarchy.llc_slices)
        # Packed-int keys (cheaper to hash than tuples), one memo per entry
        # point (``_cha_memo`` holds access_from_slice, issued at a CHA):
        #   core:  ((line * ncores + core) << 3) | write<<2 | fill_l1<<1 | fill_l2
        #   slice: ((line * nslices + slice) << 1) | write
        # Records: (result, set_dict, tag, epochs, set_index, epoch, cache
        #           [, home]) — valid while epochs[set_index] == epoch.
        self._core_memo: Dict[int, Tuple] = {}
        self._cha_memo: Dict[int, Tuple] = {}
        # Replayed slice hits still cross the mesh: the hierarchy's charge
        # hook (the mesh's batched ``charge``, when one is wired).
        self._charge = hierarchy._noc_charge
        self._pending_accesses = 0
        hierarchy.stats.add_flush_hook(self._flush_pending)

    def _flush_pending(self) -> None:
        if self._pending_accesses:
            self._accesses.value += self._pending_accesses
            self._pending_accesses = 0

    def core_probe(self, core_id: int):
        """``(memo_get, ncores, l1_latency)`` to replay core ``core_id``'s hits.

        A pipeline access (``fill_l1=fill_l2=True``: key low bits ``0b011``
        for a load, ``0b111`` for a store) stores a record only for an L1
        hit, in ``l1[core_id]`` at ``l1_latency``: its every other outcome
        fills.  So a record under such a key whose epoch still holds
        (``rec[3][rec[4]] == rec[5]``) is that hit again, and replaying it
        is :meth:`access_from_core`'s record branch: the MRU short-circuit
        or pop-and-reinsert on ``rec[1]``/``rec[2]`` (a store sets the
        dirty bit).  The caller counts the hits and reports them through
        :meth:`count_core_hits`; a miss goes through ``access_from_core``.

        The CEE's core-integrated reads use the same memo under key low
        bits ``0b001`` (a read with ``fill_l1=False``): those records are
        L2 hits in ``l2[core_id]``, replayed the same way at ``rec[0]``'s
        latency, and reported through :meth:`count_replays`.
        """
        return (
            self._core_memo.get,
            self._ncores,
            self._l1[core_id].config.latency_cycles,
        )

    def count_core_hits(self, core_id: int, count: int) -> None:
        """Batch ``count`` replayed L1 hits of ``core_id`` like our own."""
        self._l1[core_id]._pending_hits += count
        self._pending_accesses += count

    def slice_probe(self):
        """``(memo_get, nslices, charge)`` to replay slice accesses inline.

        A read issued at node ``src`` (an LLC slice, or a device's mesh
        stop) of ``paddr``'s line has the key
        ``(line * nslices + src) << 1``; a record is stored only for an LLC
        hit, as ``(result, set_dict, tag, epochs, set_index, epoch, cache,
        home)``.  While its epoch holds (``rec[3][rec[4]] == rec[5]``),
        replaying it is :meth:`access_from_slice`'s record branch:
        ``charge(src, home, CACHELINE_BYTES, now)`` when ``charge`` is not
        None, the MRU short-circuit or pop-and-reinsert of ``rec[2]`` in
        ``rec[1]``, one pending hit on ``rec[6]``, and ``rec[0]`` as the
        result.  The caller reports its replays through
        :meth:`count_replays`; a miss goes through ``access_from_slice``.
        """
        return self._cha_memo.get, self._nslices, self._charge

    def count_replays(self, count: int) -> None:
        """Batch ``count`` accesses replayed from records by a caller."""
        self._pending_accesses += count

    # ------------------------------------------------------------------ #

    def access_from_core(
        self,
        core_id: int,
        paddr: int,
        *,
        write: bool = False,
        now: int = 0,
        fill_l1: bool = True,
        fill_l2: bool = True,
    ):
        line = paddr // CACHELINE_BYTES
        key = ((line * self._ncores + core_id) << 3) | (
            (4 if write else 0) | (2 if fill_l1 else 0) | (1 if fill_l2 else 0)
        )
        rec = self._core_memo.get(key)
        if rec is not None:
            result, sdict, tag, epochs, sidx, epoch, cache = rec
            if epochs[sidx] == epoch:
                if next(reversed(sdict)) == tag:
                    if write and not sdict[tag]:
                        sdict[tag] = True
                else:
                    sdict[tag] = sdict.pop(tag) or write
                cache._pending_hits += 1
                self._pending_accesses += 1
                return result
        result = self._h._access_from_core_slow(
            core_id, paddr, write, now, fill_l1, fill_l2
        )
        level = result.level
        if level is _L1:
            cache = self._l1[core_id]
        elif level is _L2 and not fill_l1:
            cache = self._l2[core_id]
        else:
            # Everything else performed a fill (or hit DRAM): the record
            # would self-invalidate, so don't store one.
            return result
        tag, sidx = divmod(line, cache.num_sets)
        epochs = cache.set_epochs
        self._core_memo[key] = (
            result, cache._sets[sidx], tag, epochs, sidx, epochs[sidx], cache
        )
        return result

    def access_from_slice(
        self, slice_id: int, paddr: int, *, write: bool = False, now: int = 0
    ):
        line = paddr // CACHELINE_BYTES
        key = ((line * self._nslices + slice_id) << 1) | (1 if write else 0)
        rec = self._cha_memo.get(key)
        if rec is not None:
            result, sdict, tag, epochs, sidx, epoch, cache, home = rec
            if epochs[sidx] == epoch:
                charge = self._charge
                if charge is not None:
                    charge(slice_id, home, CACHELINE_BYTES, now)
                if next(reversed(sdict)) == tag:
                    if write and not sdict[tag]:
                        sdict[tag] = True
                else:
                    sdict[tag] = sdict.pop(tag) or write
                cache._pending_hits += 1
                self._pending_accesses += 1
                return result
        result = self._h._access_from_slice_slow(slice_id, paddr, write, now)
        if result.level is _LLC:
            home = result.slice_id
            cache = self._llc[home]
            tag, sidx = divmod(line, cache.num_sets)
            epochs = cache.set_epochs
            self._cha_memo[key] = (
                result, cache._sets[sidx], tag, epochs, sidx, epochs[sidx],
                cache, home,
            )
        return result

    def warm_lines(self, core_id: int, paddrs: List[int]) -> None:
        """Batched warm-up: replay resident lines without per-call overhead.

        Warm-system rebuilds touch the same working set repeatedly; the
        loop probes the memo with hoisted locals and only falls into the
        full access path for lines not yet (or no longer) resident.
        """
        memo = self._core_memo
        ncores = self._ncores
        access = self.access_from_core
        pending = 0
        for paddr in paddrs:
            line = paddr // CACHELINE_BYTES
            # write=False, fill_l1=True, fill_l2=True -> low bits 0b011.
            key = ((line * ncores + core_id) << 3) | 0b011
            rec = memo.get(key)
            if rec is not None:
                _result, sdict, tag, epochs, sidx, epoch, cache = rec
                if epochs[sidx] == epoch:
                    if next(reversed(sdict)) != tag:
                        sdict[tag] = sdict.pop(tag)
                    cache._pending_hits += 1
                    pending += 1
                    continue
            access(core_id, paddr)
        self._pending_accesses += pending
