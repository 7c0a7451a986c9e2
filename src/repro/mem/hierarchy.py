"""The full cache hierarchy: private L1/L2 per core, sliced NUCA LLC, DRAM.

Physical cachelines map to LLC slices through a NUCA hash (Sec. V: requests
are distributed "based on a hash function specific to the NUCA architecture").
Accesses can originate at a core (through its private caches) or directly at
a CHA/LLC slice (near-data accesses from distributed comparators), which is
how the accelerator avoids private-cache pollution.

Timing is returned, not scheduled: callers (the core timing model, the QEI
engine) decide how latencies compose with their own concurrency.

The public access entry points are bound at construction to the
epoch-memoized fast path (:mod:`repro.mem.fastpath`), which replays
memoized hit outcomes exactly.  The reference walk
(``_access_from_core_slow`` / ``_access_from_slice_slow``) is the
specification that layer is checked against; a hierarchy built with
``fastmem=False`` runs it directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..config import CACHELINE_BYTES, LlcConfig, SystemConfig
from ..errors import ConfigurationError
from ..sim.stats import StatsRegistry
from . import fastpath
from .cache import Cache, CacheLevelName
from .dram import Dram


def nuca_slice_hash(line_addr: int, num_slices: int) -> int:
    """Spread cachelines over LLC slices with a cheap mixing hash.

    Mirrors the XOR-folding hashes Intel uses for slice selection: avoids
    striding artifacts that a plain modulo would give for power-of-two
    strides.
    """
    x = line_addr
    x ^= x >> 7
    x ^= x >> 13
    x = (x * 0x9E3779B1) & 0xFFFFFFFF
    return x % num_slices


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one timed cacheline access."""

    latency: int
    level: CacheLevelName
    slice_id: int
    noc_hops: int = 0


def _manhattan_hops(noc, src: int, dst: int) -> int:
    """Mesh latency estimate for hierarchies built without a NoC."""
    width = noc.width
    sx, sy = src % width, src // width
    dx, dy = dst % width, dst // width
    hops = abs(sx - dx) + abs(sy - dy)
    return hops * (noc.hop_cycles + noc.router_cycles)


class MemoryHierarchy:
    """Private L1/L2 per core + shared sliced LLC + DRAM."""

    def __init__(
        self,
        config: SystemConfig,
        *,
        stats: Optional[StatsRegistry] = None,
        hop_latency: Optional[Callable[[int, int], int]] = None,
        noc_charge: Optional[Callable[[int, int, int, int], None]] = None,
        noc=None,
        fastmem: bool = True,
    ) -> None:
        """Build the hierarchy.

        Args:
            hop_latency: ``(src_node, dst_node) -> cycles`` over the mesh;
                defaults to a Manhattan-distance estimate if no NoC is wired.
            noc_charge: optional ``(src, dst, bytes, now)`` bandwidth hook.
            noc: a :class:`~repro.noc.mesh.MeshNoc` to wire directly —
                supplies ``hop_latency``/``noc_charge`` defaults and lets
                the fast path batch its send charges.
            fastmem: bind the epoch-memoized fast path
                (:mod:`repro.mem.fastpath`); ``False`` keeps the reference
                walk, which the property and golden-stats tests compare
                against.
        """
        self.config = config
        if noc is not None:
            hop_latency = hop_latency or noc.latency
            noc_charge = noc_charge or noc.send
        registry = stats or StatsRegistry()
        self.stats = registry.scoped("mem")
        self.l1 = [
            Cache(config.core.l1d, stats=registry, name=f"core{i}.l1d")
            for i in range(config.num_cores)
        ]
        self.l2 = [
            Cache(config.core.l2, stats=registry, name=f"core{i}.l2")
            for i in range(config.num_cores)
        ]
        slice_cfg = config.llc.slice_config()
        self.llc_slices = [
            Cache(slice_cfg, stats=registry, name=f"llc.slice{i}")
            for i in range(config.llc.slices)
        ]
        self.dram = Dram(
            config.dram, frequency_ghz=config.core.frequency_ghz, stats=registry
        )
        # A partial over the NoC config, not a bound method: the hierarchy
        # must not reference itself, so a dropped one dies by refcount.
        self._hop_latency = hop_latency or functools.partial(
            _manhattan_hops, config.noc
        )
        self._noc_charge = noc_charge
        self._llc_latency = config.llc.latency_cycles
        self._num_slices = len(self.llc_slices)
        # line -> home slice memo: the NUCA hash is a pure function of the
        # line address and slice count, and workloads touch the same lines
        # millions of times.
        self._slice_memo: dict[int, int] = {}
        # Hot-path counters bump via the approved ``counter.value += 1``
        # form throughout this module (one attribute store, no method call);
        # see the idiom table in sim/stats.py.
        self._accesses = self.stats.counter("accesses")
        self._dram_accesses = self.stats.counter("dram_accesses")
        #: Optional next-line prefetcher at the L2 (off by default so the
        #: calibrated experiments are prefetch-free, like the paper's
        #: focus on demand behaviour).  When enabled, an L2 demand miss
        #: also installs the next line into the L2 off the critical path.
        self.next_line_prefetch = False
        self._prefetches = self.stats.counter("prefetches")
        #: The epoch-memoized fast path (mem/fastpath.py).  It shadows the
        #: public access entry points with bound methods that replay
        #: memoized hit outcomes; ``fastmem=False`` leaves the reference
        #: slow path untouched.
        self._fast = None
        if fastmem:
            self._fast = fastpath.FastMem(self, noc=noc)
            self.access_from_core = self._fast.access_from_core
            self.access_from_slice = self._fast.access_from_slice
            self.warm_lines = self._fast.warm_lines

    # ------------------------------------------------------------------ #

    def slice_of(self, line_addr: int) -> int:
        memo = self._slice_memo
        home = memo.get(line_addr)
        if home is None:
            home = memo[line_addr] = nuca_slice_hash(line_addr, self._num_slices)
        return home

    @staticmethod
    def line_of(paddr: int) -> int:
        return paddr // CACHELINE_BYTES

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
    ) -> AccessResult:
        """A demand access from core ``core_id``'s pipeline (or its QEI).

        ``fill_l1=False`` models accesses that bypass the L1 (QEI sits next
        to the L2, Sec. V-A); ``fill_l2=False`` additionally skips the L2.
        """
        return self._access_from_core_slow(
            core_id, paddr, write, now, fill_l1, fill_l2
        )

    def _access_from_core_slow(
        self,
        core_id: int,
        paddr: int,
        write: bool,
        now: int,
        fill_l1: bool,
        fill_l2: bool,
    ) -> AccessResult:
        """The reference walk; the fast path calls this on memo misses."""
        if not 0 <= core_id < len(self.l1):
            raise ConfigurationError(f"core_id {core_id} out of range")
        self._accesses.value += 1
        line = paddr // CACHELINE_BYTES
        l1 = self.l1[core_id]
        l2 = self.l2[core_id]
        l1_lat = l1.config.latency_cycles
        l2_lat = l2.config.latency_cycles

        if fill_l1 and l1.access(line, write=write):
            return AccessResult(l1_lat, CacheLevelName.L1, self.slice_of(line))
        if l2.access(line, write=write):
            latency = (l1_lat if fill_l1 else 0) + l2_lat
            if fill_l1:
                l1.fill(line, dirty=write)
            return AccessResult(latency, CacheLevelName.L2, self.slice_of(line))

        lead_in = (l1_lat if fill_l1 else 0) + l2_lat
        result = self._access_llc(
            line, src_node=core_id, write=write, now=now, lead_in=lead_in
        )
        if fill_l2:
            l2.fill(line, dirty=write)
        if fill_l1:
            l1.fill(line, dirty=write)
        if self.next_line_prefetch and fill_l2 and not l2.probe(line + 1):
            # Off the critical path: install the next line into L2/LLC.
            self._prefetches.value += 1
            home = self.slice_of(line + 1)
            if not self.llc_slices[home].probe(line + 1):
                self.llc_slices[home].fill(line + 1)
            l2.fill(line + 1)
        return result

    def access_from_slice(
        self, slice_id: int, paddr: int, *, write: bool = False, now: int = 0
    ) -> AccessResult:
        """A near-data access issued at a CHA (distributed comparator).

        The request starts at the slice's own node; if the NUCA home of the
        line is a different slice, the request crosses the mesh (this is rare
        for QEI because comparisons are routed to the home slice up front).
        """
        return self._access_from_slice_slow(slice_id, paddr, write, now)

    def _access_from_slice_slow(
        self, slice_id: int, paddr: int, write: bool, now: int
    ) -> AccessResult:
        """The reference walk; the fast path calls this on memo misses."""
        line = paddr // CACHELINE_BYTES
        self._accesses.value += 1
        return self._access_llc(line, src_node=slice_id, write=write, now=now)

    def _access_llc(
        self,
        line: int,
        *,
        src_node: int,
        write: bool,
        now: int,
        lead_in: int = 0,
    ) -> AccessResult:
        home = self.slice_of(line)
        hop_cycles = self._hop_latency(src_node, home)
        if self._noc_charge is not None:
            self._noc_charge(src_node, home, CACHELINE_BYTES, now)
        llc = self.llc_slices[home]
        latency = lead_in + hop_cycles + self._llc_latency
        if llc.access(line, write=write):
            return AccessResult(latency, CacheLevelName.LLC, home, hop_cycles)
        self._dram_accesses.value += 1
        latency += self.dram.access(line, now + latency)
        llc.fill(line, dirty=write)
        return AccessResult(latency, CacheLevelName.DRAM, home, hop_cycles)

    # ------------------------------------------------------------------ #

    def flush_private(self, core_id: int) -> None:
        """Drop a core's L1/L2 contents (used between experiment phases)."""
        self.l1[core_id].invalidate()
        self.l2[core_id].invalidate()

    def flush_all(self) -> None:
        for i in range(len(self.l1)):
            self.flush_private(i)
        for llc in self.llc_slices:
            llc.invalidate()
        self.dram.reset_timing()

    def warm_lines(self, core_id: int, paddrs: List[int]) -> None:
        """Pre-touch lines so an ROI starts from a warmed cache state.

        With the fast path enabled this entry point is rebound to
        :meth:`FastMem.warm_lines`, which batches the whole sweep through
        the memo with hoisted locals (see bench_mem's warm legs).
        """
        for paddr in paddrs:
            self.access_from_core(core_id, paddr)
