"""Integration schemes: where QEI lives and how it reaches memory (Sec. V).

Five schemes are modelled, matching Sec. VI-A:

* ``cha-tlb`` — HALO-like: one accelerator per CHA/LLC slice, each with a
  dedicated 1024-entry TLB.  Queries are distributed to slices by the NUCA
  hash of the header line.
* ``cha-notlb`` — per-CHA accelerators that round-trip to the owning core's
  MMU for every translation.
* ``device-direct`` — one centralized accelerator on its own NoC stop
  (DASX-like), with a dedicated TLB; data accesses cross the mesh.
* ``device-indirect`` — behind a device interface (OpenCAPI/CXL-like): every
  data access additionally pays the interface round-trip latency.
* ``core-integrated`` — the paper's proposal: QST/CEE/ALUs beside each
  core's L2, translating through the core's L2-TLB, memory fetches through
  the L2 path (no L1 pollution), and key comparisons executed remotely by
  comparators distributed in every CHA.

Each scheme exposes the same timing interface to the accelerator engine:
submit/return latency, translation, cacheline reads/writes, and compares.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from ..config import (
    CACHELINE_BYTES,
    IntegrationScheme,
    SystemConfig,
)
from ..datastructs.hashing import fnv1a64, primary_hash
from ..errors import ConfigurationError, MemoryError_
from ..mem.hierarchy import MemoryHierarchy
from ..mem.mmu import Mmu, PAGE_WALK_CYCLES
from ..mem.paging import AddressSpace
from ..mem.tlb import Tlb
from ..noc.mesh import MeshNoc
from ..sim.stats import StatsRegistry
from .dpu import AluPool, ComparatorPool, HashUnit
from .header import MAX_KEY_LENGTH, DataStructureHeader, StructureType


class SliceState(str, enum.Enum):
    """Health of one accelerator home (LLC slice / device stop / core).

    ``HEALTHY`` homes take new work.  ``DRAINING`` homes finish what they
    already accepted but the home probe routes new submissions elsewhere
    (quiesce windows: firmware update, planned maintenance).  ``FAILED``
    homes take nothing and their in-flight queries abort with
    :attr:`~repro.core.abort.AbortCode.SLICE_DOWN`.
    """

    HEALTHY = "healthy"
    DRAINING = "draining"
    FAILED = "failed"


#: A lookup that never finds anything: the CEE probe of a memo-off hierarchy.
_NO_ENTRY = {}.get


def _lines_of(vaddr: int, length: int) -> List[int]:
    """Cacheline-aligned virtual line base addresses covering a region."""
    if length <= 0:
        return [vaddr - vaddr % CACHELINE_BYTES]
    first = vaddr - vaddr % CACHELINE_BYTES
    last = (vaddr + length - 1) - (vaddr + length - 1) % CACHELINE_BYTES
    return list(range(first, last + 1, CACHELINE_BYTES))


class Integration:
    """Base class for scheme-specific timing paths.

    Each scheme defines ``_home_node(core_id, header_vaddr, key_addr)``
    (its natural home for a query, no health applied),
    ``accelerator_homes()`` (every home an accelerator instance lives at,
    sorted) and ``translate(vaddr, access, now, home, core_id)`` (returns
    ``(paddr, cycles)``; faults propagate).
    """

    scheme: IntegrationScheme

    def __init__(
        self,
        config: SystemConfig,
        hierarchy: MemoryHierarchy,
        noc: MeshNoc,
        space: AddressSpace,
        core_mmus: List[Mmu],
        *,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.noc = noc
        self.space = space
        self.core_mmus = core_mmus
        registry = stats or StatsRegistry()
        self.stats = registry.scoped(f"qei.{self.scheme.value}")
        latency = config.scheme_latency(self.scheme)
        self._submit_latency = latency.core_to_accel
        self._data_extra = latency.accel_to_data
        # Distributed comparators: two per CHA (Tab. II).
        self.slice_comparators = [
            ComparatorPool(
                config.qei.comparators_per_cha,
                f"cha{i}.comparators",
                stats=registry,
            )
            for i in range(config.llc.slices)
        ]
        self.alus = AluPool(config.qei.alus_per_dpu, "qei.alus", stats=registry)
        self.hash_unit = HashUnit(stats=registry, name="qei.hash")
        self._translations = self.stats.counter("translations")
        # Per-accelerator micro-TLB: the address-generation stage keeps the
        # last few page translations in registers, so a query touching the
        # same pages repeatedly (trie root, hot buckets, the query key) does
        # not re-pay the TLB pipeline on every micro-op.  Each home's TLB is
        # a plain insertion-ordered dict (the cache.py/tlb.py LRU idiom):
        # a hit is pop-and-reinsert, an eviction is ``next(iter(...))``.
        self._micro_tlbs: Dict[int, Dict[int, int]] = {}
        self._micro_hits = self.stats.counter("micro_tlb.hits")
        self._mem_uops = self.stats.counter("uops.mem")
        self._cmp_uops = self.stats.counter("uops.compare")
        self._mem_latency = self.stats.histogram("latency.mem")
        self._cmp_latency = self.stats.histogram("latency.compare")
        # Per-home health (slice failover): homes absent from the map are
        # HEALTHY; the public home probe reroutes around the rest.
        self._home_states: Dict[int, SliceState] = {}
        self._reroutes = self.stats.counter("home.reroutes")

    # ------------------------------------------------------------------ #
    # Topology hooks
    # ------------------------------------------------------------------ #

    def core_node(self, core_id: int) -> int:
        return core_id

    def home_node(self, core_id: int, header_vaddr: int, key_addr: int = 0) -> int:
        """Where this query's CFA executes, rerouted around down homes.

        The scheme-specific probe (:meth:`_home_node`) picks the natural
        home; when that home is not HEALTHY the query is consistently
        re-hashed onto the surviving homes (only the down home's traffic
        moves).  With no survivors the natural home is returned unchanged
        and the submit path aborts the query with ``SLICE_DOWN``.
        """
        return self._reroute(self._home_node(core_id, header_vaddr, key_addr))

    # ------------------------------------------------------------------ #
    # Per-home health (slice failover)
    # ------------------------------------------------------------------ #

    def home_state(self, home: int) -> SliceState:
        return self._home_states.get(home, SliceState.HEALTHY)

    def set_home_state(self, home: int, state: SliceState) -> None:
        if state is SliceState.HEALTHY:
            self._home_states.pop(home, None)
        else:
            self._home_states[home] = state

    def routable_homes(self) -> List[int]:
        """The HEALTHY subset of :meth:`accelerator_homes`."""
        return [
            home
            for home in self.accelerator_homes()
            if self.home_state(home) is SliceState.HEALTHY
        ]

    def _reroute(self, home: int) -> int:
        if self.home_state(home) is SliceState.HEALTHY:
            return home
        survivors = self.routable_homes()
        if not survivors:
            return home
        self._reroutes.add()
        return survivors[home % len(survivors)]

    def _distribute(self, key_addr: int, header_vaddr: int = 0) -> int:
        """NUCA-hash a query to a CHA accelerator (Sec. V / HALO).

        HALO routes each request to the CHA that *owns the data it will
        touch*: for hash tables that is the primary bucket's home slice, so
        the bucket read is slice-local.  For pointer-chasing structures no
        single owner exists, so requests spread by a content hash of the
        queried key (the "hash function specific to the NUCA architecture").
        """
        if header_vaddr:
            target = self._primary_target(key_addr, header_vaddr)
            if target is not None:
                try:
                    paddr = self.space.translate(target, "r")
                except MemoryError_:
                    # Corrupt metadata pointed the probe off the map; spread
                    # by key and let the CFA reject the header at PARSE.
                    pass
                else:
                    return self.hierarchy.slice_of(self.hierarchy.line_of(paddr))
        paddr = self.space.translate(key_addr, "r")
        key = self.space.read(key_addr, CACHELINE_BYTES if not header_vaddr else 16)
        return fnv1a64(key) % len(self.slice_comparators)

    def _primary_target(self, key_addr: int, header_vaddr: int) -> Optional[int]:
        """First data address a hash-table query touches (None otherwise).

        The probe trusts nothing: the header it reads may be hostile (wild
        key_length, zero size, garbage subtype), so any fault or nonsense
        here means "no primary owner" — the query spreads by key instead and
        the CFA's header validation surfaces the proper abort code.
        """
        try:
            header = DataStructureHeader.load(self.space, header_vaddr)
            if header.type_code != int(StructureType.HASH_TABLE) or not header.size:
                return None
            if not 0 < header.key_length <= MAX_KEY_LENGTH:
                return None
            key = self.space.read(key_addr, header.key_length)
            bucket = primary_hash(key) % header.size
            bucket_bytes = header.subtype * 16
            return header.root_ptr + bucket * bucket_bytes
        except Exception:  # malformed headers fall back to key spreading
            return None

    def submit_latency(self, core_id: int, home: int) -> int:
        # Table I's accelerator-core latencies are round trips; each
        # direction pays half.
        return self._submit_latency // 2

    def return_latency(self, core_id: int, home: int) -> int:
        return self._submit_latency - self._submit_latency // 2

    # ------------------------------------------------------------------ #
    # Address translation
    # ------------------------------------------------------------------ #

    @staticmethod
    def _tlb_translate(
        tlb: Tlb, space: AddressSpace, vaddr: int, access: str
    ) -> Tuple[int, int]:
        """One-level TLB in front of a page walk (huge-page aware)."""
        key, base_paddr, span = space.translation_entry(vaddr, access)
        offset = vaddr % span
        cached_base = tlb.lookup(key)
        if cached_base is not None:
            return cached_base + offset, tlb.config.latency_cycles
        tlb.insert(key, base_paddr)
        return base_paddr + offset, tlb.config.latency_cycles + PAGE_WALK_CYCLES

    MICRO_TLB_ENTRIES = 16
    MICRO_TLB_HIT_CYCLES = 1

    def _timed_translate(
        self, vaddr: int, access: str, now: int, home: int, core_id: int
    ) -> Tuple[int, int]:
        """Translate through the per-home micro-TLB, then the scheme path."""
        key, base_paddr, span = self.space.translation_entry(vaddr, access)
        offset = vaddr % span
        micro = self._micro_tlbs.get(home)
        if micro is None:
            micro = self._micro_tlbs[home] = {}
        cached_base = micro.pop(key, None)
        if cached_base is not None:
            micro[key] = cached_base  # reinsert = LRU refresh
            self._micro_hits.add()
            return cached_base + offset, self.MICRO_TLB_HIT_CYCLES
        paddr, cycles = self.translate(vaddr, access, now, home, core_id)
        if len(micro) >= self.MICRO_TLB_ENTRIES:
            del micro[next(iter(micro))]
        micro[key] = base_paddr
        return paddr, cycles

    def cee_probe(self) -> tuple:
        """What the CEE driver binds to time a memory micro-op's hits inline.

        ``(walk_get, page_bytes, micro_tlbs, hit_cycles, memo_get, mult,
        shift, low, by_core, at, charge, back, extra, record_mem,
        record_cmp)``, bound once per accelerator.

        * **Translation, the micro-TLB rule.**  A line whose page is in
          the walk memo (``walk_get((vaddr // page_bytes, "r"))`` is the
          ``(key, base, span)`` entry ``translation_entry`` returns) and
          whose key is in its home's micro-TLB (``micro_tlbs.get(home)``)
          is a hit: :meth:`_timed_translate` would pop and reinsert the
          key, count one ``micro_tlb.hits`` and return the cached base plus
          ``vaddr % span`` at ``hit_cycles``.  A later line of the same
          operand whose key equals the previous line's reuses that page at
          cost 0, with the walk memo's base (:meth:`_translate_lines`).
        * **Access, the scheme's record** (:meth:`_record_probe`): the memo
          record of the read :meth:`_line_access` issues, keyed
          ``((line * mult + node) << shift) | low``.  ``node`` is the
          query's core when ``by_core``, else ``at``, or the home when
          ``at`` is None.  A valid record replays as FastMem's record
          branch (``charge(node, rec[7], ...)`` when ``charge`` is not
          None); ``back``, when not None, accounts the line's crossing
          from ``rec[7]`` to ``node``.  The access costs
          ``rec[0].latency + extra``.
        * A replayed read or compare records its latency sample through
          ``record_mem`` / ``record_cmp`` and reports its other counts
          through :meth:`count_probe_hits`.

        A micro-op any of whose lines misses goes through :meth:`mem_read`
        or :meth:`compare` whole.  With the memo unbound
        (``hierarchy.fastmem`` None) ``walk_get`` finds nothing, so every
        micro-op does.
        """
        fast = self.hierarchy.fastmem
        space = self.space
        recorders = (self._mem_latency.record, self._cmp_latency.record)
        if fast is None:
            return (
                _NO_ENTRY, space.page_bytes, self._micro_tlbs,
                self.MICRO_TLB_HIT_CYCLES, _NO_ENTRY, 1, 1, 0, False, None,
                None, None, 0,
            ) + recorders
        return (
            (space._walk_memo.get, space.page_bytes, self._micro_tlbs,
             self.MICRO_TLB_HIT_CYCLES)
            + self._record_probe(fast)
            + recorders
        )

    def _record_probe(self, fast) -> tuple:
        """``(memo_get, mult, shift, low, by_core, at, charge, back, extra)``.

        The CHA schemes read at the home slice (:meth:`_line_access`).
        """
        memo_get, nslices, charge = fast.slice_probe()
        return memo_get, nslices, 1, 0, False, None, charge, None, 0

    def count_probe_hits(
        self, reads: int, compares: int, micro_hits: int, replays: int
    ) -> None:
        """Fold the counts of micro-ops the CEE driver timed inline."""
        self._mem_uops.value += reads
        self._cmp_uops.value += compares
        self._micro_hits.value += micro_hits
        if replays:
            self.hierarchy.fastmem.count_replays(replays)

    # ------------------------------------------------------------------ #
    # Data access
    # ------------------------------------------------------------------ #

    def _translate_lines(
        self, vaddr: int, length: int, access: str, now: int, home: int, core_id: int
    ):
        """Translate every line of a region, one TLB lookup per *page*.

        Within one micro-op, lines sharing a page reuse the translation the
        address-generation stage already holds — charging a fresh TLB access
        per line would overstate translation cost for multi-line operands.
        """
        cached = {}
        for line_vaddr in _lines_of(vaddr, length):
            key, entry_base, span = self.space.translation_entry(
                line_vaddr, access
            )
            if key in cached:
                yield line_vaddr, entry_base + line_vaddr % span, 0
                continue
            paddr, t_cycles = self._timed_translate(
                line_vaddr, access, now, home, core_id
            )
            cached[key] = True
            yield line_vaddr, paddr, t_cycles

    def mem_read(
        self, vaddr: int, length: int, now: int, home: int, core_id: int
    ) -> int:
        """Timed cacheline-granular read; returns total latency."""
        self._mem_uops.value += 1
        # Single-line operands (the common case: slot words, bucket probes,
        # short keys) skip the multi-line generator machinery entirely —
        # one translate, one line access, identical sequencing.
        line_vaddr = vaddr - vaddr % CACHELINE_BYTES
        if length <= 0 or vaddr + length <= line_vaddr + CACHELINE_BYTES:
            paddr, t_cycles = self._timed_translate(
                line_vaddr, "r", now, home, core_id
            )
            latency = t_cycles + self._line_access(paddr, now, home, core_id)
        else:
            latency = 0
            for _, paddr, t_cycles in self._translate_lines(
                vaddr, length, "r", now, home, core_id
            ):
                latency = max(
                    latency, t_cycles + self._line_access(paddr, now, home, core_id)
                )
        self._mem_latency.record(latency)
        return latency

    def mem_write(
        self, vaddr: int, length: int, now: int, home: int, core_id: int
    ) -> int:
        self._mem_uops.value += 1
        line_vaddr = vaddr - vaddr % CACHELINE_BYTES
        if length <= 0 or vaddr + length <= line_vaddr + CACHELINE_BYTES:
            paddr, t_cycles = self._timed_translate(
                line_vaddr, "w", now, home, core_id
            )
            return t_cycles + self._line_access(
                paddr, now, home, core_id, write=True
            )
        latency = 0
        for _, paddr, t_cycles in self._translate_lines(
            vaddr, length, "w", now, home, core_id
        ):
            latency = max(
                latency,
                t_cycles + self._line_access(paddr, now, home, core_id, write=True),
            )
        return latency

    def _line_access(
        self, paddr: int, now: int, home: int, core_id: int, *, write: bool = False
    ) -> int:
        """The CHA schemes' line access: issued at the home slice."""
        return self.hierarchy.access_from_slice(
            home, paddr, write=write, now=now
        ).latency

    # ------------------------------------------------------------------ #
    # Comparison micro-op
    # ------------------------------------------------------------------ #

    def compare(
        self,
        stored_vaddr: int,
        key_vaddr: int,
        length: int,
        now: int,
        home: int,
        core_id: int,
    ) -> int:
        """Latency of comparing ``length`` bytes of memory against the key."""
        self._cmp_uops.value += 1
        pool = self.local_pool(home, core_id, length)
        if pool is None:
            latency = self._distributed_compare(
                stored_vaddr, key_vaddr, length, now, home, core_id
            )
        else:
            latency = self._local_compare(
                stored_vaddr, key_vaddr, length, now, home, core_id, pool
            )
        self._cmp_latency.record(latency)
        return latency

    def local_pool(
        self, home: int, core_id: int, length: int
    ) -> Optional[ComparatorPool]:
        """The comparators a local compare of ``length`` bytes runs on.

        None sends the compare to the stored data's home CHA
        (:meth:`_distributed_compare`).  A CHA scheme's CFA already runs
        inside a CHA: its own comparators compare lines read at the slice,
        with no remote-micro-op round trip.
        """
        return self.slice_comparators[home]

    def _distributed_compare(
        self,
        stored_vaddr: int,
        key_vaddr: int,
        length: int,
        now: int,
        home: int,
        core_id: int,
    ) -> int:
        """Remote compare at the stored data's home CHA (Sec. V-A).

        The remote micro-op carries the first cacheline's worth of the query
        key (larger keys' tail lines are read from the LLC at the slice);
        the stored key's lines are read in place, the comparator produces
        the three-way result, and a small response travels back.
        """
        first_paddr, t_cycles = self._timed_translate(
            stored_vaddr, "r", now, home, core_id
        )
        comp_slice = self.hierarchy.slice_of(self.hierarchy.line_of(first_paddr))
        request = self.noc.send(home, comp_slice, 16 + min(length, CACHELINE_BYTES), now)
        arrive = now + t_cycles + request

        data_ready = arrive
        for _, paddr, tc in self._translate_lines(
            stored_vaddr, length, "r", now, home, core_id
        ):
            access = self.hierarchy.access_from_slice(comp_slice, paddr, now=arrive)
            data_ready = max(data_ready, arrive + tc + access.latency)
        if length > CACHELINE_BYTES:
            tail_vaddr = key_vaddr + CACHELINE_BYTES
            for _, paddr, tc in self._translate_lines(
                tail_vaddr, length - CACHELINE_BYTES, "r", now, home, core_id
            ):
                access = self.hierarchy.access_from_slice(comp_slice, paddr, now=arrive)
                data_ready = max(data_ready, arrive + tc + access.latency)
        done = self.slice_comparators[comp_slice].compare(data_ready, length)
        response = self.noc.send(comp_slice, home, 16, done)
        return done + response - now

    def _local_compare(
        self,
        stored_vaddr: int,
        key_vaddr: int,
        length: int,
        now: int,
        home: int,
        core_id: int,
        pool: ComparatorPool,
    ) -> int:
        """Fetch operands to the accelerator and compare locally."""
        data_ready = now
        for region_vaddr in (stored_vaddr, key_vaddr):
            line_vaddr = region_vaddr - region_vaddr % CACHELINE_BYTES
            if length <= 0 or region_vaddr + length <= line_vaddr + CACHELINE_BYTES:
                # Single-line operand: same sequencing as the generator,
                # minus its per-region setup (most keys fit one line).
                paddr, tc = self._timed_translate(
                    line_vaddr, "r", now, home, core_id
                )
                ready = now + tc + self._line_access(paddr, now, home, core_id)
                if ready > data_ready:
                    data_ready = ready
                continue
            for _, paddr, tc in self._translate_lines(
                region_vaddr, length, "r", now, home, core_id
            ):
                access_latency = self._line_access(paddr, now, home, core_id)
                data_ready = max(data_ready, now + tc + access_latency)
        return pool.compare(data_ready, length) - now

    # ------------------------------------------------------------------ #

    def flush_translations(self) -> None:
        """Context-switch TLB shootdown for accelerator-owned TLBs."""
        self._micro_tlbs.clear()

    def warm_translations(self, vpn_pfn_pairs) -> None:
        """Pre-fill *dedicated* accelerator TLBs (steady-state start).

        Only schemes with their own TLBs override this: a dedicated TLB
        serves exclusively query traffic, so in the paper's steady-state
        measurements it is warm.  Schemes that borrow the core's MMU (or
        its L2-TLB) do not get warmed here — those structures are shared
        with, and contended by, the application itself.
        """


class CoreIntegratedScheme(Integration):
    """The paper's proposal (Sec. V-A)."""

    scheme = IntegrationScheme.CORE_INTEGRATED

    #: Keys up to this size compare in the local DPU: "a small key
    #: comparison can be done in one of the DPU" (Sec. V-A); the remote
    #: near-LLC comparators are for the data-intensive large-key compares.
    LOCAL_COMPARE_BYTES = 32

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.local_comparators = [
            ComparatorPool(
                self.config.qei.comparators_per_cha,
                f"core{i}.qei.comparators",
            )
            for i in range(self.config.num_cores)
        ]

    def _home_node(self, core_id: int, header_vaddr: int, key_addr: int = 0) -> int:
        return self.core_node(core_id)

    def accelerator_homes(self) -> List[int]:
        return list(range(self.config.num_cores))

    def translate(self, vaddr, access, now, home, core_id):
        self._translations.add()
        # QEI shares the core's L2-TLB (second-level), not the L1 dTLB.
        l2_tlb = self.core_mmus[core_id].tlbs[1]
        return self._tlb_translate(l2_tlb, self.space, vaddr, access)

    def _line_access(self, paddr, now, home, core_id, *, write=False):
        # Shares the L2's memory-access hardware; never fills the L1.
        return self.hierarchy.access_from_core(
            core_id, paddr, write=write, now=now, fill_l1=False
        ).latency

    def _record_probe(self, fast):
        # The core memo's get and core count (the L1 latency is the
        # pipeline's); a read with fill_l1=False has key low bits 0b001.
        memo_get, ncores, _l1_latency = fast.core_probe(0)
        return memo_get, ncores, 3, 0b001, True, None, None, None, 0

    def local_pool(self, home, core_id, length):
        if length <= self.LOCAL_COMPARE_BYTES:
            return self.local_comparators[core_id]
        return None


class ChaTlbScheme(Integration):
    """HALO-like: per-CHA accelerators with dedicated TLBs."""

    scheme = IntegrationScheme.CHA_TLB

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cha_tlbs = [
            Tlb(self.config.qei.cha_tlb, name=f"cha{i}.tlb")
            for i in range(self.config.llc.slices)
        ]

    def _home_node(self, core_id: int, header_vaddr: int, key_addr: int = 0) -> int:
        return self._distribute(key_addr or header_vaddr, header_vaddr)

    def accelerator_homes(self) -> List[int]:
        return list(range(self.config.llc.slices))

    def translate(self, vaddr, access, now, home, core_id):
        self._translations.add()
        return self._tlb_translate(self.cha_tlbs[home], self.space, vaddr, access)

    def flush_translations(self) -> None:
        super().flush_translations()
        for tlb in self.cha_tlbs:
            tlb.invalidate()

    def warm_translations(self, vpn_pfn_pairs) -> None:
        pairs = list(vpn_pfn_pairs)
        for tlb in self.cha_tlbs:
            for vpn, pfn in pairs:
                tlb.insert(vpn, pfn)


class ChaNoTlbScheme(Integration):
    """Per-CHA accelerators that borrow the owning core's MMU."""

    scheme = IntegrationScheme.CHA_NOTLB

    def _home_node(self, core_id: int, header_vaddr: int, key_addr: int = 0) -> int:
        return self._distribute(key_addr or header_vaddr, header_vaddr)

    def accelerator_homes(self) -> List[int]:
        return list(range(self.config.llc.slices))

    def translate(self, vaddr, access, now, home, core_id):
        self._translations.add()
        # Round trip over the mesh to the core's MMU for every translation.
        round_trip = 2 * self.noc.latency(home, self.core_node(core_id))
        translation = self.core_mmus[core_id].translate(vaddr, access)
        return translation.paddr, round_trip + translation.cycles


class _DeviceScheme(Integration):
    """Shared machinery for the two centralized device schemes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.device_node = self.config.num_cores - 1
        self.device_tlb = Tlb(self.config.qei.cha_tlb, name="device.tlb")
        self.device_comparators = ComparatorPool(
            self.config.qei.comparators_per_device_dpu, "device.comparators"
        )

    def _home_node(self, core_id: int, header_vaddr: int, key_addr: int = 0) -> int:
        return self.device_node

    def accelerator_homes(self) -> List[int]:
        return [self.device_node]

    def submit_latency(self, core_id: int, home: int) -> int:
        # Half the interface round trip plus the mesh crossing to the stop.
        return self._submit_latency // 2 + self.noc.latency(
            self.core_node(core_id), self.device_node
        )

    def return_latency(self, core_id: int, home: int) -> int:
        return self.submit_latency(core_id, home)

    def translate(self, vaddr, access, now, home, core_id):
        self._translations.add()
        return self._tlb_translate(self.device_tlb, self.space, vaddr, access)

    def _line_access(self, paddr, now, home, core_id, *, write=False):
        access = self.hierarchy.access_from_slice(
            self.device_node, paddr, write=write, now=now
        )
        # Charge the mesh for moving the line to the centralized device: this
        # is what produces the hotspot around its NoC stop (Sec. V).
        line = self.hierarchy.line_of(paddr)
        slice_home = self.hierarchy.slice_of(line)
        self.noc.send(slice_home, self.device_node, CACHELINE_BYTES, now)
        return access.latency + self._data_extra

    def _record_probe(self, fast):
        # The read issues at the device's stop; the line's crossing back
        # is ``noc.send``'s accounting, whose latency the access ignores.
        memo_get, nslices, charge = fast.slice_probe()
        return (
            memo_get, nslices, 1, 0, False, self.device_node, charge,
            self.noc.charge, self._data_extra,
        )

    def local_pool(self, home, core_id, length):
        return self.device_comparators

    def flush_translations(self) -> None:
        super().flush_translations()
        self.device_tlb.invalidate()

    def warm_translations(self, vpn_pfn_pairs) -> None:
        for vpn, pfn in vpn_pfn_pairs:
            self.device_tlb.insert(vpn, pfn)


class DeviceDirectScheme(_DeviceScheme):
    """Accelerator attached directly to the NoC as a special core (DASX)."""

    scheme = IntegrationScheme.DEVICE_DIRECT


class DeviceIndirectScheme(_DeviceScheme):
    """Accelerator behind a standard device interface (OpenCAPI/CXL-like)."""

    scheme = IntegrationScheme.DEVICE_INDIRECT


_SCHEME_CLASSES = {
    IntegrationScheme.CORE_INTEGRATED: CoreIntegratedScheme,
    IntegrationScheme.CHA_TLB: ChaTlbScheme,
    IntegrationScheme.CHA_NOTLB: ChaNoTlbScheme,
    IntegrationScheme.DEVICE_DIRECT: DeviceDirectScheme,
    IntegrationScheme.DEVICE_INDIRECT: DeviceIndirectScheme,
}


def build_integration(
    scheme: "IntegrationScheme | str",
    config: SystemConfig,
    hierarchy: MemoryHierarchy,
    noc: MeshNoc,
    space: AddressSpace,
    core_mmus: List[Mmu],
    *,
    stats: Optional[StatsRegistry] = None,
) -> Integration:
    """Instantiate the timing path for one integration scheme."""
    scheme = IntegrationScheme.parse(scheme)
    try:
        cls = _SCHEME_CLASSES[scheme]
    except KeyError as exc:
        raise ConfigurationError(f"unsupported scheme {scheme}") from exc
    return cls(config, hierarchy, noc, space, core_mmus, stats=stats)
