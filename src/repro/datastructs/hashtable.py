"""A bucketised cuckoo hash table in simulated memory (DPDK-style).

Layout follows DPDK's hash library shape: a power-of-two array of buckets,
each bucket holding ``entries_per_bucket`` slots of ``{signature, kv_ptr}``.
Every key has two candidate buckets (primary/secondary hash); inserts
displace entries cuckoo-style between the two candidates.

Bucket slot (16 bytes)::

    offset 0: u64 signature   (0 = empty)
    offset 8: u64 kv_ptr      -> key/value record

Key/value record::

    offset 0:          u64 value
    offset 8:          key bytes (key_length long)

A lookup touches: header, hash of the key, primary bucket (signature
pre-filter), key record compare, and possibly the secondary bucket — the
small, fixed number of memory accesses the paper calls out for hash tables
(Sec. VII-A).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.header import FLAG_RESIZING, StructureType
from ..errors import CapacityError, DataStructureError
from ..cpu.trace import TraceBuilder
from .base import MATCH_EXIT_MISPREDICT_RATE, ProcessMemory, SimStructure
from .hashing import branch_outcome, primary_hash, secondary_hash, signature_of

SLOT_BYTES = 16
MAX_DISPLACEMENTS = 64
#: Per-bucket software bookkeeping in the baseline: DPDK's lookup manages
#: prefetches, unpacks signatures and maintains hit masks around the scan.
BUCKET_SCAN_INSTRUCTIONS = 8
#: One fetch redirect per lookup: DPDK's loop is compact (only 7.5%
#: frontend bound per the paper), so stalls are rare.
IFETCH_STALL_CYCLES = 14


class CuckooHashTable(SimStructure):
    """Bucketised cuckoo hash table with out-of-line key/value records."""

    TYPE = StructureType.HASH_TABLE

    def __init__(
        self,
        mem: ProcessMemory,
        *,
        key_length: int,
        num_buckets: int = 1024,
        entries_per_bucket: int = 8,
    ) -> None:
        if num_buckets <= 0 or num_buckets & (num_buckets - 1):
            raise DataStructureError("num_buckets must be a power of two")
        if not 1 <= entries_per_bucket <= 255:
            raise DataStructureError("entries_per_bucket must fit the subtype byte")
        super().__init__(
            mem,
            key_length=key_length,
            subtype=entries_per_bucket,
            size=num_buckets,
        )
        self.num_buckets = num_buckets
        self.entries_per_bucket = entries_per_bucket
        self.bucket_bytes = entries_per_bucket * SLOT_BYTES
        table = mem.alloc(num_buckets * self.bucket_bytes, align=64)
        self._update_header(root_ptr=table)
        self.table_addr = table
        self._count = 0
        #: Active online-resize state ({table_addr, num_buckets, desc_addr,
        #: watermark}) or None.  Structure methods are lock-free — seqlock
        #: discipline lives in the mutator/resizer layer (core.mutations).
        self._resize: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------ #

    def _bucket_addr(self, bucket_index: int) -> int:
        return self.table_addr + bucket_index * self.bucket_bytes

    def _candidate_buckets(self, key: bytes) -> Tuple[int, int]:
        h1 = primary_hash(key) % self.num_buckets
        h2 = secondary_hash(key) % self.num_buckets
        return h1, h2

    def _route(self, h: int) -> int:
        """Bucket address for hash ``h``, old-vs-new during a resize."""
        if self._resize is not None:
            old_bucket = h % self.num_buckets
            if old_bucket < self._resize["watermark"]:
                bucket = h % self._resize["num_buckets"]
                return self._resize["table_addr"] + bucket * self.bucket_bytes
        return self.table_addr + (h % self.num_buckets) * self.bucket_bytes

    def _candidate_bucket_addrs(self, key: bytes) -> Tuple[int, int]:
        return self._route(primary_hash(key)), self._route(secondary_hash(key))

    def _slot(self, bucket_index: int, slot_index: int) -> int:
        return self._bucket_addr(bucket_index) + slot_index * SLOT_BYTES

    def _read_slot(self, bucket_index: int, slot_index: int) -> Tuple[int, int]:
        addr = self.table_addr + bucket_index * self.bucket_bytes + slot_index * SLOT_BYTES
        return self.mem.space.read_2u64(addr)

    def _kv_key(self, kv_ptr: int) -> bytes:
        return self.mem.space.read(kv_ptr + 8, self.key_length)

    # ------------------------------------------------------------------ #
    # Construction (software-side; updates stay in software, Sec. IV-A)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._count

    def insert(self, key: bytes, value: int) -> None:
        """Insert or update; raises :class:`CapacityError` when stuck."""
        key = self._check_key(key)
        sig = signature_of(key) or 1  # 0 means empty

        # Update in place if present.
        existing = self._find_slot(key, sig)
        if existing is not None:
            _, kv = existing
            self.mem.space.write_u64(kv, value)
            return

        kv = self.mem.alloc(8 + self.key_length, align=8)
        self.mem.space.write_u64(kv, value)
        self.mem.space.write(kv + 8, key)

        a1, a2 = self._candidate_bucket_addrs(key)
        if self._try_place_at(a1, sig, kv) or self._try_place_at(a2, sig, kv):
            self._count += 1
            return
        if self._resize is not None and (
            self._resize["watermark"] < self.num_buckets
        ):
            # Mid-resize and both routed buckets are full: finish the
            # migration so placement (and displacement) happens entirely in
            # the doubled table, then retry there.
            self.migrate_chunk(self.num_buckets - self._resize["watermark"])
            a1, a2 = self._candidate_bucket_addrs(key)
            if self._try_place_at(a1, sig, kv) or self._try_place_at(a2, sig, kv):
                self._count += 1
                return
        # Cuckoo displacement from the primary bucket.
        if self._displace_at(a1, sig, kv, depth=0):
            self._count += 1
            return
        raise CapacityError(
            f"cuckoo insertion failed after {MAX_DISPLACEMENTS} displacements "
            f"({self._count} items in {self.num_buckets} buckets)"
        )

    def _read_slot_at(self, slot_addr: int) -> Tuple[int, int]:
        return self.mem.space.read_2u64(slot_addr)

    def _write_slot_at(self, slot_addr: int, sig: int, kv: int) -> None:
        self.mem.space.write_u64(slot_addr, sig)
        self.mem.space.write_u64(slot_addr + 8, kv)

    def _try_place_at(self, bucket_addr: int, sig: int, kv: int) -> bool:
        for slot in range(self.entries_per_bucket):
            stored_sig, _ = self._read_slot_at(bucket_addr + slot * SLOT_BYTES)
            if stored_sig == 0:
                self._write_slot_at(bucket_addr + slot * SLOT_BYTES, sig, kv)
                return True
        return False

    def _displace_at(self, bucket_addr: int, sig: int, kv: int, depth: int) -> bool:
        if depth >= MAX_DISPLACEMENTS:
            return False
        # Kick the entry whose slot index rotates with depth (simple policy).
        victim_addr = bucket_addr + (depth % self.entries_per_bucket) * SLOT_BYTES
        victim_sig, victim_kv = self._read_slot_at(victim_addr)
        self._write_slot_at(victim_addr, sig, kv)
        victim_key = self._kv_key(victim_kv)
        va1, va2 = self._candidate_bucket_addrs(victim_key)
        target = va2 if va1 == bucket_addr else va1
        if self._try_place_at(target, victim_sig, victim_kv):
            return True
        return self._displace_at(target, victim_sig, victim_kv, depth + 1)

    def delete(self, key: bytes) -> bool:
        """Clear the key's slot; returns True when the key was present.

        Clearing the signature makes the slot reusable while in-flight
        accelerator lookups simply stop matching it.
        """
        key = self._check_key(key)
        sig = signature_of(key) or 1
        found = self._find_slot(key, sig)
        if found is None:
            return False
        slot_addr, _ = found
        self._write_slot_at(slot_addr, 0, 0)
        self._count -= 1
        return True

    def update(self, key: bytes, value: int) -> bool:
        """Overwrite an existing key's value; False when absent."""
        key = self._check_key(key)
        sig = signature_of(key) or 1
        found = self._find_slot(key, sig)
        if found is None:
            return False
        self.mem.space.write_u64(found[1], value)
        return True

    def _find_slot(self, key: bytes, sig: int) -> Optional[Tuple[int, int]]:
        """(slot_addr, kv_ptr) of the key's slot, routing around a resize."""
        for bucket_addr in self._candidate_bucket_addrs(key):
            for slot in range(self.entries_per_bucket):
                slot_addr = bucket_addr + slot * SLOT_BYTES
                stored_sig, kv = self._read_slot_at(slot_addr)
                if stored_sig == sig and kv and self._kv_key(kv) == key:
                    return slot_addr, kv
        return None

    # ------------------------------------------------------------------ #
    # Online resize (docs/mutations.md) — driven by core.mutations
    # ------------------------------------------------------------------ #

    @property
    def migration_watermark(self) -> int:
        """Old-bucket classes migrated so far (== num_buckets when done)."""
        if self._resize is None:
            return self.num_buckets
        return self._resize["watermark"]

    def begin_resize(self) -> None:
        """Publish the doubled table and the out-of-line resize descriptor.

        The caller must hold the header seqlock: this flips FLAG_RESIZING
        and points aux at the descriptor, after which readers route
        per-bucket old-vs-new and accelerated writes fall back to software.
        """
        if self._resize is not None:
            raise DataStructureError("resize already in flight")
        new_buckets = 2 * self.num_buckets
        new_table = self.mem.alloc(new_buckets * self.bucket_bytes, align=64)
        desc = self.mem.alloc(24, align=8)
        space = self.mem.space
        space.write_u64(desc, new_table)
        space.write_u64(desc + 8, new_buckets)
        space.write_u64(desc + 16, 0)
        self._resize = {
            "table_addr": new_table,
            "num_buckets": new_buckets,
            "desc_addr": desc,
            "watermark": 0,
        }
        header = self.header()
        self._update_header(aux=desc, flags=header.flags | FLAG_RESIZING)

    def migrate_chunk(self, count: int) -> int:
        """Move ``count`` bucket classes into the doubled table.

        Entries of old bucket ``b`` land in new bucket ``h % 2N`` (which is
        ``b`` or ``b + N``); those targets only ever receive entries from
        class ``b``, so the move always fits.  The caller holds the seqlock,
        whose release bumps the version and kicks racing readers to retry.
        """
        rs = self._resize
        if rs is None:
            raise DataStructureError("no resize in flight")
        space = self.mem.space
        start = rs["watermark"]
        end = min(self.num_buckets, start + max(0, count))
        for bucket in range(start, end):
            bucket_addr = self.table_addr + bucket * self.bucket_bytes
            for slot in range(self.entries_per_bucket):
                slot_addr = bucket_addr + slot * SLOT_BYTES
                sig, kv = self._read_slot_at(slot_addr)
                if not sig or not kv:
                    continue
                key = self._kv_key(kv)
                h1 = primary_hash(key)
                if h1 % self.num_buckets == bucket:
                    new_bucket = h1 % rs["num_buckets"]
                else:
                    new_bucket = secondary_hash(key) % rs["num_buckets"]
                target = rs["table_addr"] + new_bucket * self.bucket_bytes
                if not self._try_place_at(target, sig, kv):
                    raise CapacityError(
                        "resize invariant violated: migration target full"
                    )
                self._write_slot_at(slot_addr, 0, 0)
        rs["watermark"] = end
        space.write_u64(rs["desc_addr"] + 16, end)
        return end - start

    def adopt_resize(self) -> None:
        """Flip the header to the doubled table (post-quiesce commit)."""
        rs = self._resize
        if rs is None or rs["watermark"] < self.num_buckets:
            raise DataStructureError("cannot adopt an unfinished migration")
        header = self.header()
        self._update_header(
            root_ptr=rs["table_addr"],
            size=rs["num_buckets"],
            aux=0,
            flags=header.flags & ~FLAG_RESIZING,
        )
        self.table_addr = rs["table_addr"]
        self.num_buckets = rs["num_buckets"]
        self._resize = None

    # ------------------------------------------------------------------ #
    # Query — functional reference
    # ------------------------------------------------------------------ #

    def lookup(self, key: bytes) -> Optional[int]:
        key = self._check_key(key)
        sig = signature_of(key) or 1
        found = self._find_slot(key, sig)
        if found is None:
            return None
        return self.mem.space.read_u64(found[1])

    # ------------------------------------------------------------------ #
    # Query — software baseline (functional + micro-op trace)
    # ------------------------------------------------------------------ #

    def emit_lookup(
        self, builder: TraceBuilder, key_addr: int, key: bytes
    ) -> Optional[int]:
        """DPDK-style lookup: hash, signature scan, key compare."""
        key = self._check_key(key)
        space = self.mem.space
        sig = signature_of(key) or 1

        header_load = builder.load(self.header_addr)
        key_loads = builder.load_span(key_addr, self.key_length)
        # Software hash: ~3 ALU ops per key byte (jhash-style mixing
        # rounds), plus the lookup API prologue.
        hash_op = builder.alu(
            deps=tuple(key_loads + [header_load]),
            count=max(8, 3 * self.key_length),
        )
        builder.ifetch_stall(IFETCH_STALL_CYCLES)

        for which, bucket in enumerate(self._candidate_buckets(key)):
            bucket_addr = self._bucket_addr(bucket)
            bucket_loads = builder.load_span(bucket_addr, self.bucket_bytes, (hash_op,))
            builder.alu(deps=tuple(bucket_loads), count=BUCKET_SCAN_INSTRUCTIONS)
            for slot in range(self.entries_per_bucket):
                stored_sig, kv = self._read_slot(bucket, slot)
                sig_cmp = builder.alu(deps=tuple(bucket_loads))
                builder.branch(deps=(sig_cmp,))  # signature filter: predictable
                if stored_sig != sig or not kv:
                    continue
                cmp_op = self._emit_memcmp(
                    builder, kv + 8, key_addr, self.key_length, (sig_cmp,)
                )
                matched = self._kv_key(kv) == key
                builder.branch(
                    deps=(cmp_op,),
                    mispredicted=matched
                    and branch_outcome(key, which, MATCH_EXIT_MISPREDICT_RATE),
                )
                if matched:
                    value_load = builder.load(kv, (cmp_op,))
                    return space.read_u64(kv)
        builder.branch(deps=(hash_op,), mispredicted=True)  # miss exit
        return None
