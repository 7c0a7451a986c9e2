"""Mutation CFAs: accelerated INSERT/DELETE/UPDATE (docs/mutations.md).

The read path ships queries to the accelerator while *updates stay in
software* (paper Sec. IV-A).  This module closes that gap for the cuckoo
hash table: its mutation program runs on the same CFA Execution Engine,
dispatched through the firmware image's mutation table by the request's
``op`` field.  Other structures have no mutation program; their writes
stay in software, as in the paper.

Reader/writer coexistence is a seqlock on the header's version word
(:data:`~repro.core.header.VERSION_OFFSET`):

* A **writer** CASes the version from even ``v`` to odd ``v + 1`` before
  touching memory.  Losing the CAS means another writer holds the lock; the
  program backs off deterministically (``BACKOFF_BASE_CYCLES`` doubled per
  attempt) and re-reads the header.  After ``MAX_LOCK_ATTEMPTS`` losses it
  aborts with :attr:`AbortCode.VERSION_CONFLICT` and the software fallback
  applies the mutation instead.
* A **reader** records the version at PARSE and re-validates it at Done;
  any movement (or an odd snapshot) aborts the read with
  ``VERSION_CONFLICT`` and the existing fallback path retries in software.

Every mutation publishes its effects with **one** ``K_WRITE`` macro
store whose final segment releases the lock (``v + 2``).  The engine
executes a micro-op's segments without interleaving, so concurrent readers
observe either none or all of a mutation — and a writer that dies mid-walk
(slice failure, flush) has published *nothing*, which makes lock recovery
trivial: a stuck odd version with no live QST write intent is reclaimed by
software, no repair of structure bytes needed.

Online hash-table resize rides the same lock: :class:`OnlineResizer` drains
buckets in chunks under short seqlock critical sections while queries route
old-vs-new per bucket (``FLAG_RESIZING``), and commits the doubled table
through the accelerator's quiesce machinery — the firmware-hot-swap path.

The mutation program is written once, in the register-and-tuple form the
CEE executes (:mod:`repro.core.cfa`), behind its own seqlock prelude.
``tests/cfa_reference.py`` keeps an interpreted rendering of it as the
oracle ``tests/test_specialize_properties.py`` checks it against step
for step (forced CAS losses, backoff exhaustion, read-only and resize
bail-outs, misses).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..datastructs.hashing import secondary_hash, signature_of
from ..errors import DataStructureError
from .abort import AbortCode
from .cfa import (
    K_CAS,
    K_COMPARE,
    K_DELAY,
    K_DONE,
    K_FAULT,
    K_HASH,
    K_MEMREAD,
    K_WRITE,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    S_HEADER,
    S_KEY,
    STATE_DONE,
    STATE_EXCEPTION,
    STATE_START,
    U64,
    WRITE_OPS,
    CfaProgram,
    QueryContext,
)
from .header import (
    FLAG_READ_ONLY,
    FLAG_RESIZING,
    DataStructureHeader,
    StructureType,
    VERSION_OFFSET,
)

#: Mutation result codes returned in the Done value (miss returns None and
#: surfaces as the ordinary NOT_FOUND status).
MUT_UPDATED = 1
MUT_INSERTED = 2
MUT_DELETED = 3

#: Writer backoff: cycles slept after the first lost header CAS; doubled on
#: each further loss.  Deterministic — no randomised jitter — so identical
#: seeds replay identical schedules.
BACKOFF_BASE_CYCLES = 32
MAX_LOCK_ATTEMPTS = 4

_NULL_PTR = int(AbortCode.NULL_POINTER)
_VERSION_CONFLICT = int(AbortCode.VERSION_CONFLICT)

# Seqlock-prelude states (program states start at _FIRST_STATE).
_PARSE, _READ_KEY, _LOCK, _BACKOFF, _COMMIT, _MISS, _RELEASE = 1, 2, 3, 4, 5, 6, 7
_FIRST_STATE = 8

# Seqlock-prelude registers after the header and key slots (program
# registers start at 7).
_M_LOCK, _M_ATTEMPTS, _M_RESULT, _M_ABORT_CODE, _M_ABORT_DETAIL = 2, 3, 4, 5, 6


def _word(value: int) -> bytes:
    return value.to_bytes(8, "little")


# Hash-table mutation registers.
_H_STAGED, _H_HASH, _H_LINE, _H_CMP = 7, 8, 9, 10
_H_SIG, _H_B0, _H_B1, _H_WHICH, _H_LINE_NO = 11, 12, 13, 14, 15
_H_EMPTY, _H_SLOT, _H_LINE_BASE, _H_SLOT_ADDR, _H_KV = 16, 17, 18, 19, 20


class HashTableMutationCfa(CfaProgram):
    """Cuckoo hash mutations: in-place update/delete, empty-slot insert.

    The prelude parses the header, reads the key and takes the seqlock;
    :meth:`dispatch` runs the bucket walk.  INSERT's operand is a
    core-staged ``{value, key}`` record whose layout matches the table's kv
    records, so publishing the insert is one 16-byte slot store of
    ``{signature, operand}``.  Inserts that would need cuckoo displacement
    (both candidate buckets full) abort to software, as do all writes while
    an online resize is in flight.  The terminals — :meth:`_commit`,
    :meth:`_miss` and the RELEASE abort — all fold the lock release into a
    single macro store so memory is never observable half-mutated.
    """

    TYPE_CODE = int(StructureType.HASH_TABLE)
    NAME = "hash-table-mut"
    STATES = (
        STATE_START,
        "PARSE",
        "READ_KEY",
        "LOCK",
        "BACKOFF",
        "COMMIT",
        "MISS",
        "RELEASE",
        STATE_DONE,
        STATE_EXCEPTION,
        "STAGED",
        "MHASH",
        "MSCAN",
        "MCHECK",
    )
    SUBTYPE_MIN = 1
    SUBTYPE_MAX = 128
    REQUIRES_SIZE = True
    NREGS = 21

    def step(self, ctx: QueryContext) -> tuple:
        state = ctx.state
        if state >= _FIRST_STATE:
            return self.dispatch(ctx)
        regs = ctx.scratch
        if state == 0:  # START
            if ctx.op not in WRITE_OPS:
                return (
                    K_FAULT,
                    int(AbortCode.FIRMWARE),
                    f"mutation program dispatched for op {ctx.op}",
                )
            ctx.state = _PARSE
            return (K_MEMREAD, ctx.header_addr, 64, S_HEADER)
        if state == _PARSE:
            raw = regs[S_HEADER]
            header = DataStructureHeader.decode(raw)
            code = self.validate_header(header, raw=raw)
            if code is AbortCode.VERSION_CONFLICT:
                # Odd version: another writer holds the seqlock right now.
                return self._backoff(ctx)
            if code is not AbortCode.NONE:
                return (K_FAULT, int(code), f"header rejected: {code.name}")
            if header.flags & FLAG_READ_ONLY:
                return (
                    K_FAULT,
                    int(AbortCode.PROTECTION),
                    "structure is marked read-only",
                )
            ctx.header = header
            if header.flags & FLAG_RESIZING:
                # The migration drain owns placement during a resize; CFA
                # writes fall back to the (resize-aware) software path.
                return (
                    K_FAULT,
                    _VERSION_CONFLICT,
                    "online resize in flight; write falls back",
                )
            if ctx.op == OP_INSERT and not ctx.operand:
                return (K_FAULT, _NULL_PTR, "INSERT without a staged record")
            ctx.state = _READ_KEY
            return (K_MEMREAD, ctx.key_addr, header.key_length, S_KEY)
        if state == _READ_KEY:
            ctx.key = regs[S_KEY]
            version = ctx.header.version
            ctx.state = _LOCK
            return (
                K_CAS,
                ctx.header_addr + VERSION_OFFSET,
                version,
                version + 1,
                _M_LOCK,
            )
        if state == _LOCK:
            if regs[_M_LOCK] != 1:
                return self._backoff(ctx)
            if ctx.op == OP_INSERT:
                ctx.state = 8  # STAGED
                return (K_MEMREAD, ctx.operand, 8, _H_STAGED)
            ctx.state = 9  # MHASH
            return (K_HASH, S_KEY, _H_HASH)
        if state == _BACKOFF:
            # Backoff elapsed: re-read the header (the version, and possibly
            # the whole structure, moved while we slept).
            ctx.state = _PARSE
            return (K_MEMREAD, ctx.header_addr, 64, S_HEADER)
        if state == _COMMIT:
            return (K_DONE, regs[_M_RESULT])
        if state == _MISS:
            return (K_DONE, None)
        # RELEASE
        return (K_FAULT, regs[_M_ABORT_CODE], regs[_M_ABORT_DETAIL])

    # ---------------- terminal helpers ---------------- #

    def _backoff(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        attempts = regs[_M_ATTEMPTS] + 1
        regs[_M_ATTEMPTS] = attempts
        if attempts > MAX_LOCK_ATTEMPTS:
            return (
                K_FAULT,
                _VERSION_CONFLICT,
                f"seqlock contended after {MAX_LOCK_ATTEMPTS} "
                "attempts; falling back to software",
            )
        ctx.state = _BACKOFF
        return (K_DELAY, BACKOFF_BASE_CYCLES << (attempts - 1))

    def _commit(
        self,
        ctx: QueryContext,
        result: int,
        segments: List[Tuple[int, bytes]],
    ) -> tuple:
        """Publish the mutation and release the lock in one macro store.

        The store carries the pre-lock version: this commit's ordinal in
        the structure's seqlock-serialised write history, which the
        accelerator stamps onto the handle so observers can order commits
        exactly.
        """
        parts = [seg for seg in segments if seg[1]]
        version = ctx.header.version
        parts.append((ctx.header_addr + VERSION_OFFSET, _word(version + 2)))
        ctx.scratch[_M_RESULT] = result
        ctx.state = _COMMIT
        return (K_WRITE, tuple(parts), version)

    def _restore_version(self, ctx: QueryContext) -> tuple:
        vaddr = ctx.header_addr + VERSION_OFFSET
        return (K_WRITE, ((vaddr, _word(ctx.header.version)),), None)

    def _miss(self, ctx: QueryContext) -> tuple:
        """Key absent: restore the pre-lock version (nothing was written)."""
        ctx.state = _MISS
        return self._restore_version(ctx)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        state = ctx.state
        if state == 10:  # MSCAN
            return self._scan_line(ctx)
        if state == 11:  # MCHECK
            if regs[_H_CMP] == 0:
                return self._found(ctx)
            return self._scan_line(ctx)  # signature collision: keep scanning
        if state == 8:  # STAGED
            ctx.state = 9
            return (K_HASH, S_KEY, _H_HASH)
        # MHASH
        num_buckets = ctx.header.size
        key = ctx.key
        regs[_H_SIG] = signature_of(key) or 1
        regs[_H_B0] = regs[_H_HASH] % num_buckets
        regs[_H_B1] = secondary_hash(key) % num_buckets
        regs[_H_WHICH] = 0
        regs[_H_LINE_NO] = 0
        regs[_H_EMPTY] = 0  # first free slot address seen (0 = none)
        return self._read_line(ctx)

    # ---------------- scan helpers ---------------- #

    def _read_line(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        bucket = regs[_H_B0] if regs[_H_WHICH] == 0 else regs[_H_B1]
        bucket_bytes = ctx.header.subtype * 16
        bucket_addr = ctx.header.root_ptr + bucket * bucket_bytes
        offset = regs[_H_LINE_NO] * 64
        remaining = bucket_bytes - offset
        if remaining <= 0:
            return self._next_bucket(ctx)
        regs[_H_SLOT] = 0
        regs[_H_LINE_BASE] = bucket_addr + offset
        ctx.state = 10  # MSCAN
        return (K_MEMREAD, bucket_addr + offset, min(64, remaining), _H_LINE)

    def _scan_line(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        line = regs[_H_LINE]
        slots_in_line = len(line) // 16
        slot = regs[_H_SLOT]
        line_base = regs[_H_LINE_BASE]
        while slot < slots_in_line:
            base = slot * 16
            sig = U64(line, base)[0]
            kv = U64(line, base + 8)[0]
            addr = line_base + base
            slot += 1
            if sig == 0:
                if not regs[_H_EMPTY]:
                    regs[_H_EMPTY] = addr
                continue
            if sig == regs[_H_SIG] and kv:
                regs[_H_SLOT] = slot
                regs[_H_SLOT_ADDR] = addr
                regs[_H_KV] = kv
                ctx.state = 11  # MCHECK
                return (K_COMPARE, kv + 8, ctx.header.key_length, _H_CMP)
        regs[_H_SLOT] = slot
        regs[_H_LINE_NO] += 1
        if regs[_H_LINE_NO] * 64 >= ctx.header.subtype * 16:
            return self._next_bucket(ctx)
        return self._read_line(ctx)

    def _next_bucket(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        if regs[_H_WHICH] == 0:
            regs[_H_WHICH] = 1
            regs[_H_LINE_NO] = 0
            return self._read_line(ctx)
        return self._absent(ctx)

    # ---------------- terminals ---------------- #

    def _found(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        kv = regs[_H_KV]
        if ctx.op == OP_UPDATE:
            return self._commit(ctx, MUT_UPDATED, [(kv, _word(ctx.operand))])
        if ctx.op == OP_INSERT:
            # Key already present: update the existing record in place with
            # the staged record's value (upsert semantics, like software).
            return self._commit(ctx, MUT_UPDATED, [(kv, regs[_H_STAGED][:8])])
        return self._commit(ctx, MUT_DELETED, [(regs[_H_SLOT_ADDR], bytes(16))])

    def _absent(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        if ctx.op in (OP_UPDATE, OP_DELETE):
            return self._miss(ctx)
        if not regs[_H_EMPTY]:
            # Abort while holding the lock: release it untouched, then fault.
            regs[_M_ABORT_CODE] = _VERSION_CONFLICT
            regs[_M_ABORT_DETAIL] = (
                "both candidate buckets full; cuckoo displacement in software"
            )
            ctx.state = _RELEASE
            return self._restore_version(ctx)
        slot = _word(regs[_H_SIG]) + _word(ctx.operand)
        return self._commit(ctx, MUT_INSERTED, [(regs[_H_EMPTY], slot)])


# --------------------------------------------------------------------- #
# Software side: the seqlock, mutator adapters and the executor
# --------------------------------------------------------------------- #


class SeqLock:
    """Software view of a header's seqlock word, with crash recovery.

    A stuck odd version whose holder no longer occupies a QST write-intent
    entry belonged to a writer that died before its single commit store —
    by construction it published nothing, so reclaiming is just taking over
    the held lock.  A *live* holder is waited out by the caller.
    """

    def __init__(self, space, header_addr: int) -> None:
        self.space = space
        self.header_addr = header_addr
        self.vaddr = header_addr + VERSION_OFFSET

    def read(self) -> int:
        return self.space.read_u64(self.vaddr)

    def holder_alive(self, accelerator) -> bool:
        """Is some in-flight mutation CFA bound to this header?"""
        for entry in accelerator.qst.write_entries():
            if entry.ctx is not None and entry.ctx.header_addr == self.header_addr:
                return True
        return False

    def try_acquire(self, accelerator=None) -> Optional[int]:
        """Returns the (odd) held version on success, None when contended."""
        version = self.read()
        if version & 1:
            if accelerator is not None and not self.holder_alive(accelerator):
                # Crashed holder: its single-store commit never ran, so the
                # structure bytes are intact.  Take over the held lock.
                return version
            return None
        self.space.write_u64(self.vaddr, version + 1)
        return version + 1

    def release(self, held: int) -> None:
        self.space.write_u64(self.vaddr, held + 1)


@dataclass(frozen=True)
class CommitRecord:
    """One committed mutation, exported at commit time (the WAL hook).

    ``ordinal`` is the seqlock commit ordinal: the even structure version
    the commit was published over (``handle.commit_version`` on the
    accelerated path, ``held - 1`` on the software path), so consecutive
    commits differ by exactly two.  The cluster tier's commit log
    (``serve/cluster/wal.py``) keys replication and recovery off it.
    """

    ordinal: int
    op: int
    key: bytes
    value: int
    #: MUT_* code, or None for a software miss (which still burns an
    #: ordinal and must stay visible to keep the commit log contiguous).
    result: Optional[int]
    cycle: int


class HashMutator:
    """Adapter between a cuckoo hash table and the mutation executor.

    Stages operands for the CFA fast path, applies mutations in software
    under the seqlock (the fallback and resize-window path) and keeps the
    table's Python-side bookkeeping in sync with accelerated commits.
    """

    def __init__(self, system, structure) -> None:
        self.system = system
        self.structure = structure
        self.lock = SeqLock(system.space, structure.header_addr)
        #: Seqlock ordinal of the last software apply (see handle.commit_version).
        self.last_commit_version: Optional[int] = None
        #: Commit export hook: called with a :class:`CommitRecord` for every
        #: *published* mutation (misses burn no ordinal and export nothing).
        #: Unset outside the cluster tier, so single-machine runs pay — and
        #: change — nothing.
        self.on_commit: Optional[Callable[[CommitRecord], None]] = None

    @property
    def header_addr(self) -> int:
        return self.structure.header_addr

    def stage(self, op: int, key: bytes, value: int) -> int:
        """Build the CFA operand for ``op`` (0 when none is needed)."""
        if op == OP_UPDATE:
            return value
        if op == OP_INSERT:
            return self._stage_insert(key, value)
        return 0

    def software_apply(self, op: int, key: bytes, value: int) -> Optional[int]:
        """Apply under the seqlock; returns a MUT_* code or None (miss).

        Raises :class:`DataStructureError` when the lock is held by a live
        accelerator writer — callers retry after a bounded wait.
        """
        held = self.lock.try_acquire(self.system.accelerator)
        if held is None:
            raise DataStructureError("seqlock held by a live writer")
        self.last_commit_version = held - 1
        try:
            result = self._apply(op, key, value)
        finally:
            self.lock.release(held)
        if self.on_commit is not None:
            # Unlike the accelerated path, a software miss still burns an
            # ordinal (the release publishes version + 2), so it is
            # exported too — as a no-op commit — to keep the log contiguous.
            self.on_commit(
                CommitRecord(
                    ordinal=held - 1,
                    op=op,
                    key=key,
                    value=value,
                    result=result,
                    cycle=self.system.engine.now,
                )
            )
        return result

    def note_accelerated(
        self,
        op: int,
        result: Optional[int],
        *,
        key: Optional[bytes] = None,
        value: int = 0,
        ordinal: Optional[int] = None,
        cycle: int = 0,
    ) -> None:
        """Track count changes the accelerator made behind software's back.

        When the caller passes the commit identity (``key``/``ordinal``),
        the export hook fires for the accelerated commit exactly as
        :meth:`software_apply` does for software ones.
        """
        if result == MUT_INSERTED:
            self.structure._count += 1
        elif result == MUT_DELETED:
            self.structure._count -= 1
        if (
            result is not None
            and self.on_commit is not None
            and key is not None
            and ordinal is not None
        ):
            self.on_commit(
                CommitRecord(
                    ordinal=ordinal,
                    op=op,
                    key=key,
                    value=value,
                    result=result,
                    cycle=cycle,
                )
            )

    def _stage_insert(self, key: bytes, value: int) -> int:
        table = self.structure
        kv = table.mem.alloc(8 + table.key_length, align=8)
        table.mem.space.write_u64(kv, value)
        table.mem.space.write(kv + 8, key)
        return kv

    def _apply(self, op: int, key: bytes, value: int) -> Optional[int]:
        table = self.structure
        if op == OP_INSERT:
            existed = table.lookup(key) is not None
            table.insert(key, value)
            return MUT_UPDATED if existed else MUT_INSERTED
        if op == OP_UPDATE:
            return MUT_UPDATED if table.update(key, value) else None
        return MUT_DELETED if table.delete(key) else None

    def current(self, key: bytes) -> Optional[int]:
        """Settled value for ``key`` (oracle probe; lock-free)."""
        return self.structure.lookup(key)


def make_mutator(system, structure) -> HashMutator:
    """The mutation adapter for ``structure``: writes cover the hash table only."""
    type_code = int(structure.TYPE)
    if type_code == int(StructureType.HASH_TABLE):
        return HashMutator(system, structure)
    raise DataStructureError(
        f"no mutation support for structure type {type_code}"
    )


class MutationExecutor:
    """Submits mutations through the accelerator with software fallback.

    Counters live under ``mutations.*`` and are created lazily, so a system
    that never mutates keeps a byte-identical stats snapshot.
    """

    #: Cycles a software retry waits for a live lock holder to finish.
    LOCK_WAIT_CYCLES = 64
    #: Bounded waits before giving up on a stuck-live lock (cannot happen
    #: with a working watchdog; this guards simulator bugs).
    MAX_LOCK_WAITS = 10_000
    #: Cycles charged for one software mutation apply (header + walk +
    #: store costs of the baseline software path, flat-rated).
    SOFTWARE_APPLY_CYCLES = 220

    def __init__(self, system) -> None:
        # The System owns this executor (``System.mutations()``).
        self.system = weakref.proxy(system)
        self.stats = system.stats.scoped("mutations")

    # ---------------- accelerated path ---------------- #

    def submit(
        self,
        mutator: HashMutator,
        op: int,
        key: bytes,
        value: int = 0,
    ):
        """Issue one blocking mutation from core 0; returns the handle."""
        from .accelerator import QueryRequest

        operand = mutator.stage(op, key, value)
        key_addr = mutator.structure.store_key(key)
        request = QueryRequest(
            header_addr=mutator.header_addr,
            key_addr=key_addr,
            op=op,
            operand=operand,
        )
        self.stats.counter("submitted").add()
        return self.system.accelerator.submit(request, self.system.engine.now)

    def run(
        self, mutator: HashMutator, op: int, key: bytes, value: int = 0
    ) -> Optional[int]:
        """Blocking convenience: accelerate, falling back to software.

        Returns the MUT_* result code, or None when the key was absent
        (UPDATE/DELETE miss).
        """
        handle = self.submit(mutator, op, key, value)
        self.system.accelerator.wait_for(handle)
        from .accelerator import QueryStatus

        if handle.status is QueryStatus.FOUND:
            self.stats.counter("accelerated").add()
            mutator.note_accelerated(
                op,
                handle.value,
                key=key,
                value=value,
                ordinal=handle.commit_version,
                cycle=handle.commit_cycle or self.system.engine.now,
            )
            return handle.value
        if handle.status is QueryStatus.NOT_FOUND:
            self.stats.counter("accelerated").add()
            return None
        return self.fallback(mutator, op, key, value, code=handle.abort_code)

    # ---------------- software path ---------------- #

    def fallback(
        self,
        mutator: HashMutator,
        op: int,
        key: bytes,
        value: int = 0,
        *,
        code: AbortCode = AbortCode.NONE,
    ) -> Optional[int]:
        """Apply in software, waiting out any live lock holder."""
        self.stats.counter("fallbacks").add()
        if code is not AbortCode.NONE:
            self.stats.counter(f"fallback.{code.name.lower()}").add()
        waits = 0
        while True:
            try:
                result = mutator.software_apply(op, key, value)
                break
            except DataStructureError:
                waits += 1
                if waits > self.MAX_LOCK_WAITS:
                    raise
                self.system.engine.advance(self.LOCK_WAIT_CYCLES)
        self.system.engine.advance(self.SOFTWARE_APPLY_CYCLES)
        return result


# --------------------------------------------------------------------- #
# Online resize (hash table)
# --------------------------------------------------------------------- #


class OnlineResizer:
    """Incremental hash-table doubling under live queries.

    ``start`` publishes the resize descriptor and raises ``FLAG_RESIZING``
    (readers begin routing old-vs-new per bucket); each ``step`` migrates a
    chunk of buckets inside a short seqlock critical section; ``commit``
    reuses the firmware-hot-swap quiesce machinery to drain in-flight
    queries before the header flips to the doubled table.
    """

    #: Engine cycles :meth:`run_to_completion` advances between chunks.
    STEP_CYCLES = 256

    def __init__(self, system, table, *, chunk_buckets: int = 8) -> None:
        if chunk_buckets <= 0:
            raise DataStructureError("chunk_buckets must be positive")
        self.system = system
        self.table = table
        self.chunk_buckets = chunk_buckets
        self.lock = SeqLock(system.space, table.header_addr)
        self.stats = system.stats.scoped("resize")
        self.committed = False
        self._started = False

    # ---------------- protocol steps ---------------- #

    def start(self) -> None:
        if self._started:
            raise DataStructureError("resize already started")
        held = self._acquire()
        try:
            self.table.begin_resize()
        finally:
            self.lock.release(held)
        self._started = True
        self.stats.counter("started").add()

    def step(self) -> int:
        """Migrate one chunk; returns buckets migrated (0 when done)."""
        if not self._started or self.finished:
            return 0
        held = self._acquire()
        try:
            moved = self.table.migrate_chunk(self.chunk_buckets)
        finally:
            self.lock.release(held)
        self.stats.counter("buckets_migrated").add(moved)
        return moved

    @property
    def finished(self) -> bool:
        return self._started and self.table.migration_watermark >= (
            self.table.num_buckets
        )

    def commit(self, *, on_complete: Optional[Callable[[], None]] = None) -> None:
        """Quiesce the accelerator, flip the header, restore the homes."""
        if not self.finished:
            raise DataStructureError("cannot commit an unfinished migration")
        if self.committed:
            return
        accelerator = self.system.accelerator
        integration = self.system.integration
        homes = integration.accelerator_homes()
        from .integration import SliceState

        healthy_before = [
            home
            for home in homes
            if integration.home_state(home) is SliceState.HEALTHY
        ]

        def do_commit() -> None:
            held = self._acquire()
            try:
                self.table.adopt_resize()
            finally:
                self.lock.release(held)
            for home in healthy_before:
                if integration.home_state(home) is SliceState.DRAINING:
                    integration.set_home_state(home, SliceState.HEALTHY)
            self.committed = True
            self.stats.counter("committed").add()
            if on_complete is not None:
                on_complete()

        accelerator.quiesce(on_quiesced=do_commit)

    def run_to_completion(self) -> None:
        """Foreground drive: migrate all chunks, then commit (tests/CLI)."""
        if not self._started:
            self.start()
        while not self.finished:
            self.step()
            self.system.engine.advance(self.STEP_CYCLES)
        self.commit()
        guard = 0
        while not self.committed:
            if not self.system.engine.step():
                raise DataStructureError(
                    "engine drained before the resize quiesce completed"
                )
            guard += 1
            if guard > 10_000_000:
                raise DataStructureError("resize commit did not converge")

    def _acquire(self) -> int:
        waits = 0
        while True:
            held = self.lock.try_acquire(self.system.accelerator)
            if held is not None:
                return held
            waits += 1
            if waits > MutationExecutor.MAX_LOCK_WAITS:
                raise DataStructureError("resize could not acquire the seqlock")
            self.system.engine.advance(MutationExecutor.LOCK_WAIT_CYCLES)


# --------------------------------------------------------------------- #
# Firmware registration
# --------------------------------------------------------------------- #


def mutation_programs() -> List[CfaProgram]:
    return [HashTableMutationCfa()]
