"""Mutation CFAs: accelerated INSERT/DELETE/UPDATE (docs/mutations.md).

The read path ships queries to the accelerator while *updates stay in
software* (paper Sec. IV-A).  This module closes that gap: per-structure
mutation programs run on the same CFA Execution Engine, dispatched through
the firmware image's mutation table by the request's ``op`` field.

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

Mutation programs are written once, in the register-and-tuple form the
CEE executes (:mod:`repro.core.cfa`), behind their own seqlock prelude.
``tests/cfa_reference.py`` keeps an interpreted rendering of each as the
oracle ``tests/test_specialize_properties.py`` checks them against step
for step (forced CAS losses, backoff exhaustion, read-only and resize
bail-outs, misses).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..datastructs.hashing import secondary_hash, signature_of
from ..datastructs.skiplist import NODE_FIXED_BYTES, tower_height
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
    K_MEMREAD2,
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


class _MutationProgram(CfaProgram):
    """Shared mutation prelude: parse header, read key, take the seqlock.

    Subclasses implement :meth:`after_lock` (first structure-specific step,
    entered holding the lock) and :meth:`dispatch` for their walk states.
    The terminal helpers — :meth:`_commit`, :meth:`_miss`,
    :meth:`_release_abort` — all fold the lock release into a single macro
    store so memory is never observable half-mutated.
    """

    PRELUDE_STATES = (
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
    )

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
            blocker = self.pre_lock_check(ctx)
            if blocker is not None:
                return blocker
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
            return self.after_lock(ctx)
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

    # ---------------- subclass surface ---------------- #

    #: What an INSERT operand points at (named in the missing-operand fault).
    STAGED_OPERAND = "record"

    def pre_lock_check(self, ctx: QueryContext) -> Optional[tuple]:
        """Structure-specific bail-out evaluated before the lock CAS."""
        if ctx.op == OP_INSERT and not ctx.operand:
            detail = f"INSERT without a staged {self.STAGED_OPERAND}"
            return (K_FAULT, _NULL_PTR, detail)
        return None

    def after_lock(self, ctx: QueryContext) -> tuple:
        raise NotImplementedError

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
        *,
        new_size: Optional[int] = None,
    ) -> tuple:
        """Publish the mutation and release the lock in one macro store.

        The store carries the pre-lock version: this commit's ordinal in
        the structure's seqlock-serialised write history, which the
        accelerator stamps onto the handle so observers can order commits
        exactly.
        """
        parts = [seg for seg in segments if seg[1]]
        if new_size is not None:
            parts.append((ctx.header_addr + 16, _word(new_size)))
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

    def _release_abort(self, ctx: QueryContext, code: AbortCode, detail: str) -> tuple:
        """Abort while holding the lock: release it untouched, then fault."""
        regs = ctx.scratch
        regs[_M_ABORT_CODE] = int(code)
        regs[_M_ABORT_DETAIL] = detail
        ctx.state = _RELEASE
        return self._restore_version(ctx)


# --------------------------------------------------------------------- #
# Hash table
# --------------------------------------------------------------------- #

# Hash-table mutation registers.
_H_STAGED, _H_HASH, _H_LINE, _H_CMP = 7, 8, 9, 10
_H_SIG, _H_B0, _H_B1, _H_WHICH, _H_LINE_NO = 11, 12, 13, 14, 15
_H_EMPTY, _H_SLOT, _H_LINE_BASE, _H_SLOT_ADDR, _H_KV = 16, 17, 18, 19, 20


class HashTableMutationCfa(_MutationProgram):
    """Cuckoo hash mutations: in-place update/delete, empty-slot insert.

    INSERT's operand is a core-staged ``{value, key}`` record whose layout
    matches the table's kv records, so publishing the insert is one 16-byte
    slot store of ``{signature, operand}``.  Inserts that would need cuckoo
    displacement (both candidate buckets full) abort to software, as do all
    writes while an online resize is in flight.
    """

    TYPE_CODE = int(StructureType.HASH_TABLE)
    NAME = "hash-table-mut"
    STATES = _MutationProgram.PRELUDE_STATES + (
        "STAGED",
        "MHASH",
        "MSCAN",
        "MCHECK",
    )
    SUBTYPE_MIN = 1
    SUBTYPE_MAX = 128
    REQUIRES_SIZE = True
    NREGS = 21

    def pre_lock_check(self, ctx: QueryContext) -> Optional[tuple]:
        if ctx.header.flags & FLAG_RESIZING:
            # The migration drain owns placement during a resize; CFA writes
            # fall back to the (resize-aware) software path.
            return (
                K_FAULT,
                _VERSION_CONFLICT,
                "online resize in flight; write falls back",
            )
        return super().pre_lock_check(ctx)

    def after_lock(self, ctx: QueryContext) -> tuple:
        if ctx.op == OP_INSERT:
            ctx.state = 8  # STAGED
            return (K_MEMREAD, ctx.operand, 8, _H_STAGED)
        ctx.state = 9  # MHASH
        return (K_HASH, S_KEY, _H_HASH)

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
            return self._release_abort(
                ctx,
                AbortCode.VERSION_CONFLICT,
                "both candidate buckets full; cuckoo displacement in software",
            )
        slot = _word(regs[_H_SIG]) + _word(ctx.operand)
        return self._commit(ctx, MUT_INSERTED, [(regs[_H_EMPTY], slot)])


# --------------------------------------------------------------------- #
# Skip list
# --------------------------------------------------------------------- #

# Skip-list mutation registers; per-level predecessor/successor pairs
# occupy MAX_LEVELS slots each from _S_PRED / _S_SUCC.
_S_STAGED, _S_PTR, _S_NEXT, _S_CMP, _S_CNEXT = 7, 8, 9, 10, 11
_S_NODE, _S_LEVEL, _S_CAND, _S_NEXT_ADDR, _S_CAND_HEIGHT = 12, 13, 14, 15, 16
_S_PRED = 17


class SkipListMutationCfa(_MutationProgram):
    """Skip-list mutations: pred/succ tracked per level during the descent.

    INSERT's operand is a complete core-staged node ``{key_ptr, value,
    height, next[height]}`` with zeroed forward pointers; the CFA links it
    at every level of its (deterministic) tower in one macro store.  DELETE
    splices the victim out of every level it appears on.
    """

    TYPE_CODE = int(StructureType.SKIP_LIST)
    NAME = "skip-list-mut"
    STATES = _MutationProgram.PRELUDE_STATES + (
        "STAGED",
        "WNEXT",
        "WFETCH",
        "WCMP",
        "WSPLICE",
    )
    SUBTYPE_MAX = 0
    MAX_LEVELS = 64
    STAGED_OPERAND = "node"
    NREGS = _S_PRED + 2 * MAX_LEVELS

    def validate_header(self, header, raw: bytes = b"") -> AbortCode:
        code = super().validate_header(header, raw=raw)
        if code is not AbortCode.NONE:
            return code
        if not 1 <= header.aux <= self.MAX_LEVELS:
            return AbortCode.BAD_AUX
        return AbortCode.NONE

    def after_lock(self, ctx: QueryContext) -> tuple:
        if ctx.op == OP_INSERT:
            ctx.state = 8  # STAGED
            return (K_MEMREAD, ctx.operand, NODE_FIXED_BYTES, _S_STAGED)
        return self._start_walk(ctx)

    def _start_walk(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        root = ctx.header.root_ptr
        regs[_S_NODE] = root
        regs[_S_LEVEL] = ctx.header.aux - 1
        regs[_S_CAND] = 0
        if not root:
            return self._release_abort(
                ctx, AbortCode.NULL_POINTER, "skip list has no head node"
            )
        return self._read_ptr(ctx)

    def _read_ptr(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        ctx.state = 9  # WNEXT
        offset = NODE_FIXED_BYTES + 8 * regs[_S_LEVEL]
        return (K_MEMREAD, regs[_S_NODE] + offset, 8, _S_PTR)

    def _drop_level(self, ctx: QueryContext, succ: int) -> tuple:
        regs = ctx.scratch
        level = regs[_S_LEVEL]
        regs[_S_PRED + level] = regs[_S_NODE]
        regs[_S_PRED + self.MAX_LEVELS + level] = succ
        if level > 0:
            regs[_S_LEVEL] = level - 1
            return self._read_ptr(ctx)
        return self._finalize(ctx)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        state = ctx.state
        if state == 9:  # WNEXT
            nxt = U64(regs[_S_PTR], 0)[0]
            if not nxt:
                return self._drop_level(ctx, 0)
            regs[_S_NEXT_ADDR] = nxt
            ctx.state = 10  # WFETCH
            return (K_MEMREAD, nxt, NODE_FIXED_BYTES, _S_NEXT)
        if state == 10:  # WFETCH
            key_ptr = U64(regs[_S_NEXT], 0)[0]
            if not key_ptr:
                return self._release_abort(
                    ctx, AbortCode.NULL_POINTER, "null key pointer"
                )
            ctx.state = 11  # WCMP
            return (K_COMPARE, key_ptr, ctx.header.key_length, _S_CMP)
        if state == 11:  # WCMP
            cmp_result = regs[_S_CMP]
            nxt = regs[_S_NEXT_ADDR]
            if cmp_result < 0:  # next.key < key: advance along this level
                regs[_S_NODE] = nxt
                return self._read_ptr(ctx)
            if cmp_result == 0:
                regs[_S_CAND] = nxt
                regs[_S_CAND_HEIGHT] = U64(regs[_S_NEXT], 16)[0]
            return self._drop_level(ctx, nxt)
        if state == 8:  # STAGED
            return self._start_walk(ctx)
        # WSPLICE
        return self._splice_delete(ctx)

    # ---------------- terminals ---------------- #

    def _finalize(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        cand = regs[_S_CAND]
        if ctx.op == OP_UPDATE:
            if not cand:
                return self._miss(ctx)
            return self._commit(ctx, MUT_UPDATED, [(cand + 8, _word(ctx.operand))])
        if ctx.op == OP_INSERT:
            staged = regs[_S_STAGED]
            if cand:
                return self._commit(ctx, MUT_UPDATED, [(cand + 8, staged[8:16])])
            height = min(U64(staged, 16)[0] or 1, ctx.header.aux)
            node = ctx.operand
            segments: List[Tuple[int, bytes]] = []
            for level in range(height):
                link = NODE_FIXED_BYTES + 8 * level
                succ = regs[_S_PRED + self.MAX_LEVELS + level]
                segments.append((node + link, _word(succ)))
                segments.append((regs[_S_PRED + level] + link, _word(node)))
            return self._commit(ctx, MUT_INSERTED, segments)
        # DELETE: fetch the victim's forward pointers, then splice.
        if not cand:
            return self._miss(ctx)
        height = min(regs[_S_CAND_HEIGHT] or 1, ctx.header.aux)
        regs[_S_CAND_HEIGHT] = height
        ctx.state = 12  # WSPLICE
        return (K_MEMREAD, cand + NODE_FIXED_BYTES, 8 * height, _S_CNEXT)

    def _splice_delete(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        cand = regs[_S_CAND]
        cnext = regs[_S_CNEXT]
        segments: List[Tuple[int, bytes]] = []
        for level in range(regs[_S_CAND_HEIGHT]):
            if regs[_S_PRED + self.MAX_LEVELS + level] != cand:
                continue  # the victim is absent from this level
            segments.append(
                (
                    regs[_S_PRED + level] + NODE_FIXED_BYTES + 8 * level,
                    cnext[level * 8 : level * 8 + 8],
                )
            )
        return self._commit(ctx, MUT_DELETED, segments)


# --------------------------------------------------------------------- #
# B+-tree
# --------------------------------------------------------------------- #

# B+-tree mutation registers.
_B_STAGED, _B_NODE, _B_CMP, _B_CHILD = 7, 8, 9, 10
_B_KEYS_TAIL, _B_SLOTS_TAIL = 11, 12
_B_NODE_ADDR, _B_COUNT, _B_KEYS, _B_SLOTS, _B_INDEX, _B_LEAF_STAGED = (
    13, 14, 15, 16, 17, 18,
)


class BPlusTreeMutationCfa(_MutationProgram):
    """B+-tree leaf mutations: in-place update, compacting delete.

    Leaves are bulk-loaded with exactly-sized key arrays (no spare
    capacity), so a fresh-key INSERT always needs a reallocation or split —
    those abort to software.  UPDATE rewrites the aligned value slot;
    DELETE shifts the leaf's key/value tails left and decrements the
    counts, all in one macro store.
    """

    TYPE_CODE = int(StructureType.BPLUS_TREE)
    NAME = "bplus-tree-mut"
    STATES = _MutationProgram.PRELUDE_STATES + (
        "STAGED",
        "WFETCH_NODE",
        "WSEP_CHECK",
        "WLEAF_STAGE",
        "WLEAF_CHECK",
        "WREAD_CHILD",
    )
    SUBTYPE_MIN = 2
    SUBTYPE_MAX = 64
    NREGS = 19

    def after_lock(self, ctx: QueryContext) -> tuple:
        if ctx.op == OP_INSERT:
            ctx.state = 8  # STAGED
            return (K_MEMREAD, ctx.operand, 8, _B_STAGED)
        return self._descend_root(ctx)

    def _descend_root(self, ctx: QueryContext) -> tuple:
        root = ctx.header.root_ptr
        if not root:
            return self._release_abort(
                ctx, AbortCode.NULL_POINTER, "B+-tree has no root"
            )
        return self._fetch_node(ctx, root)

    def _fetch_node(self, ctx: QueryContext, node: int) -> tuple:
        ctx.scratch[_B_NODE_ADDR] = node
        ctx.state = 9  # WFETCH_NODE
        return (K_MEMREAD, node, 40, _B_NODE)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        state = ctx.state
        if state == 9:  # WFETCH_NODE
            node = regs[_B_NODE]
            flags = U64(node, 0)[0]
            regs[_B_COUNT] = U64(node, 8)[0]
            regs[_B_KEYS] = U64(node, 24)[0]
            regs[_B_SLOTS] = U64(node, 32)[0]
            regs[_B_INDEX] = 0
            if flags & 0x1:  # leaf
                return self._leaf_step(ctx)
            return self._separator_step(ctx)
        if state == 10:  # WSEP_CHECK
            if regs[_B_CMP] > 0:  # separator > key: take this child
                return self._read_child(ctx, regs[_B_INDEX])
            regs[_B_INDEX] += 1
            return self._separator_step(ctx)
        if state == 12:  # WLEAF_CHECK
            cmp_result = regs[_B_CMP]
            if cmp_result == 0:
                return self._leaf_found(ctx)
            if cmp_result > 0:  # sorted leaf: stored key already past ours
                return self._leaf_absent(ctx)
            regs[_B_INDEX] += 1
            return self._leaf_step(ctx)
        if state == 13:  # WREAD_CHILD
            child = U64(regs[_B_CHILD], 0)[0]
            if not child:
                return self._release_abort(
                    ctx, AbortCode.NULL_POINTER, "null child pointer"
                )
            return self._fetch_node(ctx, child)
        if state == 11:  # WLEAF_STAGE
            return self._leaf_step(ctx)
        # STAGED
        return self._descend_root(ctx)

    # ---------------- walk helpers ---------------- #

    def _separator_step(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        if regs[_B_INDEX] >= regs[_B_COUNT]:
            return self._read_child(ctx, regs[_B_COUNT])
        klen = ctx.header.key_length
        ctx.state = 10  # WSEP_CHECK
        return (K_COMPARE, regs[_B_KEYS] + regs[_B_INDEX] * klen, klen, _B_CMP)

    def _read_child(self, ctx: QueryContext, index: int) -> tuple:
        ctx.state = 13  # WREAD_CHILD
        return (K_MEMREAD, ctx.scratch[_B_SLOTS] + 8 * index, 8, _B_CHILD)

    def _leaf_step(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        if regs[_B_INDEX] >= regs[_B_COUNT]:
            return self._leaf_absent(ctx)
        klen = ctx.header.key_length
        if ctx.op == OP_DELETE and not regs[_B_LEAF_STAGED]:
            # Stage the whole leaf payload once: a compacting delete
            # rewrites the key/value tails, so the CFA needs their bytes.
            regs[_B_LEAF_STAGED] = 1
            count = regs[_B_COUNT]
            ctx.state = 11  # WLEAF_STAGE
            return (
                K_MEMREAD2,
                regs[_B_KEYS],
                count * klen,
                _B_KEYS_TAIL,
                regs[_B_SLOTS],
                count * 8,
                _B_SLOTS_TAIL,
            )
        ctx.state = 12  # WLEAF_CHECK
        return (K_COMPARE, regs[_B_KEYS] + regs[_B_INDEX] * klen, klen, _B_CMP)

    # ---------------- terminals ---------------- #

    def _leaf_found(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        i = regs[_B_INDEX]
        slot = regs[_B_SLOTS] + 8 * i
        if ctx.op == OP_UPDATE:
            return self._commit(ctx, MUT_UPDATED, [(slot, _word(ctx.operand))])
        if ctx.op == OP_INSERT:
            return self._commit(ctx, MUT_UPDATED, [(slot, regs[_B_STAGED][:8])])
        # DELETE: shift the staged key/value tails left over the victim.
        count = regs[_B_COUNT]
        if count <= 1:
            return self._release_abort(
                ctx,
                AbortCode.VERSION_CONFLICT,
                "leaf would empty; delete handled in software",
            )
        klen = ctx.header.key_length
        segments = [
            (
                regs[_B_KEYS] + i * klen,
                regs[_B_KEYS_TAIL][(i + 1) * klen : count * klen],
            ),
            (regs[_B_SLOTS] + i * 8, regs[_B_SLOTS_TAIL][(i + 1) * 8 : count * 8]),
            (regs[_B_NODE_ADDR] + 8, _word(count - 1)),
        ]
        new_size = max(0, ctx.header.size - 1)
        return self._commit(ctx, MUT_DELETED, segments, new_size=new_size)

    def _leaf_absent(self, ctx: QueryContext) -> tuple:
        if ctx.op == OP_INSERT:
            return self._release_abort(
                ctx,
                AbortCode.VERSION_CONFLICT,
                "fresh key needs a leaf reallocation/split; software path",
            )
        return self._miss(ctx)


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

    def repair(self, accelerator) -> bool:
        """Release an orphaned lock without mutating (post-crash sweep)."""
        version = self.read()
        if version & 1 and not self.holder_alive(accelerator):
            self.space.write_u64(self.vaddr, version + 1)
            return True
        return False


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


class StructureMutator:
    """Adapter between one simulated structure and the mutation executor.

    Stages operands for the CFA fast path, applies mutations in software
    under the seqlock (the fallback and resize-window path) and keeps the
    structure's Python-side bookkeeping in sync with accelerated commits.
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

    def _stage_insert(self, key: bytes, value: int) -> int:
        raise NotImplementedError

    def _apply(self, op: int, key: bytes, value: int) -> Optional[int]:
        raise NotImplementedError

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
        count = getattr(self.structure, "_count", None)
        if count is not None:
            if result == MUT_INSERTED:
                self.structure._count = count + 1
            elif result == MUT_DELETED:
                self.structure._count = count - 1
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

    def current(self, key: bytes) -> Optional[int]:
        """Settled value for ``key`` (oracle probe; lock-free)."""
        return self.structure.lookup(key)


class HashMutator(StructureMutator):
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


class SkipListMutator(StructureMutator):
    def _stage_insert(self, key: bytes, value: int) -> int:
        slist = self.structure
        key_addr = slist.mem.store_bytes(key)
        height = tower_height(key, slist.max_level)
        return slist._alloc_node(key_ptr=key_addr, value=value, height=height)

    def _apply(self, op: int, key: bytes, value: int) -> Optional[int]:
        slist = self.structure
        if op == OP_INSERT:
            existed = slist.lookup(key) is not None
            slist.insert(key, value)
            return MUT_UPDATED if existed else MUT_INSERTED
        if op == OP_UPDATE:
            return MUT_UPDATED if slist.update(key, value) else None
        return MUT_DELETED if slist.remove(key) else None


class BTreeMutator(StructureMutator):
    def _stage_insert(self, key: bytes, value: int) -> int:
        tree = self.structure
        kv = tree.mem.alloc(8 + tree.key_length, align=8)
        tree.mem.space.write_u64(kv, value)
        tree.mem.space.write(kv + 8, key)
        return kv

    def _apply(self, op: int, key: bytes, value: int) -> Optional[int]:
        tree = self.structure
        if op == OP_INSERT:
            existed = tree.lookup(key) is not None
            tree.insert(key, value)
            return MUT_UPDATED if existed else MUT_INSERTED
        if op == OP_UPDATE:
            return MUT_UPDATED if tree.update(key, value) else None
        return MUT_DELETED if tree.delete(key) else None


def make_mutator(system, structure) -> StructureMutator:
    """The right adapter for a structure, keyed by its type code."""
    type_code = int(structure.TYPE)
    if type_code == int(StructureType.HASH_TABLE):
        return HashMutator(system, structure)
    if type_code == int(StructureType.SKIP_LIST):
        return SkipListMutator(system, structure)
    if type_code == int(StructureType.BPLUS_TREE):
        return BTreeMutator(system, structure)
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
        mutator: StructureMutator,
        op: int,
        key: bytes,
        value: int = 0,
        *,
        core_id: int = 0,
        blocking: bool = True,
        result_addr: int = 0,
    ):
        """Issue one mutation through the QUERY port; returns the handle."""
        from .accelerator import QueryRequest

        operand = mutator.stage(op, key, value)
        key_addr = mutator.structure.store_key(key)
        request = QueryRequest(
            header_addr=mutator.header_addr,
            key_addr=key_addr,
            core_id=core_id,
            blocking=blocking,
            result_addr=result_addr,
            op=op,
            operand=operand,
        )
        self.stats.counter("submitted").add()
        return self.system.accelerator.submit(request, self.system.engine.now)

    def run(
        self, mutator: StructureMutator, op: int, key: bytes, value: int = 0
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
        mutator: StructureMutator,
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

    def run_to_completion(self, *, step_cycles: int = 256) -> None:
        """Foreground drive: migrate all chunks, then commit (tests/CLI)."""
        if not self._started:
            self.start()
        while not self.finished:
            self.step()
            self.system.engine.advance(step_cycles)
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
    return [
        HashTableMutationCfa(),
        SkipListMutationCfa(),
        BPlusTreeMutationCfa(),
    ]
