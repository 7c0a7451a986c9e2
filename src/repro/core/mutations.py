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

Every mutation publishes its effects with **one** :class:`MemWrite` macro
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

Mutation programs execute through the *prebound* compiled tier in
:mod:`repro.core.specialize`: the compiler captures each program's
``step`` and translates its :class:`StepOutcome` into the flat micro-op
tuples the batched CEE drain consumes, so mutation semantics live only
here.  ``tests/test_specialize_properties.py`` pins prebound-vs-interpreted
agreement (including forced seqlock conflicts and mid-resize walks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..datastructs.hashing import secondary_hash, signature_of
from ..datastructs.skiplist import NODE_FIXED_BYTES, tower_height
from ..errors import DataStructureError
from .abort import AbortCode
from .cfa import (
    CfaProgram,
    Compare,
    Delay,
    Done,
    Fault,
    FirmwareImage,
    HashOp,
    HeaderCas,
    MemRead,
    MemWrite,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    QueryContext,
    STATE_DONE,
    STATE_EXCEPTION,
    STATE_START,
    StepOutcome,
    WRITE_OPS,
)
from .header import (
    FLAG_READ_ONLY,
    FLAG_RESIZING,
    DataStructureHeader,
    StructureType,
    VERSION_OFFSET,
)
from .programs import _u64

_SLOT = 16
_BTREE_HEADER = 40
_LEAF_FLAG = 0x1

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

    def step(self, ctx: QueryContext) -> StepOutcome:
        if ctx.state == STATE_START:
            if ctx.op not in WRITE_OPS:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(
                        code=int(AbortCode.FIRMWARE),
                        detail=f"mutation program dispatched for op {ctx.op}",
                    ),
                )
            return StepOutcome("PARSE", MemRead(ctx.header_addr, 64, "header"))
        if ctx.state == "PARSE":
            raw = ctx.scratch["header"]
            header = DataStructureHeader.decode(raw)
            code = self.validate_header(header, raw=raw)
            if code is AbortCode.VERSION_CONFLICT:
                # Odd version: another writer holds the seqlock right now.
                return self._backoff(ctx)
            if code is not AbortCode.NONE:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(code=int(code), detail=f"header rejected: {code.name}"),
                )
            if header.flags & FLAG_READ_ONLY:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(
                        code=int(AbortCode.PROTECTION),
                        detail="structure is marked read-only",
                    ),
                )
            ctx.header = header
            blocker = self.pre_lock_check(ctx)
            if blocker is not None:
                return blocker
            return StepOutcome(
                "READ_KEY", MemRead(ctx.key_addr, header.key_length, "key")
            )
        if ctx.state == "READ_KEY":
            ctx.key = ctx.scratch["key"][: ctx.header.key_length]
            version = ctx.header.version
            return StepOutcome(
                "LOCK",
                HeaderCas(
                    ctx.header_addr + VERSION_OFFSET,
                    expect=version,
                    new=version + 1,
                    tag="lock",
                ),
            )
        if ctx.state == "LOCK":
            if ctx.results["lock"] != 1:
                return self._backoff(ctx)
            return self.after_lock(ctx)
        if ctx.state == "BACKOFF":
            # Backoff elapsed: re-read the header (the version, and possibly
            # the whole structure, moved while we slept).
            return StepOutcome("PARSE", MemRead(ctx.header_addr, 64, "header"))
        if ctx.state == "COMMIT":
            return StepOutcome(STATE_DONE, Done(ctx.vars["result"]))
        if ctx.state == "MISS":
            return StepOutcome(STATE_DONE, Done(None))
        if ctx.state == "RELEASE":
            code = AbortCode.of(ctx.vars.get("abort_code", int(AbortCode.FAULT)))
            detail = ctx.scratch.get("abort_detail", b"").decode(
                "utf-8", "replace"
            )
            return StepOutcome(
                STATE_EXCEPTION, Fault(code=int(code), detail=detail)
            )
        return self.dispatch(ctx)

    # ---------------- subclass surface ---------------- #

    def pre_lock_check(self, ctx: QueryContext) -> Optional[StepOutcome]:
        """Structure-specific bail-out evaluated before the lock CAS."""
        return None

    def after_lock(self, ctx: QueryContext) -> StepOutcome:
        raise NotImplementedError

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        raise NotImplementedError

    # ---------------- terminal helpers ---------------- #

    def _backoff(self, ctx: QueryContext) -> StepOutcome:
        attempts = ctx.vars.get("attempts", 0) + 1
        ctx.vars["attempts"] = attempts
        if attempts > MAX_LOCK_ATTEMPTS:
            return StepOutcome(
                STATE_EXCEPTION,
                Fault(
                    code=int(AbortCode.VERSION_CONFLICT),
                    detail=(
                        f"seqlock contended after {MAX_LOCK_ATTEMPTS} "
                        "attempts; falling back to software"
                    ),
                ),
            )
        return StepOutcome(
            "BACKOFF", Delay(BACKOFF_BASE_CYCLES << (attempts - 1))
        )

    def _version_word(self, ctx: QueryContext, version: int) -> Tuple[int, bytes]:
        return (
            ctx.header_addr + VERSION_OFFSET,
            version.to_bytes(8, "little"),
        )

    def _commit(
        self,
        ctx: QueryContext,
        result: int,
        segments: List[Tuple[int, bytes]],
        *,
        new_size: Optional[int] = None,
    ) -> StepOutcome:
        """Publish the mutation and release the lock in one macro store."""
        parts = [seg for seg in segments if seg[1]]
        if new_size is not None:
            parts.append((ctx.header_addr + 16, new_size.to_bytes(8, "little")))
        parts.append(self._version_word(ctx, ctx.header.version + 2))
        ctx.vars["result"] = result
        # The pre-lock version is this commit's ordinal in the structure's
        # seqlock-serialised write history; the accelerator stamps it onto
        # the handle so observers can order commits exactly.
        ctx.vars["commit_version"] = ctx.header.version
        head = parts[0]
        return StepOutcome(
            "COMMIT", MemWrite(head[0], head[1], also=tuple(parts[1:]))
        )

    def _miss(self, ctx: QueryContext) -> StepOutcome:
        """Key absent: restore the pre-lock version (nothing was written)."""
        vaddr, data = self._version_word(ctx, ctx.header.version)
        return StepOutcome("MISS", MemWrite(vaddr, data))

    def _release_abort(
        self, ctx: QueryContext, code: AbortCode, detail: str
    ) -> StepOutcome:
        """Abort while holding the lock: release it untouched, then fault."""
        ctx.vars["abort_code"] = int(code)
        ctx.scratch["abort_detail"] = detail.encode()
        vaddr, data = self._version_word(ctx, ctx.header.version)
        return StepOutcome("RELEASE", MemWrite(vaddr, data))


# --------------------------------------------------------------------- #
# Hash table
# --------------------------------------------------------------------- #


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

    def pre_lock_check(self, ctx: QueryContext) -> Optional[StepOutcome]:
        if ctx.header.flags & FLAG_RESIZING:
            # The migration drain owns placement during a resize; CFA writes
            # fall back to the (resize-aware) software path.
            return StepOutcome(
                STATE_EXCEPTION,
                Fault(
                    code=int(AbortCode.VERSION_CONFLICT),
                    detail="online resize in flight; write falls back",
                ),
            )
        if ctx.op == OP_INSERT and not ctx.operand:
            return StepOutcome(
                STATE_EXCEPTION,
                Fault(
                    code=int(AbortCode.NULL_POINTER),
                    detail="INSERT without a staged record",
                ),
            )
        return None

    def after_lock(self, ctx: QueryContext) -> StepOutcome:
        if ctx.op == OP_INSERT:
            return StepOutcome("STAGED", MemRead(ctx.operand, 8, "staged"))
        return StepOutcome("MHASH", HashOp("key", "hash"))

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.state == "STAGED":
            return StepOutcome("MHASH", HashOp("key", "hash"))
        if ctx.state == "MHASH":
            num_buckets = ctx.header.size
            v["sig"] = signature_of(ctx.key) or 1
            v["b0"] = ctx.results["hash"] % num_buckets
            v["b1"] = secondary_hash(ctx.key) % num_buckets
            v["which"] = 0
            v["line"] = 0
            v["empty_slot"] = 0  # first free slot address seen (0 = none)
            return self._read_line(ctx)
        if ctx.state == "MSCAN":
            return self._scan_line(ctx)
        if ctx.state == "MCHECK":
            if ctx.results["cmp"] == 0:
                return self._found(ctx)
            return self._scan_line(ctx)  # signature collision: keep scanning
        raise AssertionError(f"unreachable state {ctx.state}")

    # ---------------- scan helpers ---------------- #

    def _bucket_bytes(self, ctx: QueryContext) -> int:
        return ctx.header.subtype * _SLOT

    def _read_line(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        bucket = v["b0"] if v["which"] == 0 else v["b1"]
        bucket_addr = ctx.header.root_ptr + bucket * self._bucket_bytes(ctx)
        offset = v["line"] * 64
        remaining = self._bucket_bytes(ctx) - offset
        if remaining <= 0:
            return self._next_bucket(ctx)
        v["slot_in_line"] = 0
        v["line_base"] = bucket_addr + offset
        return StepOutcome(
            "MSCAN", MemRead(bucket_addr + offset, min(64, remaining), "line")
        )

    def _scan_line(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        line = ctx.scratch["line"]
        slots_in_line = len(line) // _SLOT
        slot = v["slot_in_line"]
        while slot < slots_in_line:
            sig = _u64(line, slot * _SLOT)
            kv = _u64(line, slot * _SLOT + 8)
            addr = v["line_base"] + slot * _SLOT
            slot += 1
            if sig == 0:
                if not v["empty_slot"]:
                    v["empty_slot"] = addr
                continue
            if sig == v["sig"] and kv:
                v["slot_in_line"] = slot
                v["slot_addr"] = addr
                v["kv"] = kv
                return StepOutcome(
                    "MCHECK",
                    Compare(kv + 8, ctx.key_addr, ctx.header.key_length, "cmp"),
                )
        v["slot_in_line"] = slot
        v["line"] += 1
        if v["line"] * 64 >= self._bucket_bytes(ctx):
            return self._next_bucket(ctx)
        return self._read_line(ctx)

    def _next_bucket(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if v["which"] == 0:
            v["which"] = 1
            v["line"] = 0
            return self._read_line(ctx)
        return self._absent(ctx)

    # ---------------- terminals ---------------- #

    def _found(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        kv = v["kv"]
        if ctx.op == OP_UPDATE:
            return self._commit(
                ctx, MUT_UPDATED, [(kv, ctx.operand.to_bytes(8, "little"))]
            )
        if ctx.op == OP_INSERT:
            # Key already present: update the existing record in place with
            # the staged record's value (upsert semantics, like software).
            staged_value = ctx.scratch["staged"][:8]
            return self._commit(ctx, MUT_UPDATED, [(kv, staged_value)])
        return self._commit(
            ctx, MUT_DELETED, [(v["slot_addr"], bytes(_SLOT))]
        )

    def _absent(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.op in (OP_UPDATE, OP_DELETE):
            return self._miss(ctx)
        if not v["empty_slot"]:
            return self._release_abort(
                ctx,
                AbortCode.VERSION_CONFLICT,
                "both candidate buckets full; cuckoo displacement in software",
            )
        slot = (
            v["sig"].to_bytes(8, "little") + ctx.operand.to_bytes(8, "little")
        )
        return self._commit(ctx, MUT_INSERTED, [(v["empty_slot"], slot)])

    # MemWrite intentionally omits the 16B zero segment guard: the commit
    # helper filters empty data, and a DELETE's slot clear is 16 bytes.


# --------------------------------------------------------------------- #
# Skip list
# --------------------------------------------------------------------- #


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

    def validate_header(self, header, raw: bytes = b"") -> AbortCode:
        code = super().validate_header(header, raw=raw)
        if code is not AbortCode.NONE:
            return code
        if not 1 <= header.aux <= self.MAX_LEVELS:
            return AbortCode.BAD_AUX
        return AbortCode.NONE

    def pre_lock_check(self, ctx: QueryContext) -> Optional[StepOutcome]:
        if ctx.op == OP_INSERT and not ctx.operand:
            return StepOutcome(
                STATE_EXCEPTION,
                Fault(
                    code=int(AbortCode.NULL_POINTER),
                    detail="INSERT without a staged node",
                ),
            )
        return None

    def after_lock(self, ctx: QueryContext) -> StepOutcome:
        if ctx.op == OP_INSERT:
            return StepOutcome(
                "STAGED", MemRead(ctx.operand, NODE_FIXED_BYTES, "staged")
            )
        return self._start_walk(ctx)

    def _start_walk(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        v["node"] = ctx.header.root_ptr
        v["level"] = ctx.header.aux - 1
        v["cand"] = 0
        if not ctx.header.root_ptr:
            return self._release_abort(
                ctx, AbortCode.NULL_POINTER, "skip list has no head node"
            )
        return self._read_ptr(ctx)

    def _read_ptr(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        offset = NODE_FIXED_BYTES + 8 * v["level"]
        return StepOutcome("WNEXT", MemRead(v["node"] + offset, 8, "ptr"))

    def _drop_level(self, ctx: QueryContext, succ: int) -> StepOutcome:
        v = ctx.vars
        level = v["level"]
        v[f"pred_{level}"] = v["node"]
        v[f"succ_{level}"] = succ
        if level > 0:
            v["level"] = level - 1
            return self._read_ptr(ctx)
        return self._finalize(ctx)

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.state == "STAGED":
            return self._start_walk(ctx)
        if ctx.state == "WNEXT":
            nxt = ctx.scratch_u64("ptr")
            if not nxt:
                return self._drop_level(ctx, 0)
            v["next"] = nxt
            return StepOutcome(
                "WFETCH", MemRead(nxt, NODE_FIXED_BYTES, "next")
            )
        if ctx.state == "WFETCH":
            key_ptr = ctx.scratch_u64("next", 0)
            if not key_ptr:
                return self._release_abort(
                    ctx, AbortCode.NULL_POINTER, "null key pointer"
                )
            return StepOutcome(
                "WCMP",
                Compare(key_ptr, ctx.key_addr, ctx.header.key_length, "cmp"),
            )
        if ctx.state == "WCMP":
            cmp_result = ctx.results["cmp"]
            if cmp_result < 0:  # next.key < key: advance along this level
                v["node"] = v["next"]
                return self._read_ptr(ctx)
            if cmp_result == 0:
                v["cand"] = v["next"]
                v["cand_height"] = ctx.scratch_u64("next", 16)
            return self._drop_level(ctx, v["next"])
        if ctx.state == "WSPLICE":
            return self._splice_delete(ctx)
        raise AssertionError(f"unreachable state {ctx.state}")

    # ---------------- terminals ---------------- #

    def _finalize(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        cand = v["cand"]
        if ctx.op == OP_UPDATE:
            if not cand:
                return self._miss(ctx)
            return self._commit(
                ctx,
                MUT_UPDATED,
                [(cand + 8, ctx.operand.to_bytes(8, "little"))],
            )
        if ctx.op == OP_INSERT:
            if cand:
                staged_value = ctx.scratch["staged"][8:16]
                return self._commit(ctx, MUT_UPDATED, [(cand + 8, staged_value)])
            height = min(
                _u64(ctx.scratch["staged"], 16) or 1, ctx.header.aux
            )
            segments: List[Tuple[int, bytes]] = []
            for level in range(height):
                succ = v[f"succ_{level}"]
                pred = v[f"pred_{level}"]
                segments.append(
                    (
                        ctx.operand + NODE_FIXED_BYTES + 8 * level,
                        succ.to_bytes(8, "little"),
                    )
                )
                segments.append(
                    (
                        pred + NODE_FIXED_BYTES + 8 * level,
                        ctx.operand.to_bytes(8, "little"),
                    )
                )
            return self._commit(ctx, MUT_INSERTED, segments)
        # DELETE: fetch the victim's forward pointers, then splice.
        if not cand:
            return self._miss(ctx)
        height = min(v["cand_height"] or 1, ctx.header.aux)
        v["cand_height"] = height
        return StepOutcome(
            "WSPLICE",
            MemRead(cand + NODE_FIXED_BYTES, 8 * height, "cnext"),
        )

    def _splice_delete(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        cand = v["cand"]
        cnext = ctx.scratch["cnext"]
        segments: List[Tuple[int, bytes]] = []
        for level in range(v["cand_height"]):
            pred = v[f"pred_{level}"]
            if v[f"succ_{level}"] != cand:
                continue  # the victim is absent from this level
            segments.append(
                (
                    pred + NODE_FIXED_BYTES + 8 * level,
                    cnext[level * 8 : level * 8 + 8],
                )
            )
        return self._commit(ctx, MUT_DELETED, segments)


# --------------------------------------------------------------------- #
# B+-tree
# --------------------------------------------------------------------- #


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

    def pre_lock_check(self, ctx: QueryContext) -> Optional[StepOutcome]:
        if ctx.op == OP_INSERT and not ctx.operand:
            return StepOutcome(
                STATE_EXCEPTION,
                Fault(
                    code=int(AbortCode.NULL_POINTER),
                    detail="INSERT without a staged record",
                ),
            )
        return None

    def after_lock(self, ctx: QueryContext) -> StepOutcome:
        if ctx.op == OP_INSERT:
            return StepOutcome("STAGED", MemRead(ctx.operand, 8, "staged"))
        return self._descend_root(ctx)

    def _descend_root(self, ctx: QueryContext) -> StepOutcome:
        root = ctx.header.root_ptr
        if not root:
            return self._release_abort(
                ctx, AbortCode.NULL_POINTER, "B+-tree has no root"
            )
        ctx.vars["node"] = root
        return StepOutcome(
            "WFETCH_NODE", MemRead(root, _BTREE_HEADER, "node")
        )

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.state == "STAGED":
            return self._descend_root(ctx)
        if ctx.state == "WFETCH_NODE":
            v["flags"] = ctx.scratch_u64("node", 0)
            v["count"] = ctx.scratch_u64("node", 8)
            v["keys_ptr"] = ctx.scratch_u64("node", 24)
            v["slots_ptr"] = ctx.scratch_u64("node", 32)
            v["index"] = 0
            if v["flags"] & _LEAF_FLAG:
                return self._leaf_step(ctx)
            return self._separator_step(ctx)
        if ctx.state == "WSEP_CHECK":
            if ctx.results["cmp"] > 0:  # separator > key: take this child
                return self._read_child(ctx, v["index"])
            v["index"] += 1
            return self._separator_step(ctx)
        if ctx.state == "WLEAF_STAGE":
            return self._leaf_step(ctx)
        if ctx.state == "WLEAF_CHECK":
            cmp_result = ctx.results["cmp"]
            if cmp_result == 0:
                return self._leaf_found(ctx)
            if cmp_result > 0:  # sorted leaf: stored key already past ours
                return self._leaf_absent(ctx)
            v["index"] += 1
            return self._leaf_step(ctx)
        if ctx.state == "WREAD_CHILD":
            child = ctx.scratch_u64("child")
            if not child:
                return self._release_abort(
                    ctx, AbortCode.NULL_POINTER, "null child pointer"
                )
            v["node"] = child
            return StepOutcome(
                "WFETCH_NODE", MemRead(child, _BTREE_HEADER, "node")
            )
        raise AssertionError(f"unreachable state {ctx.state}")

    # ---------------- walk helpers ---------------- #

    def _separator_step(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if v["index"] >= v["count"]:
            return self._read_child(ctx, v["count"])
        sep_addr = v["keys_ptr"] + v["index"] * ctx.header.key_length
        return StepOutcome(
            "WSEP_CHECK",
            Compare(sep_addr, ctx.key_addr, ctx.header.key_length, "cmp"),
        )

    def _read_child(self, ctx: QueryContext, index: int) -> StepOutcome:
        slot = ctx.vars["slots_ptr"] + 8 * index
        return StepOutcome("WREAD_CHILD", MemRead(slot, 8, "child"))

    def _leaf_step(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if v["index"] >= v["count"]:
            return self._leaf_absent(ctx)
        if ctx.op == OP_DELETE and "ltail" not in ctx.scratch:
            # Stage the whole leaf payload once: a compacting delete
            # rewrites the key/value tails, so the CFA needs their bytes.
            klen = ctx.header.key_length
            return StepOutcome(
                "WLEAF_STAGE",
                MemRead(
                    v["keys_ptr"],
                    v["count"] * klen,
                    "ltail",
                    also=((v["slots_ptr"], v["count"] * 8, "lslots"),),
                ),
            )
        key_addr = v["keys_ptr"] + v["index"] * ctx.header.key_length
        return StepOutcome(
            "WLEAF_CHECK",
            Compare(key_addr, ctx.key_addr, ctx.header.key_length, "cmp"),
        )

    # ---------------- terminals ---------------- #

    def _leaf_found(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        slot = v["slots_ptr"] + 8 * v["index"]
        if ctx.op == OP_UPDATE:
            return self._commit(
                ctx,
                MUT_UPDATED,
                [(slot, ctx.operand.to_bytes(8, "little"))],
            )
        if ctx.op == OP_INSERT:
            staged_value = ctx.scratch["staged"][:8]
            return self._commit(ctx, MUT_UPDATED, [(slot, staged_value)])
        # DELETE: shift the staged key/value tails left over the victim.
        count, i = v["count"], v["index"]
        if count <= 1:
            return self._release_abort(
                ctx,
                AbortCode.VERSION_CONFLICT,
                "leaf would empty; delete handled in software",
            )
        klen = ctx.header.key_length
        keys = ctx.scratch["ltail"]
        slots = ctx.scratch["lslots"]
        segments = [
            (v["keys_ptr"] + i * klen, keys[(i + 1) * klen : count * klen]),
            (v["slots_ptr"] + i * 8, slots[(i + 1) * 8 : count * 8]),
            (v["node"] + 8, (count - 1).to_bytes(8, "little")),
        ]
        new_size = max(0, ctx.header.size - 1)
        return self._commit(ctx, MUT_DELETED, segments, new_size=new_size)

    def _leaf_absent(self, ctx: QueryContext) -> StepOutcome:
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
        self.system = system
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


def register_mutation_firmware(image: FirmwareImage, *, replace: bool = False) -> None:
    """Load the write-path programs into ``image``'s mutation table."""
    for program in mutation_programs():
        image.register(program, replace=replace, mutation=True)
