"""Interpreted CFA oracles: every built-in program in its reference form.

The accelerator's firmware (``repro.core.programs``, ``programs_ext`` and
``mutations``) is written once, in the register-and-tuple form the CEE
executes.  This module keeps the earlier interpreted rendering of the same
eight CFAs — string states, dict scratch and results, frozen-dataclass
micro-ops — unchanged except for the imports, as test oracles:

* ``tests/test_specialize_properties.py`` runs both forms step for step
  on randomized structures and compares the micro-op streams, fault codes
  and terminal values;
* :func:`load_oracles` swaps every built-in program registered on any
  :class:`~repro.core.cfa.FirmwareImage` for an :class:`OracleProgram`
  that drives the interpreted program through the accelerator's one
  driver, so whole runs (the golden-stats grid, the chaos and recovery
  drills) can be replayed on the oracles and compared byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core import mutations as firmware_mutations
from repro.core import programs as firmware_programs
from repro.core import programs_ext as firmware_programs_ext
from repro.core.abort import AbortCode
from repro.core.cfa import (
    K_ALU,
    K_CAS,
    K_COMPARE,
    K_DELAY,
    K_DONE,
    K_FAULT,
    K_HASH,
    K_MEMREAD,
    K_MEMREAD2,
    K_MEMREAD_OPT,
    K_WAIT,
    K_WRITE,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    RESULT_FAULT,
    STATE_DONE,
    STATE_EXCEPTION,
    STATE_START,
    WRITE_OPS,
    CfaProgram,
    FirmwareImage,
)
from repro.core.header import (
    FLAG_READ_ONLY,
    FLAG_RESIZING,
    DataStructureHeader,
    StructureType,
    VERSION_OFFSET,
)
from repro.core.mutations import (
    BACKOFF_BASE_CYCLES,
    MAX_LOCK_ATTEMPTS,
    MUT_DELETED,
    MUT_INSERTED,
    MUT_UPDATED,
)
from repro.datastructs.hashing import secondary_hash, signature_of

# --------------------------------------------------------------------- #
# Micro-operation vocabulary and the interpreted per-query context
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class MemRead:
    """Fetch ``length`` bytes at ``vaddr`` into scratch slot ``tag``.

    Multiple segments may be fetched concurrently (the paper's CFA issues
    the key and starting-node reads in parallel, Fig. 3 step 1): pass extra
    ``(vaddr, length, tag)`` tuples in ``also``.

    ``optional_after`` marks speculative tail bytes: fetches are cacheline
    granular, so a program may ask for a whole line knowing only the first
    N bytes are architecturally required; the engine truncates the fetch at
    an unmapped page instead of faulting, provided at least
    ``optional_after`` bytes were read.
    """

    vaddr: int
    length: int
    tag: str
    also: Tuple[Tuple[int, int, str], ...] = ()
    optional_after: Optional[int] = None

    def segments(self) -> Iterable[Tuple[int, int, str]]:
        yield self.vaddr, self.length, self.tag
        yield from self.also


@dataclass(frozen=True)
class Compare:
    """Compare ``length`` bytes at ``mem_vaddr`` against ``key_vaddr``.

    Executed by a DPU comparator.  In distributed schemes the comparator
    lives in the data's home CHA and reads straight from the LLC slice; in
    device schemes the lines travel to the device's local comparators.
    The three-way outcome (<, =, >) lands in ``ctx.results[tag]``.
    """

    mem_vaddr: int
    key_vaddr: int
    length: int
    tag: str


@dataclass(frozen=True)
class HashOp:
    """Hash ``length`` bytes already staged in scratch slot ``key_tag``."""

    key_tag: str
    tag: str
    kind: str = "fnv1a"


@dataclass(frozen=True)
class AluOp:
    """Arithmetic on intermediate data (address math, masks)."""

    cycles: int = 1


@dataclass(frozen=True)
class MemWrite:
    """Store ``data`` at ``vaddr`` through the DPU's store path.

    The write-path counterpart of :class:`MemRead`: mutation CFAs publish
    slot contents, new-node links and header fields with it.  Writes are
    only architecturally visible once the engine executes the action, so a
    program that faults before its MemWrite leaves memory untouched.
    """

    vaddr: int
    data: bytes
    tag: str = "write"
    also: Tuple[Tuple[int, bytes], ...] = ()

    def segments(self) -> Iterable[Tuple[int, bytes]]:
        yield self.vaddr, self.data
        yield from self.also


@dataclass(frozen=True)
class HeaderCas:
    """Compare-and-swap a u64 at ``vaddr``: the seqlock acquire primitive.

    The engine atomically (the CEE serialises micro-ops) compares the word
    against ``expect`` and, on match, stores ``new``.  The outcome (1 won,
    0 lost) lands in ``ctx.results[tag]`` so the program can back off.
    """

    vaddr: int
    expect: int
    new: int
    tag: str = "cas"


@dataclass(frozen=True)
class Delay:
    """Stall this query ``cycles`` without occupying a DPU unit.

    Deterministic writer backoff: a mutation program that lost a header CAS
    waits a fixed, attempt-scaled number of cycles before retrying, instead
    of spinning on the ALU pool.
    """

    cycles: int = 1


@dataclass(frozen=True)
class Done:
    """Terminal: query finished with ``value`` (None = not found)."""

    value: Optional[int]


@dataclass(frozen=True)
class Fault:
    """Terminal: architectural exception with a result code."""

    code: int = RESULT_FAULT
    detail: str = ""


MicroAction = Union[
    MemRead, Compare, HashOp, AluOp, MemWrite, HeaderCas, Delay, Done, Fault
]


@dataclass
class StepOutcome:
    """What one CEE step did: an optional micro-op and the next state."""

    next_state: str
    action: Optional[MicroAction] = None


# --------------------------------------------------------------------- #
# Per-query context (backs one QST entry)
# --------------------------------------------------------------------- #


@dataclass
class QueryContext:
    """All mutable per-query state a CFA program may touch.

    ``scratch`` models the QST entry's 64B intermediate-data field plus the
    architectural registers a microcoded engine would keep; programs store
    fetched bytes and small integers here.  ``results`` holds comparator
    and hash-unit outputs keyed by tag.
    """

    header_addr: int
    key_addr: int
    state: str = STATE_START
    header: Optional[DataStructureHeader] = None
    key: bytes = b""
    scratch: Dict[str, bytes] = field(default_factory=dict)
    results: Dict[str, int] = field(default_factory=dict)
    vars: Dict[str, int] = field(default_factory=dict)
    #: Operation code (OP_LOOKUP for the read path; WRITE_OPS dispatch to
    #: the mutation program table) and its operand: for UPDATE the new
    #: value, for INSERT the address of the core-staged record to publish.
    op: int = OP_LOOKUP
    operand: int = 0
    #: Filled on termination.
    value: Optional[int] = None
    fault_code: int = 0
    fault_detail: str = ""
    #: scratch_u64 decode cache, keyed by tag.  Each value pairs the bytes
    #: object it was decoded from with the decoded aligned words; programs
    #: overwrite scratch tags by assignment (never in place), so an ``is``
    #: check on the bytes object is a complete staleness test.
    _u64c: Dict[str, Tuple[bytes, Tuple[int, ...]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def scratch_u64(self, tag: str, offset: int = 0) -> int:
        data = self.scratch[tag]
        cached = self._u64c.get(tag)
        if cached is None or cached[0] is not data:
            words = struct.unpack_from(f"<{len(data) // 8}Q", data)
            self._u64c[tag] = cached = (data, words)
        if offset & 7 == 0 and offset + 8 <= len(data):
            return cached[1][offset >> 3]
        return int.from_bytes(data[offset : offset + 8], "little")


# --------------------------------------------------------------------- #
# Lookup programs
# --------------------------------------------------------------------- #

_LIST_NODE = 24
_TREE_NODE = 32
_TRIE_NODE = 32
_EDGE = 16
_SLOT = 16


def _u64(data: bytes, offset: int = 0) -> int:
    return int.from_bytes(data[offset : offset + 8], "little")


class _StandardProgram(CfaProgram):
    """Shared prelude: fetch the header, parse it, fetch the key.

    Subclasses implement :meth:`dispatch` for their type-specific states and
    may override :meth:`after_parse` to choose the first specific state.
    """

    PRELUDE_STATES = (STATE_START, "PARSE", "READ_KEY", STATE_DONE, STATE_EXCEPTION)

    def step(self, ctx: QueryContext) -> StepOutcome:
        if ctx.state == STATE_START:
            return StepOutcome(
                "PARSE", MemRead(ctx.header_addr, 64, "header")
            )
        if ctx.state == "PARSE":
            raw = ctx.scratch["header"]
            header = DataStructureHeader.decode(raw)
            code = self.validate_header(header, raw=raw)
            if code is not AbortCode.NONE:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(code=int(code), detail=f"header rejected: {code.name}"),
                )
            ctx.header = header
            return StepOutcome(
                "READ_KEY",
                MemRead(ctx.key_addr, self._key_fetch_length(ctx), "key"),
            )
        if ctx.state == "READ_KEY":
            ctx.key = ctx.scratch["key"][: self._key_fetch_length(ctx)]
            return self.after_parse(ctx)
        return self.dispatch(ctx)

    def _key_fetch_length(self, ctx: QueryContext) -> int:
        return ctx.header.key_length if ctx.header else 64

    def after_parse(self, ctx: QueryContext) -> StepOutcome:
        raise NotImplementedError

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        raise NotImplementedError


class LinkedListCfa(_StandardProgram):
    """Fig. 3's CFA: fetch node, compare key, follow next until match/NULL."""

    TYPE_CODE = int(StructureType.LINKED_LIST)
    NAME = "linked-list"
    STATES = _StandardProgram.PRELUDE_STATES + ("FETCH_NODE", "COMPARE", "CHECK")
    SUBTYPE_MAX = 0

    def after_parse(self, ctx: QueryContext) -> StepOutcome:
        root = ctx.header.root_ptr
        if not root:
            return StepOutcome(STATE_DONE, Done(None))
        ctx.vars["node"] = root
        return StepOutcome("COMPARE", MemRead(root, _LIST_NODE, "node"))

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        if ctx.state == "COMPARE":
            key_ptr = ctx.scratch_u64("node", 0)
            if not key_ptr:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(code=int(AbortCode.NULL_POINTER), detail="null key pointer"),
                )
            return StepOutcome(
                "CHECK",
                Compare(key_ptr, ctx.key_addr, ctx.header.key_length, "cmp"),
            )
        if ctx.state == "CHECK":
            if ctx.results["cmp"] == 0:
                return StepOutcome(STATE_DONE, Done(ctx.scratch_u64("node", 8)))
            nxt = ctx.scratch_u64("node", 16)
            if not nxt:
                return StepOutcome(STATE_DONE, Done(None))
            ctx.vars["node"] = nxt
            return StepOutcome("COMPARE", MemRead(nxt, _LIST_NODE, "node"))
        raise AssertionError(f"unreachable state {ctx.state}")


class HashTableCfa(_StandardProgram):
    """Cuckoo hash lookup: hash, scan candidate buckets, compare keys."""

    TYPE_CODE = int(StructureType.HASH_TABLE)
    NAME = "hash-table"
    STATES = _StandardProgram.PRELUDE_STATES + (
        "READ_DESC",
        "HASH",
        "BUCKET_ADDR",
        "READ_LINE",
        "SCAN",
        "COMPARE",
        "CHECK",
        "READ_VALUE",
    )
    #: subtype = entries per bucket; a zero bucket width makes no progress.
    SUBTYPE_MIN = 1
    SUBTYPE_MAX = 128
    REQUIRES_SIZE = True

    def after_parse(self, ctx: QueryContext) -> StepOutcome:
        if ctx.header.flags & FLAG_RESIZING:
            # An online resize is in flight: fetch the out-of-line resize
            # descriptor {new_root, new_buckets, watermark} so candidate
            # buckets can route old-vs-new (docs/mutations.md).
            if not ctx.header.aux:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(
                        code=int(AbortCode.BAD_AUX),
                        detail="RESIZING header without a descriptor pointer",
                    ),
                )
            return StepOutcome("READ_DESC", MemRead(ctx.header.aux, 24, "desc"))
        return StepOutcome("HASH", HashOp("key", "hash"))

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.state == "READ_DESC":
            desc = ctx.scratch["desc"]
            new_root, new_buckets = _u64(desc, 0), _u64(desc, 8)
            watermark = _u64(desc, 16)
            if not new_root or new_buckets != 2 * ctx.header.size:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(
                        code=int(AbortCode.BAD_AUX),
                        detail="malformed resize descriptor",
                    ),
                )
            v["new_root"] = new_root
            v["new_buckets"] = new_buckets
            v["watermark"] = min(watermark, ctx.header.size)
            return StepOutcome("HASH", HashOp("key", "hash"))
        if ctx.state == "HASH":
            # The hash unit produced the primary hash; derive the signature
            # and both candidate buckets with one ALU transition.
            h1 = ctx.results["hash"]
            h2 = secondary_hash(ctx.key)
            num_buckets = ctx.header.size
            sig = signature_of(ctx.key) or 1
            v["sig"] = sig
            root = ctx.header.root_ptr
            if "new_root" in v:
                # Route per candidate: old buckets below the migration
                # watermark have moved to the doubled table, where the same
                # hash indexes bucket (h % 2N) = b or b + N.
                for slot, h in (("b0", h1), ("b1", h2)):
                    old_bucket = h % num_buckets
                    if old_bucket < v["watermark"]:
                        v[slot] = h % v["new_buckets"]
                        v[slot + "_root"] = v["new_root"]
                    else:
                        v[slot] = old_bucket
                        v[slot + "_root"] = root
            else:
                v["b0"] = h1 % num_buckets
                v["b1"] = h2 % num_buckets
                v["b0_root"] = v["b1_root"] = root
            v["which"] = 0
            v["line"] = 0
            v["pending"] = 0  # packed slot cursor within the loaded line
            return StepOutcome("BUCKET_ADDR", AluOp())
        if ctx.state == "BUCKET_ADDR":
            return self._read_line(ctx)
        if ctx.state == "SCAN":
            return self._scan_line(ctx)
        if ctx.state == "CHECK":
            if ctx.results["cmp"] == 0:
                kv = v["kv"]
                return StepOutcome("READ_VALUE", MemRead(kv, 8, "value"))
            return self._scan_line(ctx)  # keep scanning after a sig collision
        if ctx.state == "READ_VALUE":
            return StepOutcome(STATE_DONE, Done(ctx.scratch_u64("value")))
        raise AssertionError(f"unreachable state {ctx.state}")

    # ---------------- helpers ---------------- #

    def _bucket_bytes(self, ctx: QueryContext) -> int:
        return ctx.header.subtype * _SLOT

    def _read_line(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        which = "b0" if v["which"] == 0 else "b1"
        bucket = v[which]
        bucket_addr = v[which + "_root"] + bucket * self._bucket_bytes(ctx)
        offset = v["line"] * 64
        remaining = self._bucket_bytes(ctx) - offset
        if remaining <= 0:
            return self._next_bucket(ctx)
        length = min(64, remaining)
        v["slot_in_line"] = 0
        v["line_base"] = bucket_addr + offset
        return StepOutcome("SCAN", MemRead(bucket_addr + offset, length, "line"))

    def _scan_line(self, ctx: QueryContext) -> StepOutcome:
        """Signature pre-filter over the staged line (local DPU compare)."""
        v = ctx.vars
        line = ctx.scratch["line"]
        slots_in_line = len(line) // _SLOT
        slot = v["slot_in_line"]
        while slot < slots_in_line:
            sig = _u64(line, slot * _SLOT)
            kv = _u64(line, slot * _SLOT + 8)
            slot += 1
            if sig == v["sig"] and kv:
                v["slot_in_line"] = slot
                v["kv"] = kv
                return StepOutcome(
                    "CHECK",
                    Compare(kv + 8, ctx.key_addr, ctx.header.key_length, "cmp"),
                )
        v["slot_in_line"] = slot
        v["line"] += 1
        return self._advance_line(ctx)

    def _advance_line(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if v["line"] * 64 >= self._bucket_bytes(ctx):
            return self._next_bucket(ctx)
        return self._read_line(ctx)

    def _next_bucket(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if v["which"] == 0:
            v["which"] = 1
            v["line"] = 0
            return self._read_line(ctx)
        return StepOutcome(STATE_DONE, Done(None))


class SkipListCfa(_StandardProgram):
    """Skip-list seek: descend levels, advancing while next.key < key.

    Node fetches are cacheline-granular, so the header *and* the first five
    forward pointers of a node arrive together; the CFA serves level
    pointers from the staged line and only issues a fresh memory micro-op
    when the wanted pointer lies beyond it (tall towers).
    """

    TYPE_CODE = int(StructureType.SKIP_LIST)
    NAME = "skip-list"
    STATES = _StandardProgram.PRELUDE_STATES + (
        "NEXT_PTR",
        "CHECK_PTR",
        "FETCH_NEXT",
        "CHECK_CMP",
    )

    #: Bytes of a node staged per fetch (one cacheline).
    NODE_FETCH = 64
    SUBTYPE_MAX = 0
    #: Architectural bound on the tower height encoded in the aux field.
    MAX_LEVELS = 64

    def validate_header(self, header, raw: bytes = b"") -> AbortCode:
        code = super().validate_header(header, raw=raw)
        if code is not AbortCode.NONE:
            return code
        if not 1 <= header.aux <= self.MAX_LEVELS:
            return AbortCode.BAD_AUX
        return AbortCode.NONE

    def after_parse(self, ctx: QueryContext) -> StepOutcome:
        ctx.vars["node"] = ctx.header.root_ptr
        ctx.vars["level"] = ctx.header.aux - 1  # aux = max_level
        ctx.vars["staged"] = 0  # node address currently in scratch
        if not ctx.header.root_ptr:
            return StepOutcome(STATE_DONE, Done(None))
        return self._read_ptr(ctx)

    def _read_ptr(self, ctx: QueryContext) -> StepOutcome:
        """Obtain next[level] of the current node, reusing the staged line."""
        v = ctx.vars
        node, level = v["node"], v["level"]
        offset = 24 + 8 * level
        if v["staged"] == node and offset + 8 <= len(ctx.scratch.get("node", b"")):
            ctx.scratch["ptr"] = ctx.scratch["node"][offset : offset + 8]
            return StepOutcome("CHECK_PTR", AluOp())
        return StepOutcome("CHECK_PTR", MemRead(node + offset, 8, "ptr"))

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.state == "CHECK_PTR":
            nxt = ctx.scratch_u64("ptr")
            if not nxt:
                if v["level"] == 0:
                    return StepOutcome(STATE_DONE, Done(None))
                v["level"] -= 1
                return self._read_ptr(ctx)
            v["next"] = nxt
            return StepOutcome(
                "FETCH_NEXT",
                MemRead(nxt, self.NODE_FETCH, "next", optional_after=_LIST_NODE),
            )
        if ctx.state == "FETCH_NEXT":
            key_ptr = ctx.scratch_u64("next", 0)
            if not key_ptr:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(code=int(AbortCode.NULL_POINTER), detail="null key pointer"),
                )
            return StepOutcome(
                "CHECK_CMP",
                Compare(key_ptr, ctx.key_addr, ctx.header.key_length, "cmp"),
            )
        if ctx.state == "CHECK_CMP":
            cmp_result = ctx.results["cmp"]
            if cmp_result < 0:  # next.key < key: advance along this level
                v["node"] = v["next"]
                v["staged"] = v["next"]
                ctx.scratch["node"] = ctx.scratch["next"]
                return self._read_ptr(ctx)
            if v["level"] > 0:
                v["level"] -= 1
                return self._read_ptr(ctx)
            if cmp_result == 0:
                return StepOutcome(STATE_DONE, Done(ctx.scratch_u64("next", 8)))
            return StepOutcome(STATE_DONE, Done(None))
        raise AssertionError(f"unreachable state {ctx.state}")


class BinaryTreeCfa(_StandardProgram):
    """BST descent with three-way compares choosing the child pointer."""

    TYPE_CODE = int(StructureType.BINARY_TREE)
    NAME = "binary-tree"
    STATES = _StandardProgram.PRELUDE_STATES + ("FETCH_NODE", "COMPARE", "CHECK")
    SUBTYPE_MAX = 0

    def after_parse(self, ctx: QueryContext) -> StepOutcome:
        root = ctx.header.root_ptr
        if not root:
            return StepOutcome(STATE_DONE, Done(None))
        ctx.vars["node"] = root
        return StepOutcome("COMPARE", MemRead(root, _TREE_NODE, "node"))

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        if ctx.state == "COMPARE":
            key_ptr = ctx.scratch_u64("node", 0)
            if not key_ptr:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(code=int(AbortCode.NULL_POINTER), detail="null key pointer"),
                )
            return StepOutcome(
                "CHECK",
                Compare(key_ptr, ctx.key_addr, ctx.header.key_length, "cmp"),
            )
        if ctx.state == "CHECK":
            cmp_result = ctx.results["cmp"]
            if cmp_result == 0:
                return StepOutcome(STATE_DONE, Done(ctx.scratch_u64("node", 8)))
            # Compare() is (stored <=> key): stored < key means go right.
            child_offset = 16 if cmp_result > 0 else 24
            child = ctx.scratch_u64("node", child_offset)
            if not child:
                return StepOutcome(STATE_DONE, Done(None))
            ctx.vars["node"] = child
            return StepOutcome("COMPARE", MemRead(child, _TREE_NODE, "node"))
        raise AssertionError(f"unreachable state {ctx.state}")


class TrieCfa(_StandardProgram):
    """Byte-trie walk with an index-table search state per node.

    subtype 0 — exact-match lookup of the whole key.
    subtype 1 — Aho-Corasick scan: the "key" is an input text; the query
    returns the number of keyword matches (the Snort use case).
    subtype 2 — longest-prefix match: the walk remembers the deepest node
    with an output and returns it when the walk ends (the routing-table
    use case, Sec. II-A).
    """

    TYPE_CODE = int(StructureType.TRIE)
    NAME = "trie"
    STATES = _StandardProgram.PRELUDE_STATES + (
        "FETCH_NODE",
        "READ_EDGE_LINE",
        "SEARCH_TABLE",
        "FOLLOW_FAIL",
        "ADVANCE",
    )
    #: subtypes 0 (exact), 1 (Aho-Corasick scan), 2 (longest-prefix match).
    SUBTYPE_MAX = 2

    #: Edges fetched per memory micro-op (cacheline / edge size).
    EDGES_PER_LINE = 64 // _EDGE

    def _key_fetch_length(self, ctx: QueryContext) -> int:
        # Long inputs (AC text) stream in by the cacheline.
        return min(ctx.header.key_length, 64) if ctx.header else 64

    def after_parse(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        v["node"] = ctx.header.root_ptr
        v["root"] = ctx.header.root_ptr
        v["pos"] = 0
        v["matches"] = 0
        v["key_chunk"] = 0
        v["ac"] = ctx.header.subtype == 1
        v["lpm"] = ctx.header.subtype == 2
        v["best"] = 0
        if not ctx.header.root_ptr:
            return StepOutcome(STATE_DONE, Done(None))
        return StepOutcome("FETCH_NODE", MemRead(v["node"], _TRIE_NODE, "node"))

    # ---------------- helpers ---------------- #

    def _current_byte(self, ctx: QueryContext) -> Optional[int]:
        pos = ctx.vars["pos"]
        if pos >= ctx.header.key_length:
            return None
        chunk, offset = divmod(pos, 64)
        if chunk != ctx.vars["key_chunk"]:
            return None  # chunk must be streamed in first
        return ctx.key[offset]

    def _stream_key_chunk(self, ctx: QueryContext, next_state: str) -> StepOutcome:
        chunk = ctx.vars["pos"] // 64
        ctx.vars["key_chunk"] = chunk
        length = min(64, ctx.header.key_length - chunk * 64)
        return StepOutcome(next_state, MemRead(ctx.key_addr + chunk * 64, length, "key"))

    def _finish(self, ctx: QueryContext) -> StepOutcome:
        if ctx.vars["ac"]:
            return StepOutcome(STATE_DONE, Done(ctx.vars["matches"]))
        output = ctx.scratch_u64("node", 8)
        if ctx.vars["lpm"]:
            best = output or ctx.vars["best"]
            return StepOutcome(STATE_DONE, Done(best - 1 if best else None))
        return StepOutcome(STATE_DONE, Done(output - 1 if output else None))

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.state == "FETCH_NODE":
            # Node staged; in AC mode count an output hit, then continue.
            if v["ac"] and v.pop("count_output", False):
                output = ctx.scratch_u64("node", 8)
                if output:
                    v["matches"] += 1
            if v["lpm"]:
                output = ctx.scratch_u64("node", 8)
                if output:
                    v["best"] = output  # deepest prefix seen so far
            if v["pos"] >= ctx.header.key_length:
                return self._finish(ctx)
            if v["pos"] // 64 != v["key_chunk"]:
                return self._stream_key_chunk(ctx, "FETCH_NODE")
            ctx.key = ctx.scratch["key"]
            v["edge_line"] = 0
            return self._read_edge_line(ctx)
        if ctx.state == "SEARCH_TABLE":
            return self._search_table(ctx)
        if ctx.state == "FOLLOW_FAIL":
            # Fail-node staged into "node"; retry the edge search there.
            v["node"] = v["fail_target"]
            v["edge_line"] = 0
            return self._read_edge_line(ctx)
        if ctx.state == "ADVANCE":
            # Child node staged into "node".
            v["node"] = v["child"]
            v["pos"] += 1
            if v["ac"]:
                v["count_output"] = True
            return self.dispatch_fetch_node(ctx)
        raise AssertionError(f"unreachable state {ctx.state}")

    def dispatch_fetch_node(self, ctx: QueryContext) -> StepOutcome:
        ctx.state = "FETCH_NODE"
        return self.dispatch_already_fetched(ctx)

    def dispatch_already_fetched(self, ctx: QueryContext) -> StepOutcome:
        # The ADVANCE MemRead already staged the node; process it now.
        return self.dispatch(ctx)

    def _read_edge_line(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        count = ctx.scratch_u64("node", 16)
        edges_ptr = ctx.scratch_u64("node", 24)
        start = v["edge_line"] * self.EDGES_PER_LINE
        if start >= count or not edges_ptr:
            return self._edge_miss(ctx)
        length = min(self.EDGES_PER_LINE, count - start) * _EDGE
        return StepOutcome(
            "SEARCH_TABLE", MemRead(edges_ptr + start * _EDGE, length, "edges")
        )

    def _search_table(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        byte = self._current_byte(ctx)
        edges = ctx.scratch["edges"]
        for i in range(len(edges) // _EDGE):
            stored = _u64(edges, i * _EDGE)
            if stored == byte:
                child = _u64(edges, i * _EDGE + 8)
                v["child"] = child
                return StepOutcome("ADVANCE", MemRead(child, _TRIE_NODE, "node"))
            if stored > byte:
                return self._edge_miss(ctx)
        v["edge_line"] += 1
        return self._read_edge_line(ctx)

    def _edge_miss(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if v["lpm"]:
            best = v["best"]
            return StepOutcome(STATE_DONE, Done(best - 1 if best else None))
        if not v["ac"]:
            return StepOutcome(STATE_DONE, Done(None))
        if v["node"] == v["root"]:
            v["pos"] += 1
            if v["pos"] >= ctx.header.key_length:
                return self._finish(ctx)
            v["edge_line"] = 0
            if v["pos"] // 64 != v["key_chunk"]:
                return self._stream_key_chunk(ctx, "FETCH_NODE")
            return self._read_edge_line(ctx)
        fail = ctx.scratch_u64("node", 0)
        v["fail_target"] = fail
        return StepOutcome("FOLLOW_FAIL", MemRead(fail, _TRIE_NODE, "node"))


class HashOfListsCfa(_StandardProgram):
    """Combined-structure firmware (Sec. III-A): hash, then chain walk.

    Not part of the default image — tests/examples register it at runtime to
    exercise the firmware-update path.
    """

    TYPE_CODE = int(StructureType.HASH_OF_LISTS)
    NAME = "hash-of-lists"
    STATES = _StandardProgram.PRELUDE_STATES + (
        "HASH",
        "READ_SLOT",
        "COMPARE",
        "CHECK",
    )
    SUBTYPE_MAX = 0
    REQUIRES_SIZE = True

    def after_parse(self, ctx: QueryContext) -> StepOutcome:
        return StepOutcome("HASH", HashOp("key", "hash"))

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.state == "HASH":
            bucket = ctx.results["hash"] % ctx.header.size
            slot_addr = ctx.header.root_ptr + bucket * 8
            return StepOutcome("READ_SLOT", MemRead(slot_addr, 8, "slot"))
        if ctx.state == "READ_SLOT":
            node = ctx.scratch_u64("slot")
            if not node:
                return StepOutcome(STATE_DONE, Done(None))
            v["node"] = node
            return StepOutcome("COMPARE", MemRead(node, _LIST_NODE, "node"))
        if ctx.state == "COMPARE":
            key_ptr = ctx.scratch_u64("node", 0)
            if not key_ptr:
                return StepOutcome(
                    STATE_EXCEPTION,
                    Fault(code=int(AbortCode.NULL_POINTER), detail="null key pointer"),
                )
            return StepOutcome(
                "CHECK",
                Compare(key_ptr, ctx.key_addr, ctx.header.key_length, "cmp"),
            )
        if ctx.state == "CHECK":
            if ctx.results["cmp"] == 0:
                return StepOutcome(STATE_DONE, Done(ctx.scratch_u64("node", 8)))
            nxt = ctx.scratch_u64("node", 16)
            if not nxt:
                return StepOutcome(STATE_DONE, Done(None))
            v["node"] = nxt
            return StepOutcome("COMPARE", MemRead(nxt, _LIST_NODE, "node"))
        raise AssertionError(f"unreachable state {ctx.state}")


_BTREE_HEADER = 40
_LEAF_FLAG = 0x1


class BPlusTreeCfa(_StandardProgram):
    """B+-tree index lookup: descend separators, scan the leaf.

    Per level: fetch the node header, then compare separators one at a
    time (the comparator provides ordered results, so the walk follows the
    first separator greater than the key).  At the leaf, compare stored
    keys for an exact match and read the aligned value slot.
    """

    TYPE_CODE = int(StructureType.BPLUS_TREE)
    NAME = "bplus-tree"
    #: subtype = fanout; a tree needs at least two children per node.
    SUBTYPE_MIN = 2
    SUBTYPE_MAX = 64
    STATES = _StandardProgram.PRELUDE_STATES + (
        "FETCH_NODE",
        "SEPARATOR",
        "SEPARATOR_CHECK",
        "LEAF_KEY",
        "LEAF_CHECK",
        "READ_CHILD",
        "READ_VALUE",
    )

    def after_parse(self, ctx: QueryContext) -> StepOutcome:
        root = ctx.header.root_ptr
        if not root:
            return StepOutcome(STATE_DONE, Done(None))
        ctx.vars["node"] = root
        return StepOutcome("FETCH_NODE", MemRead(root, _BTREE_HEADER, "node"))

    def dispatch(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if ctx.state == "FETCH_NODE":
            v["flags"] = ctx.scratch_u64("node", 0)
            v["count"] = ctx.scratch_u64("node", 8)
            v["keys_ptr"] = ctx.scratch_u64("node", 24)
            v["slots_ptr"] = ctx.scratch_u64("node", 32)
            v["index"] = 0
            if v["flags"] & _LEAF_FLAG:
                return self._leaf_step(ctx)
            return self._separator_step(ctx)

        if ctx.state == "SEPARATOR_CHECK":
            if ctx.results["cmp"] > 0:  # separator > key: take this child
                return self._read_child(ctx, v["index"])
            v["index"] += 1
            return self._separator_step(ctx)

        if ctx.state == "LEAF_CHECK":
            if ctx.results["cmp"] == 0:
                slot = v["slots_ptr"] + 8 * v["index"]
                return StepOutcome("READ_VALUE", MemRead(slot, 8, "value"))
            v["index"] += 1
            return self._leaf_step(ctx)

        if ctx.state == "READ_CHILD":
            child = ctx.scratch_u64("child")
            v["node"] = child
            return StepOutcome("FETCH_NODE", MemRead(child, _BTREE_HEADER, "node"))

        if ctx.state == "READ_VALUE":
            return StepOutcome(STATE_DONE, Done(ctx.scratch_u64("value")))

        raise AssertionError(f"unreachable state {ctx.state}")

    # ---------------- helpers ---------------- #

    def _separator_step(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if v["index"] >= v["count"]:
            return self._read_child(ctx, v["count"])  # rightmost child
        sep_addr = v["keys_ptr"] + v["index"] * ctx.header.key_length
        return StepOutcome(
            "SEPARATOR_CHECK",
            Compare(sep_addr, ctx.key_addr, ctx.header.key_length, "cmp"),
        )

    def _leaf_step(self, ctx: QueryContext) -> StepOutcome:
        v = ctx.vars
        if v["index"] >= v["count"]:
            return StepOutcome(STATE_DONE, Done(None))
        key_addr = v["keys_ptr"] + v["index"] * ctx.header.key_length
        return StepOutcome(
            "LEAF_CHECK",
            Compare(key_addr, ctx.key_addr, ctx.header.key_length, "cmp"),
        )

    def _read_child(self, ctx: QueryContext, index: int) -> StepOutcome:
        slot = ctx.vars["slots_ptr"] + 8 * index
        return StepOutcome("READ_CHILD", MemRead(slot, 8, "child"))


# --------------------------------------------------------------------- #
# Mutation programs
# --------------------------------------------------------------------- #


class HashTableMutationCfa(CfaProgram):
    """Cuckoo hash mutations: in-place update/delete, empty-slot insert.

    The prelude parses the header, reads the key and takes the seqlock;
    :meth:`dispatch` runs the bucket walk.  INSERT's operand is a
    core-staged ``{value, key}`` record whose layout matches the table's kv
    records, so publishing the insert is one 16-byte slot store of
    ``{signature, operand}``.  Inserts that would need cuckoo displacement
    (both candidate buckets full) abort to software, as do all writes while
    an online resize is in flight.  The terminal helpers — :meth:`_commit`,
    :meth:`_miss`, :meth:`_release_abort` — all fold the lock release into
    a single macro store so memory is never observable half-mutated.
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
            if header.flags & FLAG_RESIZING:
                # The migration drain owns placement during a resize; CFA
                # writes fall back to the (resize-aware) software path.
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
            if ctx.op == OP_INSERT:
                return StepOutcome("STAGED", MemRead(ctx.operand, 8, "staged"))
            return StepOutcome("MHASH", HashOp("key", "hash"))
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
    ) -> StepOutcome:
        """Publish the mutation and release the lock in one macro store."""
        parts = [seg for seg in segments if seg[1]]
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
# Running the oracles through the accelerator's one driver
# --------------------------------------------------------------------- #

#: Firmware class -> its interpreted oracle (exact class match: a subclass
#: of a firmware program keeps its own overrides).
REFERENCE_FOR = {
    firmware_programs.LinkedListCfa: LinkedListCfa,
    firmware_programs.HashTableCfa: HashTableCfa,
    firmware_programs.SkipListCfa: SkipListCfa,
    firmware_programs.BinaryTreeCfa: BinaryTreeCfa,
    firmware_programs.TrieCfa: TrieCfa,
    firmware_programs.HashOfListsCfa: HashOfListsCfa,
    firmware_programs_ext.BPlusTreeCfa: BPlusTreeCfa,
    firmware_mutations.HashTableMutationCfa: HashTableMutationCfa,
}

# OracleProgram registers: the interpreted context, two landing slots for
# micro-op outputs, and where the landed outputs belong.
_R_REF, _R_LAND_A, _R_LAND_B, _R_PENDING = 0, 1, 2, 3


class OracleProgram(CfaProgram):
    """Drive an interpreted program through the register-and-tuple protocol.

    Register 0 holds the interpreted :class:`QueryContext`.  Each step
    first files the previous micro-op's outputs (landed in registers 1-2)
    under their scratch or result tags, then runs the interpreted step and
    translates its dataclass micro-op into the equivalent tuple.  The
    driver-visible header and key mirror the interpreted context, so the
    driver's pre-PARSE type-byte peek and the read path's seqlock
    re-validation behave as for the firmware program.
    """

    NREGS = 4

    def __init__(self, reference: CfaProgram) -> None:
        self.reference = reference
        self.TYPE_CODE = reference.TYPE_CODE
        self.NAME = reference.NAME
        self.STATES = reference.STATES

    def validate_header(self, header, raw: bytes = b"") -> AbortCode:
        return self.reference.validate_header(header, raw=raw)

    def step(self, ctx) -> tuple:
        regs = ctx.scratch
        ref = regs[_R_REF]
        if not isinstance(ref, QueryContext):
            ref = regs[_R_REF] = QueryContext(
                header_addr=ctx.header_addr,
                key_addr=ctx.key_addr,
                op=ctx.op,
                operand=ctx.operand,
            )
        else:
            for table, tag, slot in regs[_R_PENDING]:
                getattr(ref, table)[tag] = regs[slot]
        outcome = self.reference.step(ref)
        ref.state = outcome.next_state
        ctx.header = ref.header
        ctx.key = ref.key
        pending = regs[_R_PENDING] = []
        return _to_tuple(outcome.action, ref, regs, pending)


def _to_tuple(action, ref: QueryContext, regs: list, pending: list) -> tuple:
    """The tuple micro-op the driver executes for ``action``."""
    if action is None:
        return (K_WAIT,)
    if isinstance(action, Done):
        return (K_DONE, action.value)
    if isinstance(action, Fault):
        return (K_FAULT, action.code, action.detail)
    if isinstance(action, AluOp):
        return (K_ALU, action.cycles)
    if isinstance(action, Delay):
        return (K_DELAY, action.cycles)
    if isinstance(action, MemWrite):
        return (K_WRITE, tuple(action.segments()), ref.vars.get("commit_version"))
    if isinstance(action, MemRead):
        pending.append(("scratch", action.tag, _R_LAND_A))
        if action.optional_after is not None:
            assert not action.also
            return (
                K_MEMREAD_OPT,
                action.vaddr,
                action.length,
                _R_LAND_A,
                action.optional_after,
            )
        if not action.also:
            return (K_MEMREAD, action.vaddr, action.length, _R_LAND_A)
        ((vaddr, length, tag),) = action.also
        pending.append(("scratch", tag, _R_LAND_B))
        return (
            K_MEMREAD2, action.vaddr, action.length, _R_LAND_A,
            vaddr, length, _R_LAND_B,
        )
    pending.append(("results", action.tag, _R_LAND_A))
    if isinstance(action, Compare):
        assert action.key_vaddr == ref.key_addr, "compares are against the key"
        return (K_COMPARE, action.mem_vaddr, action.length, _R_LAND_A)
    if isinstance(action, HashOp):
        regs[_R_LAND_B] = ref.scratch[action.key_tag]
        return (K_HASH, _R_LAND_B, _R_LAND_A)
    if isinstance(action, HeaderCas):
        return (K_CAS, action.vaddr, action.expect, action.new, _R_LAND_A)
    raise AssertionError(f"unhandled micro-op {action!r}")


def oracle_for(program: CfaProgram) -> CfaProgram:
    """The oracle standing in for ``program`` (itself when it has none)."""
    reference = REFERENCE_FOR.get(type(program))
    return program if reference is None else OracleProgram(reference())


def load_oracles(monkeypatch) -> None:
    """Register the interpreted oracles wherever built-in firmware loads."""
    register = FirmwareImage.register

    def register_oracle(self, program, **kwargs):
        return register(self, oracle_for(program), **kwargs)

    monkeypatch.setattr(FirmwareImage, "register", register_oracle)
