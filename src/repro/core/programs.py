"""Built-in CFA programs: the firmware shipped with QEI.

One program per data-structure type (Sec. III-A): linked list, cuckoo hash
table, skip list, binary tree, trie (with an Aho-Corasick scan subtype), and
— registered at runtime as the firmware-update example — hash-of-lists.

Programs never touch simulated memory directly: they see only bytes the
engine staged into their QST scratch after :class:`~repro.core.cfa.MemRead`
micro-ops, and comparator/hash-unit outputs in ``ctx.results``.  Pointer
arithmetic is charged via :class:`~repro.core.cfa.AluOp` transitions.

Every program in this module has a compiled twin in
:mod:`repro.core.specialize` (matched by *exact* class, so subclasses are
safe — they run their own ``step`` through the prebound tier).  If you
change a program's step semantics here, update its specializer too;
``tests/test_specialize_properties.py`` and the golden-stats grid (which
also replays every program through the prebound tier) fail loudly when the
twins drift.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..datastructs.hashing import mix64, primary_hash, secondary_hash, signature_of
from .abort import AbortCode
from .cfa import (
    AluOp,
    CfaProgram,
    Compare,
    Done,
    Fault,
    HashOp,
    MemRead,
    QueryContext,
    FirmwareImage,
    StepOutcome,
    STATE_DONE,
    STATE_EXCEPTION,
    STATE_START,
)
from .header import FLAG_RESIZING, DataStructureHeader, StructureType

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


def default_firmware(*, max_states: int = 256) -> FirmwareImage:
    """The factory-shipped firmware image: programs for the five built-ins."""
    image = FirmwareImage(max_states=max_states)
    for program in (
        LinkedListCfa(),
        HashTableCfa(),
        SkipListCfa(),
        BinaryTreeCfa(),
        TrieCfa(),
    ):
        image.register(program)
    return image
