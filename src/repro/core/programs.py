"""Built-in CFA programs: the firmware shipped with QEI.

One program per data-structure type (Sec. III-A): linked list, cuckoo hash
table, skip list, binary tree, trie (with Aho-Corasick scan and
longest-prefix-match subtypes), and — registered at runtime as the
firmware-update example — hash-of-lists.

Each program is written once, in the form the CEE executes: int states, a
slot-indexed register file (``ctx.scratch``) and tuple micro-ops (see
:mod:`repro.core.cfa`).  Header parameters (key length, bucket geometry,
subtype flags) are resolved once, after PARSE, into registers.  Programs
never touch simulated memory directly: they see only bytes the engine
staged into their registers and comparator/hash-unit outputs.

``tests/cfa_reference.py`` keeps an interpreted rendering of every
program (string states, dict scratch, dataclass micro-ops);
``tests/test_specialize_properties.py`` checks each program here against
it step for step, and the golden-stats grid replays whole runs on it.
"""

from __future__ import annotations

from ..datastructs.hashing import secondary_hash, signature_of
from .abort import AbortCode
from .cfa import (
    K_ALU,
    K_COMPARE,
    K_DONE,
    K_FAULT,
    K_HASH,
    K_MEMREAD,
    K_MEMREAD_OPT,
    S_KEY,
    U64,
    CfaProgram,
    FirmwareImage,
    QueryContext,
)
from .header import FLAG_RESIZING, StructureType

_NULL_PTR = int(AbortCode.NULL_POINTER)
_BAD_AUX = int(AbortCode.BAD_AUX)

# Linked-list / binary-tree registers.
_N_NODE, _N_CMP, _N_KLEN = 2, 3, 4


class LinkedListCfa(CfaProgram):
    """Fig. 3's CFA: fetch node, compare key, follow next until match/NULL."""

    TYPE_CODE = int(StructureType.LINKED_LIST)
    NAME = "linked-list"
    STATES = CfaProgram.PRELUDE_STATES + ("FETCH_NODE", "COMPARE", "CHECK")
    SUBTYPE_MAX = 0
    NREGS = 5

    def after_parse(self, ctx: QueryContext) -> tuple:
        ctx.scratch[_N_KLEN] = ctx.header.key_length
        root = ctx.header.root_ptr
        if not root:
            return (K_DONE, None)
        ctx.state = 3
        return (K_MEMREAD, root, 24, _N_NODE)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        node = regs[_N_NODE]
        if ctx.state == 4:  # CHECK
            if regs[_N_CMP] == 0:
                return (K_DONE, U64(node, 8)[0])
            nxt = U64(node, 16)[0]
            if not nxt:
                return (K_DONE, None)
            ctx.state = 3
            return (K_MEMREAD, nxt, 24, _N_NODE)
        # COMPARE
        key_ptr = U64(node, 0)[0]
        if not key_ptr:
            return (K_FAULT, _NULL_PTR, "null key pointer")
        ctx.state = 4
        return (K_COMPARE, key_ptr, regs[_N_KLEN], _N_CMP)


class BinaryTreeCfa(CfaProgram):
    """BST descent with three-way compares choosing the child pointer."""

    TYPE_CODE = int(StructureType.BINARY_TREE)
    NAME = "binary-tree"
    STATES = CfaProgram.PRELUDE_STATES + ("FETCH_NODE", "COMPARE", "CHECK")
    SUBTYPE_MAX = 0
    NREGS = 5

    def after_parse(self, ctx: QueryContext) -> tuple:
        ctx.scratch[_N_KLEN] = ctx.header.key_length
        root = ctx.header.root_ptr
        if not root:
            return (K_DONE, None)
        ctx.state = 3
        return (K_MEMREAD, root, 32, _N_NODE)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        node = regs[_N_NODE]
        if ctx.state == 4:  # CHECK
            cmp_result = regs[_N_CMP]
            if cmp_result == 0:
                return (K_DONE, U64(node, 8)[0])
            # Compare is (stored <=> key): stored < key means go right.
            child = U64(node, 16 if cmp_result > 0 else 24)[0]
            if not child:
                return (K_DONE, None)
            ctx.state = 3
            return (K_MEMREAD, child, 32, _N_NODE)
        # COMPARE
        key_ptr = U64(node, 0)[0]
        if not key_ptr:
            return (K_FAULT, _NULL_PTR, "null key pointer")
        ctx.state = 4
        return (K_COMPARE, key_ptr, regs[_N_KLEN], _N_CMP)


# Hash-of-lists registers.
_HL_HASH, _HL_SLOT, _HL_NODE, _HL_CMP, _HL_KLEN = 2, 3, 4, 5, 6


class HashOfListsCfa(CfaProgram):
    """Combined-structure firmware (Sec. III-A): hash, then chain walk.

    Not part of the default image — tests/examples register it at runtime to
    exercise the firmware-update path.
    """

    TYPE_CODE = int(StructureType.HASH_OF_LISTS)
    NAME = "hash-of-lists"
    STATES = CfaProgram.PRELUDE_STATES + ("HASH", "READ_SLOT", "COMPARE", "CHECK")
    SUBTYPE_MAX = 0
    REQUIRES_SIZE = True
    NREGS = 7

    def after_parse(self, ctx: QueryContext) -> tuple:
        ctx.scratch[_HL_KLEN] = ctx.header.key_length
        ctx.state = 3
        return (K_HASH, S_KEY, _HL_HASH)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        state = ctx.state
        if state == 6:  # CHECK
            node = regs[_HL_NODE]
            if regs[_HL_CMP] == 0:
                return (K_DONE, U64(node, 8)[0])
            nxt = U64(node, 16)[0]
            if not nxt:
                return (K_DONE, None)
            ctx.state = 5
            return (K_MEMREAD, nxt, 24, _HL_NODE)
        if state == 5:  # COMPARE
            key_ptr = U64(regs[_HL_NODE], 0)[0]
            if not key_ptr:
                return (K_FAULT, _NULL_PTR, "null key pointer")
            ctx.state = 6
            return (K_COMPARE, key_ptr, regs[_HL_KLEN], _HL_CMP)
        if state == 4:  # READ_SLOT
            node = U64(regs[_HL_SLOT], 0)[0]
            if not node:
                return (K_DONE, None)
            ctx.state = 5
            return (K_MEMREAD, node, 24, _HL_NODE)
        # HASH
        header = ctx.header
        bucket = regs[_HL_HASH] % header.size
        ctx.state = 4
        return (K_MEMREAD, header.root_ptr + bucket * 8, 8, _HL_SLOT)


# Skip-list registers.
_SL_NODE, _SL_PTR, _SL_NEXT, _SL_CMP = 2, 3, 4, 5
_SL_KLEN, _SL_NODE_ADDR, _SL_LEVEL, _SL_STAGED, _SL_NEXT_ADDR = 6, 7, 8, 9, 10


class SkipListCfa(CfaProgram):
    """Skip-list seek: descend levels, advancing while next.key < key.

    Node fetches are cacheline-granular, so the header *and* the first five
    forward pointers of a node arrive together; the CFA serves level
    pointers from the staged line and only issues a fresh memory micro-op
    when the wanted pointer lies beyond it (tall towers).
    """

    TYPE_CODE = int(StructureType.SKIP_LIST)
    NAME = "skip-list"
    STATES = CfaProgram.PRELUDE_STATES + (
        "NEXT_PTR",
        "CHECK_PTR",
        "FETCH_NEXT",
        "CHECK_CMP",
    )
    NREGS = 11

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

    def _read_ptr(self, ctx: QueryContext) -> tuple:
        """Obtain next[level] of the current node, reusing the staged line."""
        regs = ctx.scratch
        node = regs[_SL_NODE_ADDR]
        offset = 24 + 8 * regs[_SL_LEVEL]
        ctx.state = 3
        if regs[_SL_STAGED] == node and offset + 8 <= len(regs[_SL_NODE]):
            # Serve the pointer from the staged cacheline: ALU-only step.
            regs[_SL_PTR] = regs[_SL_NODE][offset : offset + 8]
            return (K_ALU, 1)
        return (K_MEMREAD, node + offset, 8, _SL_PTR)

    def after_parse(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        header = ctx.header
        regs[_SL_KLEN] = header.key_length
        root = header.root_ptr
        regs[_SL_NODE_ADDR] = root
        regs[_SL_LEVEL] = header.aux - 1  # aux = max_level
        regs[_SL_STAGED] = 0  # node address currently staged in _SL_NODE
        if not root:
            return (K_DONE, None)
        return self._read_ptr(ctx)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        state = ctx.state
        if state == 3:  # CHECK_PTR
            nxt = U64(regs[_SL_PTR], 0)[0]
            if not nxt:
                if regs[_SL_LEVEL] == 0:
                    return (K_DONE, None)
                regs[_SL_LEVEL] -= 1
                return self._read_ptr(ctx)
            regs[_SL_NEXT_ADDR] = nxt
            ctx.state = 4
            return (K_MEMREAD_OPT, nxt, self.NODE_FETCH, _SL_NEXT, 24)
        if state == 4:  # FETCH_NEXT
            key_ptr = U64(regs[_SL_NEXT], 0)[0]
            if not key_ptr:
                return (K_FAULT, _NULL_PTR, "null key pointer")
            ctx.state = 5
            return (K_COMPARE, key_ptr, regs[_SL_KLEN], _SL_CMP)
        # CHECK_CMP
        cmp_result = regs[_SL_CMP]
        if cmp_result < 0:  # next.key < key: advance along this level
            nxt = regs[_SL_NEXT_ADDR]
            regs[_SL_NODE_ADDR] = nxt
            regs[_SL_STAGED] = nxt
            regs[_SL_NODE] = regs[_SL_NEXT]
            return self._read_ptr(ctx)
        if regs[_SL_LEVEL] > 0:
            regs[_SL_LEVEL] -= 1
            return self._read_ptr(ctx)
        if cmp_result == 0:
            return (K_DONE, U64(regs[_SL_NEXT], 8)[0])
        return (K_DONE, None)


# Cuckoo hash-table registers.
_HT_DESC, _HT_HASH, _HT_LINE, _HT_CMP, _HT_VALUE = 2, 3, 4, 5, 6
_HT_KLEN, _HT_BB, _HT_SIZE, _HT_SIG = 7, 8, 9, 10
_HT_B0, _HT_B1, _HT_B0ROOT, _HT_B1ROOT = 11, 12, 13, 14
_HT_WHICH, _HT_LINE_NO, _HT_SLOT, _HT_KV = 15, 16, 17, 18
_HT_NEWROOT, _HT_NEWBUCKETS, _HT_WM, _HT_RESIZE = 19, 20, 21, 22


class HashTableCfa(CfaProgram):
    """Cuckoo hash lookup: hash, scan candidate buckets, compare keys."""

    TYPE_CODE = int(StructureType.HASH_TABLE)
    NAME = "hash-table"
    STATES = CfaProgram.PRELUDE_STATES + (
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
    NREGS = 23

    def after_parse(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        header = ctx.header
        regs[_HT_KLEN] = header.key_length
        regs[_HT_BB] = header.subtype * 16
        regs[_HT_SIZE] = header.size
        regs[_HT_RESIZE] = 0
        if header.flags & FLAG_RESIZING:
            # An online resize is in flight: fetch the out-of-line resize
            # descriptor {new_root, new_buckets, watermark} so candidate
            # buckets can route old-vs-new (docs/mutations.md).
            if not header.aux:
                return (
                    K_FAULT,
                    _BAD_AUX,
                    "RESIZING header without a descriptor pointer",
                )
            ctx.state = 3
            return (K_MEMREAD, header.aux, 24, _HT_DESC)
        ctx.state = 4
        return (K_HASH, S_KEY, _HT_HASH)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        state = ctx.state
        if state == 6:  # SCAN
            return self._scan_line(ctx)
        if state == 7:  # CHECK
            if regs[_HT_CMP] == 0:
                ctx.state = 8
                return (K_MEMREAD, regs[_HT_KV], 8, _HT_VALUE)
            return self._scan_line(ctx)  # keep scanning after a sig collision
        if state == 8:  # READ_VALUE
            return (K_DONE, U64(regs[_HT_VALUE], 0)[0])
        if state == 5:  # BUCKET_ADDR
            return self._read_line(ctx)
        if state == 4:  # HASH
            # The hash unit produced the primary hash; derive the signature
            # and both candidate buckets with one ALU transition.
            h1 = regs[_HT_HASH]
            key = ctx.key
            h2 = secondary_hash(key)
            regs[_HT_SIG] = signature_of(key) or 1
            num_buckets = regs[_HT_SIZE]
            root = ctx.header.root_ptr
            if regs[_HT_RESIZE]:
                # Route per candidate: old buckets below the migration
                # watermark have moved to the doubled table, where the same
                # hash indexes bucket (h % 2N) = b or b + N.
                watermark = regs[_HT_WM]
                new_buckets = regs[_HT_NEWBUCKETS]
                new_root = regs[_HT_NEWROOT]
                b0 = h1 % num_buckets
                if b0 < watermark:
                    regs[_HT_B0] = h1 % new_buckets
                    regs[_HT_B0ROOT] = new_root
                else:
                    regs[_HT_B0] = b0
                    regs[_HT_B0ROOT] = root
                b1 = h2 % num_buckets
                if b1 < watermark:
                    regs[_HT_B1] = h2 % new_buckets
                    regs[_HT_B1ROOT] = new_root
                else:
                    regs[_HT_B1] = b1
                    regs[_HT_B1ROOT] = root
            else:
                regs[_HT_B0] = h1 % num_buckets
                regs[_HT_B1] = h2 % num_buckets
                regs[_HT_B0ROOT] = regs[_HT_B1ROOT] = root
            regs[_HT_WHICH] = 0
            regs[_HT_LINE_NO] = 0
            ctx.state = 5
            return (K_ALU, 1)
        # READ_DESC
        desc = regs[_HT_DESC]
        new_root = U64(desc, 0)[0]
        new_buckets = U64(desc, 8)[0]
        watermark = U64(desc, 16)[0]
        if not new_root or new_buckets != 2 * regs[_HT_SIZE]:
            return (K_FAULT, _BAD_AUX, "malformed resize descriptor")
        regs[_HT_NEWROOT] = new_root
        regs[_HT_NEWBUCKETS] = new_buckets
        regs[_HT_WM] = watermark if watermark < regs[_HT_SIZE] else regs[_HT_SIZE]
        regs[_HT_RESIZE] = 1
        ctx.state = 4
        return (K_HASH, S_KEY, _HT_HASH)

    def _read_line(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        if regs[_HT_WHICH] == 0:
            bucket, broot = regs[_HT_B0], regs[_HT_B0ROOT]
        else:
            bucket, broot = regs[_HT_B1], regs[_HT_B1ROOT]
        bucket_bytes = regs[_HT_BB]
        offset = regs[_HT_LINE_NO] * 64
        remaining = bucket_bytes - offset
        if remaining <= 0:
            return self._next_bucket(ctx)
        regs[_HT_SLOT] = 0
        ctx.state = 6
        return (
            K_MEMREAD,
            broot + bucket * bucket_bytes + offset,
            64 if remaining > 64 else remaining,
            _HT_LINE,
        )

    def _scan_line(self, ctx: QueryContext) -> tuple:
        """Signature pre-filter over the staged line (local DPU compare)."""
        regs = ctx.scratch
        line = regs[_HT_LINE]
        slots_in_line = len(line) // 16
        slot = regs[_HT_SLOT]
        want = regs[_HT_SIG]
        while slot < slots_in_line:
            base = slot * 16
            sig = U64(line, base)[0]
            kv = U64(line, base + 8)[0]
            slot += 1
            if sig == want and kv:
                regs[_HT_SLOT] = slot
                regs[_HT_KV] = kv
                ctx.state = 7
                return (K_COMPARE, kv + 8, regs[_HT_KLEN], _HT_CMP)
        regs[_HT_SLOT] = slot
        regs[_HT_LINE_NO] += 1
        if regs[_HT_LINE_NO] * 64 >= regs[_HT_BB]:
            return self._next_bucket(ctx)
        return self._read_line(ctx)

    def _next_bucket(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        if regs[_HT_WHICH] == 0:
            regs[_HT_WHICH] = 1
            regs[_HT_LINE_NO] = 0
            return self._read_line(ctx)
        return (K_DONE, None)


# Trie registers.
_T_NODE, _T_EDGES = 2, 3
_T_KLEN, _T_NODE_ADDR, _T_ROOT, _T_POS, _T_MATCH, _T_CHUNK = 4, 5, 6, 7, 8, 9
_T_AC, _T_LPM, _T_BEST, _T_EDGELINE, _T_CHILD, _T_FAIL, _T_COUNT_OUT = (
    10, 11, 12, 13, 14, 15, 16,
)


class TrieCfa(CfaProgram):
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
    STATES = CfaProgram.PRELUDE_STATES + (
        "FETCH_NODE",
        "READ_EDGE_LINE",
        "SEARCH_TABLE",
        "FOLLOW_FAIL",
        "ADVANCE",
    )
    #: subtypes 0 (exact), 1 (Aho-Corasick scan), 2 (longest-prefix match).
    SUBTYPE_MAX = 2
    NREGS = 17
    #: Long inputs (AC text) stream in by the cacheline.
    KEY_FETCH_MAX = 64

    def after_parse(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        header = ctx.header
        regs[_T_KLEN] = header.key_length
        root = header.root_ptr
        regs[_T_NODE_ADDR] = root
        regs[_T_ROOT] = root
        regs[_T_POS] = 0
        regs[_T_MATCH] = 0
        regs[_T_CHUNK] = 0
        regs[_T_AC] = 1 if header.subtype == 1 else 0
        regs[_T_LPM] = 1 if header.subtype == 2 else 0
        regs[_T_BEST] = 0
        regs[_T_COUNT_OUT] = 0
        if not root:
            return (K_DONE, None)
        ctx.state = 3
        return (K_MEMREAD, root, 32, _T_NODE)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        state = ctx.state
        if state == 3:  # FETCH_NODE
            return self._fetch_node(ctx)
        if state == 4:  # SEARCH_TABLE
            return self._search_table(ctx)
        if state == 6:  # ADVANCE: child node already staged
            regs[_T_NODE_ADDR] = regs[_T_CHILD]
            regs[_T_POS] += 1
            if regs[_T_AC]:
                regs[_T_COUNT_OUT] = 1
            return self._fetch_node(ctx)
        # FOLLOW_FAIL: fail node staged; retry the edge search there.
        regs[_T_NODE_ADDR] = regs[_T_FAIL]
        regs[_T_EDGELINE] = 0
        return self._read_edge_line(ctx)

    def _stream_chunk(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        chunk = regs[_T_POS] // 64
        regs[_T_CHUNK] = chunk
        base = chunk * 64
        remaining = regs[_T_KLEN] - base
        ctx.state = 3
        return (
            K_MEMREAD,
            ctx.key_addr + base,
            64 if remaining > 64 else remaining,
            S_KEY,
        )

    def _finish(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        if regs[_T_AC]:
            return (K_DONE, regs[_T_MATCH])
        output = U64(regs[_T_NODE], 8)[0]
        if regs[_T_LPM]:
            best = output or regs[_T_BEST]
            return (K_DONE, best - 1 if best else None)
        return (K_DONE, output - 1 if output else None)

    def _fetch_node(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        node = regs[_T_NODE]
        if regs[_T_AC] and regs[_T_COUNT_OUT]:
            # Node staged; in AC mode count an output hit, then continue.
            regs[_T_COUNT_OUT] = 0
            if U64(node, 8)[0]:
                regs[_T_MATCH] += 1
        if regs[_T_LPM]:
            output = U64(node, 8)[0]
            if output:
                regs[_T_BEST] = output  # deepest prefix seen so far
        if regs[_T_POS] >= regs[_T_KLEN]:
            return self._finish(ctx)
        if regs[_T_POS] // 64 != regs[_T_CHUNK]:
            return self._stream_chunk(ctx)
        ctx.key = regs[S_KEY]
        regs[_T_EDGELINE] = 0
        return self._read_edge_line(ctx)

    def _read_edge_line(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        node = regs[_T_NODE]
        count = U64(node, 16)[0]
        edges_ptr = U64(node, 24)[0]
        start = regs[_T_EDGELINE] * 4  # edges per 64B line
        if start >= count or not edges_ptr:
            return self._edge_miss(ctx)
        n = count - start
        ctx.state = 4
        return (K_MEMREAD, edges_ptr + start * 16, (4 if n > 4 else n) * 16, _T_EDGES)

    def _search_table(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        pos = regs[_T_POS]
        if pos >= regs[_T_KLEN]:
            byte = None
        else:
            chunk, offset = divmod(pos, 64)
            # A chunk not yet streamed in has no current byte.
            byte = None if chunk != regs[_T_CHUNK] else ctx.key[offset]
        edges = regs[_T_EDGES]
        for i in range(len(edges) // 16):
            base = i * 16
            stored = U64(edges, base)[0]
            if stored == byte:
                regs[_T_CHILD] = child = U64(edges, base + 8)[0]
                ctx.state = 6
                return (K_MEMREAD, child, 32, _T_NODE)
            if stored > byte:
                return self._edge_miss(ctx)
        regs[_T_EDGELINE] += 1
        return self._read_edge_line(ctx)

    def _edge_miss(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        if regs[_T_LPM]:
            best = regs[_T_BEST]
            return (K_DONE, best - 1 if best else None)
        if not regs[_T_AC]:
            return (K_DONE, None)
        if regs[_T_NODE_ADDR] == regs[_T_ROOT]:
            regs[_T_POS] += 1
            if regs[_T_POS] >= regs[_T_KLEN]:
                return self._finish(ctx)
            regs[_T_EDGELINE] = 0
            if regs[_T_POS] // 64 != regs[_T_CHUNK]:
                return self._stream_chunk(ctx)
            return self._read_edge_line(ctx)
        regs[_T_FAIL] = fail = U64(regs[_T_NODE], 0)[0]
        ctx.state = 5
        return (K_MEMREAD, fail, 32, _T_NODE)


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
