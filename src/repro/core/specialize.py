"""CFA specialization: compile programs into flat step closures.

The interpreted CFA programs (``programs.py``, ``programs_ext.py``,
``mutations.py``) are the executable specification.  Interpreting them per
transition pays a firmware table probe (``program_for``), a virtual
``program.step`` dispatch over string states, string-keyed dict traffic
through ``ctx.scratch``/``results``/``vars``, and one frozen-dataclass
micro-op allocation.  None of that is architectural — the paper's CEE is
microcoded, and Diba-style engines compile operator logic at (firmware)
load time rather than interpreting it per event.  This module is that
load-time compiler; the accelerator's one CEE driver only ever runs the
step functions it produces.

``compile_firmware`` walks a :class:`~repro.core.cfa.FirmwareImage` and
produces one :class:`CompiledStep` per registered ``(type_code, op-table)``
pair:

* **Specialized tier** — the built-in lookup programs (linked list, hash
  table, skip list, binary tree, trie, hash-of-lists, B+-tree) compile to
  flat closures over pre-bound program constants.  Per-query state lives in
  a slot-indexed register list (``ctx.scratch`` is rebound to it), states
  are small ints, and each step returns a plain tuple micro-op —
  ``(K_MEMREAD, vaddr, length, slot)`` and friends — that the driver
  executes inline with zero dataclass allocation.  Header parameters (key
  length, bucket geometry, subtype flags) are resolved once at PARSE into
  registers.
* **Prebound tier** — mutation programs and any lookup program the compiler
  does not recognise (exact class match only; subclasses keep their
  overridden behaviour) get a thin wrapper that captures ``program.step``
  once and converts its :class:`StepOutcome` into the tuple protocol
  (``K_ACTION`` delegates timed write-path micro-ops back to the driver's
  dataclass issue path).  They keep their dict-based context.

Queries no table entry covers — an unregistered type code, or a header
page that is unmapped when the query is accepted — bind to
:func:`dispatch_step`, which looks the program up on every step and faults
exactly where the interpreter would.

Compiled closures must be *observably identical* to the interpreted
programs: same micro-op sequence, same fault codes and detail strings, same
results for every reachable input.  ``tests/test_golden_stats.py`` pins
this end to end by replaying its golden pairs with ``_SPECIALIZERS``
emptied (every program on the prebound tier), and
``tests/test_specialize_properties.py`` checks step-for-step agreement on
randomized structures.  Terminal tuples do not update ``ctx.state`` —
after a terminal the context is dead to the driver.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Tuple

from ..datastructs.hashing import secondary_hash, signature_of
from ..mem.paging import AddressSpace
from .abort import AbortCode
from .cfa import (
    Done,
    Fault,
    FirmwareImage,
    OP_INSERT,
    QueryContext,
)
from .header import FLAG_RESIZING, DataStructureHeader
from .programs import (
    BinaryTreeCfa,
    HashOfListsCfa,
    HashTableCfa,
    LinkedListCfa,
    SkipListCfa,
    TrieCfa,
)
from .programs_ext import BPlusTreeCfa

#: Tuple micro-op kinds.  The timed kinds (executed inline by the
#: driver, producing a ready-at cycle) are all <= K_ALU; the driver relies
#: on that ordering for its dispatch.
K_MEMREAD = 0
K_MEMREAD_OPT = 1
K_COMPARE = 2
K_HASH = 3
K_ALU = 4
K_DONE = 5
K_FAULT = 6
K_WAIT = 7
K_ACTION = 8

_WAIT = (K_WAIT,)

_U64 = struct.Struct("<Q").unpack_from

#: Shared register slots every specialized program uses (the prelude).
_S_HEADER = 0
_S_KEY = 1


class CompiledStep:
    """One compiled ``(program, op)`` entry in the accelerator's table."""

    __slots__ = ("step", "nregs", "prebound", "name")

    def __init__(
        self,
        step: Callable[[QueryContext], tuple],
        nregs: int,
        prebound: bool,
        name: str,
    ) -> None:
        self.step = step
        self.nregs = nregs
        self.prebound = prebound
        self.name = name


def _make_step(program, dispatch, after_parse, key_fetch=None):
    """Wrap a program's compiled dispatch with the shared prelude.

    States 0/1/2 are the interpreter's START/PARSE/READ_KEY; program states
    start at 3.  ``key_fetch`` overrides the key-fetch length (the trie
    streams long inputs by the cacheline).
    """
    validate = program.validate_header

    def step(ctx: QueryContext) -> tuple:
        state = ctx.state
        if state >= 3:
            return dispatch(ctx)
        regs = ctx.scratch
        if state == 0:  # START
            ctx.state = 1
            return (K_MEMREAD, ctx.header_addr, 64, _S_HEADER)
        if state == 1:  # PARSE
            raw = regs[_S_HEADER]
            header = DataStructureHeader.decode(raw)
            code = validate(header, raw=raw)
            if code is not AbortCode.NONE:
                return (K_FAULT, int(code), f"header rejected: {code.name}")
            ctx.header = header
            ctx.state = 2
            kfl = header.key_length if key_fetch is None else key_fetch(header)
            return (K_MEMREAD, ctx.key_addr, kfl, _S_KEY)
        # READ_KEY: the fetched key is exactly the requested length.
        ctx.key = regs[_S_KEY]
        return after_parse(ctx)

    return step


# --------------------------------------------------------------------- #
# Specialized lookup programs
# --------------------------------------------------------------------- #


def _spec_linked_list(program: LinkedListCfa) -> CompiledStep:
    up = _U64
    S_NODE, S_CMP, R_KLEN = 2, 3, 4
    NULL_PTR = int(AbortCode.NULL_POINTER)

    def after_parse(ctx):
        regs = ctx.scratch
        regs[R_KLEN] = ctx.header.key_length
        root = ctx.header.root_ptr
        if not root:
            return (K_DONE, None)
        ctx.state = 3
        return (K_MEMREAD, root, 24, S_NODE)

    def dispatch(ctx):
        regs = ctx.scratch
        node = regs[S_NODE]
        if ctx.state == 4:  # CHECK
            if regs[S_CMP] == 0:
                return (K_DONE, up(node, 8)[0])
            nxt = up(node, 16)[0]
            if not nxt:
                return (K_DONE, None)
            ctx.state = 3
            return (K_MEMREAD, nxt, 24, S_NODE)
        # COMPARE
        key_ptr = up(node, 0)[0]
        if not key_ptr:
            return (K_FAULT, NULL_PTR, "null key pointer")
        ctx.state = 4
        return (K_COMPARE, key_ptr, regs[R_KLEN], S_CMP)

    return CompiledStep(
        _make_step(program, dispatch, after_parse), 5, False, program.NAME
    )


def _spec_binary_tree(program: BinaryTreeCfa) -> CompiledStep:
    up = _U64
    S_NODE, S_CMP, R_KLEN = 2, 3, 4
    NULL_PTR = int(AbortCode.NULL_POINTER)

    def after_parse(ctx):
        regs = ctx.scratch
        regs[R_KLEN] = ctx.header.key_length
        root = ctx.header.root_ptr
        if not root:
            return (K_DONE, None)
        ctx.state = 3
        return (K_MEMREAD, root, 32, S_NODE)

    def dispatch(ctx):
        regs = ctx.scratch
        node = regs[S_NODE]
        if ctx.state == 4:  # CHECK
            cmp_result = regs[S_CMP]
            if cmp_result == 0:
                return (K_DONE, up(node, 8)[0])
            # Compare() is (stored <=> key): stored < key means go right.
            child = up(node, 16 if cmp_result > 0 else 24)[0]
            if not child:
                return (K_DONE, None)
            ctx.state = 3
            return (K_MEMREAD, child, 32, S_NODE)
        # COMPARE
        key_ptr = up(node, 0)[0]
        if not key_ptr:
            return (K_FAULT, NULL_PTR, "null key pointer")
        ctx.state = 4
        return (K_COMPARE, key_ptr, regs[R_KLEN], S_CMP)

    return CompiledStep(
        _make_step(program, dispatch, after_parse), 5, False, program.NAME
    )


def _spec_hash_of_lists(program: HashOfListsCfa) -> CompiledStep:
    up = _U64
    S_HASH, S_SLOT, S_NODE, S_CMP, R_KLEN = 2, 3, 4, 5, 6
    NULL_PTR = int(AbortCode.NULL_POINTER)

    def after_parse(ctx):
        ctx.scratch[R_KLEN] = ctx.header.key_length
        ctx.state = 3
        return (K_HASH, _S_KEY, S_HASH)

    def dispatch(ctx):
        regs = ctx.scratch
        state = ctx.state
        if state == 6:  # CHECK
            node = regs[S_NODE]
            if regs[S_CMP] == 0:
                return (K_DONE, up(node, 8)[0])
            nxt = up(node, 16)[0]
            if not nxt:
                return (K_DONE, None)
            ctx.state = 5
            return (K_MEMREAD, nxt, 24, S_NODE)
        if state == 5:  # COMPARE
            key_ptr = up(regs[S_NODE], 0)[0]
            if not key_ptr:
                return (K_FAULT, NULL_PTR, "null key pointer")
            ctx.state = 6
            return (K_COMPARE, key_ptr, regs[R_KLEN], S_CMP)
        if state == 4:  # READ_SLOT
            node = up(regs[S_SLOT], 0)[0]
            if not node:
                return (K_DONE, None)
            ctx.state = 5
            return (K_MEMREAD, node, 24, S_NODE)
        # HASH
        header = ctx.header
        bucket = regs[S_HASH] % header.size
        ctx.state = 4
        return (K_MEMREAD, header.root_ptr + bucket * 8, 8, S_SLOT)

    return CompiledStep(
        _make_step(program, dispatch, after_parse), 7, False, program.NAME
    )


def _spec_skip_list(program: SkipListCfa) -> CompiledStep:
    up = _U64
    S_NODE, S_PTR, S_NEXT, S_CMP = 2, 3, 4, 5
    R_KLEN, R_NODE, R_LEVEL, R_STAGED, R_NEXT = 6, 7, 8, 9, 10
    NULL_PTR = int(AbortCode.NULL_POINTER)
    node_fetch = program.NODE_FETCH

    def read_ptr(ctx):
        regs = ctx.scratch
        node = regs[R_NODE]
        offset = 24 + 8 * regs[R_LEVEL]
        if regs[R_STAGED] == node and offset + 8 <= len(regs[S_NODE]):
            # Serve the pointer from the staged cacheline: ALU-only step.
            regs[S_PTR] = regs[S_NODE][offset : offset + 8]
            ctx.state = 3
            return (K_ALU, 1)
        ctx.state = 3
        return (K_MEMREAD, node + offset, 8, S_PTR)

    def after_parse(ctx):
        regs = ctx.scratch
        header = ctx.header
        regs[R_KLEN] = header.key_length
        root = header.root_ptr
        regs[R_NODE] = root
        regs[R_LEVEL] = header.aux - 1
        regs[R_STAGED] = 0
        if not root:
            return (K_DONE, None)
        return read_ptr(ctx)

    def dispatch(ctx):
        regs = ctx.scratch
        state = ctx.state
        if state == 3:  # CHECK_PTR
            nxt = up(regs[S_PTR], 0)[0]
            if not nxt:
                if regs[R_LEVEL] == 0:
                    return (K_DONE, None)
                regs[R_LEVEL] -= 1
                return read_ptr(ctx)
            regs[R_NEXT] = nxt
            ctx.state = 4
            return (K_MEMREAD_OPT, nxt, node_fetch, S_NEXT, 24)
        if state == 4:  # FETCH_NEXT
            key_ptr = up(regs[S_NEXT], 0)[0]
            if not key_ptr:
                return (K_FAULT, NULL_PTR, "null key pointer")
            ctx.state = 5
            return (K_COMPARE, key_ptr, regs[R_KLEN], S_CMP)
        # CHECK_CMP
        cmp_result = regs[S_CMP]
        if cmp_result < 0:  # next.key < key: advance along this level
            nxt = regs[R_NEXT]
            regs[R_NODE] = nxt
            regs[R_STAGED] = nxt
            regs[S_NODE] = regs[S_NEXT]
            return read_ptr(ctx)
        if regs[R_LEVEL] > 0:
            regs[R_LEVEL] -= 1
            return read_ptr(ctx)
        if cmp_result == 0:
            return (K_DONE, up(regs[S_NEXT], 8)[0])
        return (K_DONE, None)

    return CompiledStep(
        _make_step(program, dispatch, after_parse), 11, False, program.NAME
    )


def _spec_hash_table(program: HashTableCfa) -> CompiledStep:
    up = _U64
    S_DESC, S_HASH, S_LINE, S_CMP, S_VALUE = 2, 3, 4, 5, 6
    R_KLEN, R_BB, R_SIZE, R_SIG = 7, 8, 9, 10
    R_B0, R_B1, R_B0ROOT, R_B1ROOT = 11, 12, 13, 14
    R_WHICH, R_LINE, R_SLOT, R_KV = 15, 16, 17, 18
    R_NEWROOT, R_NEWBUCKETS, R_WM, R_RESIZE = 19, 20, 21, 22
    BAD_AUX = int(AbortCode.BAD_AUX)

    def read_line(ctx):
        regs = ctx.scratch
        if regs[R_WHICH] == 0:
            bucket, broot = regs[R_B0], regs[R_B0ROOT]
        else:
            bucket, broot = regs[R_B1], regs[R_B1ROOT]
        bucket_bytes = regs[R_BB]
        offset = regs[R_LINE] * 64
        remaining = bucket_bytes - offset
        if remaining <= 0:
            return next_bucket(ctx)
        regs[R_SLOT] = 0
        ctx.state = 6
        return (
            K_MEMREAD,
            broot + bucket * bucket_bytes + offset,
            64 if remaining > 64 else remaining,
            S_LINE,
        )

    def scan_line(ctx):
        """Signature pre-filter over the staged line (local DPU compare)."""
        regs = ctx.scratch
        line = regs[S_LINE]
        slots_in_line = len(line) // 16
        slot = regs[R_SLOT]
        want = regs[R_SIG]
        while slot < slots_in_line:
            base = slot * 16
            sig = up(line, base)[0]
            kv = up(line, base + 8)[0]
            slot += 1
            if sig == want and kv:
                regs[R_SLOT] = slot
                regs[R_KV] = kv
                ctx.state = 7
                return (K_COMPARE, kv + 8, regs[R_KLEN], S_CMP)
        regs[R_SLOT] = slot
        regs[R_LINE] += 1
        if regs[R_LINE] * 64 >= regs[R_BB]:
            return next_bucket(ctx)
        return read_line(ctx)

    def next_bucket(ctx):
        regs = ctx.scratch
        if regs[R_WHICH] == 0:
            regs[R_WHICH] = 1
            regs[R_LINE] = 0
            return read_line(ctx)
        return (K_DONE, None)

    def after_parse(ctx):
        regs = ctx.scratch
        header = ctx.header
        regs[R_KLEN] = header.key_length
        regs[R_BB] = header.subtype * 16
        regs[R_SIZE] = header.size
        regs[R_RESIZE] = 0
        if header.flags & FLAG_RESIZING:
            if not header.aux:
                return (
                    K_FAULT,
                    BAD_AUX,
                    "RESIZING header without a descriptor pointer",
                )
            ctx.state = 3
            return (K_MEMREAD, header.aux, 24, S_DESC)
        ctx.state = 4
        return (K_HASH, _S_KEY, S_HASH)

    def dispatch(ctx):
        regs = ctx.scratch
        state = ctx.state
        if state == 6:  # SCAN
            return scan_line(ctx)
        if state == 7:  # CHECK
            if regs[S_CMP] == 0:
                ctx.state = 8
                return (K_MEMREAD, regs[R_KV], 8, S_VALUE)
            return scan_line(ctx)  # keep scanning after a sig collision
        if state == 8:  # READ_VALUE
            return (K_DONE, up(regs[S_VALUE], 0)[0])
        if state == 5:  # BUCKET_ADDR
            return read_line(ctx)
        if state == 4:  # HASH
            h1 = regs[S_HASH]
            key = ctx.key
            h2 = secondary_hash(key)
            regs[R_SIG] = signature_of(key) or 1
            num_buckets = regs[R_SIZE]
            root = ctx.header.root_ptr
            if regs[R_RESIZE]:
                # Route per candidate: old buckets below the migration
                # watermark have moved to the doubled table.
                watermark = regs[R_WM]
                new_buckets = regs[R_NEWBUCKETS]
                new_root = regs[R_NEWROOT]
                b0 = h1 % num_buckets
                if b0 < watermark:
                    regs[R_B0] = h1 % new_buckets
                    regs[R_B0ROOT] = new_root
                else:
                    regs[R_B0] = b0
                    regs[R_B0ROOT] = root
                b1 = h2 % num_buckets
                if b1 < watermark:
                    regs[R_B1] = h2 % new_buckets
                    regs[R_B1ROOT] = new_root
                else:
                    regs[R_B1] = b1
                    regs[R_B1ROOT] = root
            else:
                regs[R_B0] = h1 % num_buckets
                regs[R_B1] = h2 % num_buckets
                regs[R_B0ROOT] = regs[R_B1ROOT] = root
            regs[R_WHICH] = 0
            regs[R_LINE] = 0
            ctx.state = 5
            return (K_ALU, 1)
        # READ_DESC
        desc = regs[S_DESC]
        new_root = up(desc, 0)[0]
        new_buckets = up(desc, 8)[0]
        watermark = up(desc, 16)[0]
        if not new_root or new_buckets != 2 * regs[R_SIZE]:
            return (K_FAULT, BAD_AUX, "malformed resize descriptor")
        regs[R_NEWROOT] = new_root
        regs[R_NEWBUCKETS] = new_buckets
        regs[R_WM] = watermark if watermark < regs[R_SIZE] else regs[R_SIZE]
        regs[R_RESIZE] = 1
        ctx.state = 4
        return (K_HASH, _S_KEY, S_HASH)

    return CompiledStep(
        _make_step(program, dispatch, after_parse), 23, False, program.NAME
    )


def _spec_trie(program: TrieCfa) -> CompiledStep:
    up = _U64
    S_NODE, S_EDGES = 2, 3
    R_KLEN, R_NODE, R_ROOT, R_POS, R_MATCH, R_CHUNK = 4, 5, 6, 7, 8, 9
    R_AC, R_LPM, R_BEST, R_EDGELINE, R_CHILD, R_FAIL, R_CO = (
        10, 11, 12, 13, 14, 15, 16,
    )

    def stream_chunk(ctx):
        # Long inputs (AC text) stream in by the cacheline.
        regs = ctx.scratch
        chunk = regs[R_POS] // 64
        regs[R_CHUNK] = chunk
        base = chunk * 64
        remaining = regs[R_KLEN] - base
        ctx.state = 3
        return (
            K_MEMREAD,
            ctx.key_addr + base,
            64 if remaining > 64 else remaining,
            _S_KEY,
        )

    def finish(ctx):
        regs = ctx.scratch
        if regs[R_AC]:
            return (K_DONE, regs[R_MATCH])
        output = up(regs[S_NODE], 8)[0]
        if regs[R_LPM]:
            best = output or regs[R_BEST]
            return (K_DONE, best - 1 if best else None)
        return (K_DONE, output - 1 if output else None)

    def read_edge_line(ctx):
        regs = ctx.scratch
        node = regs[S_NODE]
        count = up(node, 16)[0]
        edges_ptr = up(node, 24)[0]
        start = regs[R_EDGELINE] * 4
        if start >= count or not edges_ptr:
            return edge_miss(ctx)
        n = count - start
        ctx.state = 4
        return (K_MEMREAD, edges_ptr + start * 16, (4 if n > 4 else n) * 16, S_EDGES)

    def search_table(ctx):
        regs = ctx.scratch
        pos = regs[R_POS]
        if pos >= regs[R_KLEN]:
            byte = None
        else:
            chunk, offset = divmod(pos, 64)
            byte = None if chunk != regs[R_CHUNK] else ctx.key[offset]
        edges = regs[S_EDGES]
        for i in range(len(edges) // 16):
            base = i * 16
            stored = up(edges, base)[0]
            if stored == byte:
                child = up(edges, base + 8)[0]
                regs[R_CHILD] = child
                ctx.state = 6
                return (K_MEMREAD, child, 32, S_NODE)
            if stored > byte:
                return edge_miss(ctx)
        regs[R_EDGELINE] += 1
        return read_edge_line(ctx)

    def edge_miss(ctx):
        regs = ctx.scratch
        if regs[R_LPM]:
            best = regs[R_BEST]
            return (K_DONE, best - 1 if best else None)
        if not regs[R_AC]:
            return (K_DONE, None)
        if regs[R_NODE] == regs[R_ROOT]:
            regs[R_POS] += 1
            if regs[R_POS] >= regs[R_KLEN]:
                return finish(ctx)
            regs[R_EDGELINE] = 0
            if regs[R_POS] // 64 != regs[R_CHUNK]:
                return stream_chunk(ctx)
            return read_edge_line(ctx)
        fail = up(regs[S_NODE], 0)[0]
        regs[R_FAIL] = fail
        ctx.state = 5
        return (K_MEMREAD, fail, 32, S_NODE)

    def fetch_node(ctx):
        regs = ctx.scratch
        node = regs[S_NODE]
        if regs[R_AC] and regs[R_CO]:
            # Node staged; in AC mode count an output hit, then continue.
            regs[R_CO] = 0
            if up(node, 8)[0]:
                regs[R_MATCH] += 1
        if regs[R_LPM]:
            output = up(node, 8)[0]
            if output:
                regs[R_BEST] = output  # deepest prefix seen so far
        if regs[R_POS] >= regs[R_KLEN]:
            return finish(ctx)
        if regs[R_POS] // 64 != regs[R_CHUNK]:
            return stream_chunk(ctx)
        ctx.key = regs[_S_KEY]
        regs[R_EDGELINE] = 0
        return read_edge_line(ctx)

    def after_parse(ctx):
        regs = ctx.scratch
        header = ctx.header
        regs[R_KLEN] = header.key_length
        root = header.root_ptr
        regs[R_NODE] = root
        regs[R_ROOT] = root
        regs[R_POS] = 0
        regs[R_MATCH] = 0
        regs[R_CHUNK] = 0
        regs[R_AC] = 1 if header.subtype == 1 else 0
        regs[R_LPM] = 1 if header.subtype == 2 else 0
        regs[R_BEST] = 0
        regs[R_CO] = 0
        if not root:
            return (K_DONE, None)
        ctx.state = 3
        return (K_MEMREAD, root, 32, S_NODE)

    def dispatch(ctx):
        regs = ctx.scratch
        state = ctx.state
        if state == 3:  # FETCH_NODE
            return fetch_node(ctx)
        if state == 4:  # SEARCH_TABLE
            return search_table(ctx)
        if state == 6:  # ADVANCE (child node already staged)
            regs[R_NODE] = regs[R_CHILD]
            regs[R_POS] += 1
            if regs[R_AC]:
                regs[R_CO] = 1
            return fetch_node(ctx)
        # FOLLOW_FAIL: fail node staged; retry the edge search there.
        regs[R_NODE] = regs[R_FAIL]
        regs[R_EDGELINE] = 0
        return read_edge_line(ctx)

    trie_key_fetch = lambda header: min(header.key_length, 64)  # noqa: E731
    return CompiledStep(
        _make_step(program, dispatch, after_parse, key_fetch=trie_key_fetch),
        17,
        False,
        program.NAME,
    )


def _spec_bplus_tree(program: BPlusTreeCfa) -> CompiledStep:
    up = _U64
    S_NODE, S_CMP, S_CHILD, S_VALUE = 2, 3, 4, 5
    R_KLEN, R_COUNT, R_KEYS, R_SLOTS, R_INDEX = 6, 7, 8, 9, 10

    def separator_step(ctx):
        regs = ctx.scratch
        index = regs[R_INDEX]
        if index >= regs[R_COUNT]:
            return read_child(ctx, regs[R_COUNT])  # rightmost child
        ctx.state = 4
        return (K_COMPARE, regs[R_KEYS] + index * regs[R_KLEN], regs[R_KLEN], S_CMP)

    def leaf_step(ctx):
        regs = ctx.scratch
        index = regs[R_INDEX]
        if index >= regs[R_COUNT]:
            return (K_DONE, None)
        ctx.state = 5
        return (K_COMPARE, regs[R_KEYS] + index * regs[R_KLEN], regs[R_KLEN], S_CMP)

    def read_child(ctx, index):
        ctx.state = 6
        return (K_MEMREAD, ctx.scratch[R_SLOTS] + 8 * index, 8, S_CHILD)

    def after_parse(ctx):
        regs = ctx.scratch
        regs[R_KLEN] = ctx.header.key_length
        root = ctx.header.root_ptr
        if not root:
            return (K_DONE, None)
        ctx.state = 3
        return (K_MEMREAD, root, 40, S_NODE)

    def dispatch(ctx):
        regs = ctx.scratch
        state = ctx.state
        if state == 3:  # FETCH_NODE
            node = regs[S_NODE]
            flags = up(node, 0)[0]
            regs[R_COUNT] = up(node, 8)[0]
            regs[R_KEYS] = up(node, 24)[0]
            regs[R_SLOTS] = up(node, 32)[0]
            regs[R_INDEX] = 0
            if flags & 0x1:
                return leaf_step(ctx)
            return separator_step(ctx)
        if state == 4:  # SEPARATOR_CHECK
            if regs[S_CMP] > 0:  # separator > key: take this child
                return read_child(ctx, regs[R_INDEX])
            regs[R_INDEX] += 1
            return separator_step(ctx)
        if state == 5:  # LEAF_CHECK
            if regs[S_CMP] == 0:
                ctx.state = 7
                return (K_MEMREAD, regs[R_SLOTS] + 8 * regs[R_INDEX], 8, S_VALUE)
            regs[R_INDEX] += 1
            return leaf_step(ctx)
        if state == 6:  # READ_CHILD
            child = up(regs[S_CHILD], 0)[0]
            ctx.state = 3
            return (K_MEMREAD, child, 40, S_NODE)
        # READ_VALUE
        return (K_DONE, up(regs[S_VALUE], 0)[0])

    return CompiledStep(
        _make_step(program, dispatch, after_parse), 11, False, program.NAME
    )


#: Exact class match only — a subclass may override any hook, so it falls
#: back to the prebound tier, which calls the real ``step``.
_SPECIALIZERS: Dict[type, Callable[[object], CompiledStep]] = {
    LinkedListCfa: _spec_linked_list,
    BinaryTreeCfa: _spec_binary_tree,
    HashOfListsCfa: _spec_hash_of_lists,
    SkipListCfa: _spec_skip_list,
    HashTableCfa: _spec_hash_table,
    TrieCfa: _spec_trie,
    BPlusTreeCfa: _spec_bplus_tree,
}


def _translate(ctx: QueryContext, outcome) -> tuple:
    """Convert an interpreted :class:`StepOutcome` into the tuple protocol."""
    ctx.state = outcome.next_state
    action = outcome.action
    if action is None:
        return _WAIT
    if isinstance(action, Done):
        return (K_DONE, action.value)
    if isinstance(action, Fault):
        return (K_FAULT, action.code, action.detail)
    return (K_ACTION, action)


def _prebound(program) -> CompiledStep:
    """The prebound tier: capture ``step`` once, translate outcomes."""
    step = program.step

    def fn(ctx: QueryContext) -> tuple:
        return _translate(ctx, step(ctx))

    return CompiledStep(fn, 0, True, program.NAME)


def dispatch_step(firmware: FirmwareImage, space: AddressSpace) -> CompiledStep:
    """The fallback route: look the program up on every step.

    Queries whose header type has no compiled entry (an unregistered type
    code) or whose header page was unmapped at accept bind to this step.
    Each step reads the type byte until PARSE has cached the header, asks
    ``firmware.program_for`` for the program — so an unknown type raises
    :class:`~repro.errors.FirmwareError` (``BAD_TYPE``) and an unmapped
    page a memory fault on the step that meets it — and translates the
    outcome exactly like :func:`_prebound`.  It captures the firmware
    image and the address space, never the accelerator (which holds the
    step, so capturing it would form a reference cycle); ``adopt``
    mutates the image in place, so the capture sees hot-swaps.
    """
    program_for = firmware.program_for
    read_u8 = space.read_u8

    def fn(ctx: QueryContext) -> tuple:
        header = ctx.header
        type_code = (
            header.type_code if header is not None else read_u8(ctx.header_addr + 8)
        )
        return _translate(ctx, program_for(type_code, op=ctx.op).step(ctx))

    return CompiledStep(fn, 0, True, "dispatch")


def specialize_program(program) -> CompiledStep:
    """Compile one lookup program (specialized when recognised)."""
    factory = _SPECIALIZERS.get(type(program))
    if factory is not None:
        return factory(program)
    return _prebound(program)


def compile_firmware(
    firmware: FirmwareImage,
) -> Tuple[Dict[int, CompiledStep], Dict[int, CompiledStep]]:
    """Compile every registered program: the firmware-load-time pass.

    Returns ``(lookup_table, mutation_table)`` keyed by type code.  Called
    lazily by the accelerator whenever ``firmware.epoch`` moves (initial
    load, runtime ``register``, hot-swap ``adopt``).
    """
    lookups = {
        tc: specialize_program(firmware.program_for(tc)) for tc in firmware.types()
    }
    mutators = {
        tc: _prebound(firmware.program_for(tc, op=OP_INSERT))
        for tc in firmware.mutation_types()
    }
    return lookups, mutators
