"""Extension firmware: CFA programs beyond the factory image.

These programs demonstrate the paper's firmware-update story (Sec. IV-B) on
structures the accelerator did not ship with.  Register them at runtime::

    system.firmware.register(BPlusTreeCfa())

The image is the accelerator's step table, so the next accepted query of
that type binds the new program's step: loaded firmware runs through the
same CEE driver, at the same per-step cost, as the factory image.
"""

from __future__ import annotations

from .cfa import K_COMPARE, K_DONE, K_MEMREAD, U64, CfaProgram, QueryContext
from .header import StructureType

# B+-tree registers.
_B_NODE, _B_CMP, _B_CHILD, _B_VALUE = 2, 3, 4, 5
_B_KLEN, _B_COUNT, _B_KEYS, _B_SLOTS, _B_INDEX = 6, 7, 8, 9, 10


class BPlusTreeCfa(CfaProgram):
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
    STATES = CfaProgram.PRELUDE_STATES + (
        "FETCH_NODE",
        "SEPARATOR",
        "SEPARATOR_CHECK",
        "LEAF_KEY",
        "LEAF_CHECK",
        "READ_CHILD",
        "READ_VALUE",
    )
    NREGS = 11

    def after_parse(self, ctx: QueryContext) -> tuple:
        ctx.scratch[_B_KLEN] = ctx.header.key_length
        root = ctx.header.root_ptr
        if not root:
            return (K_DONE, None)
        ctx.state = 3
        return (K_MEMREAD, root, 40, _B_NODE)

    def dispatch(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        state = ctx.state
        if state == 3:  # FETCH_NODE
            node = regs[_B_NODE]
            flags = U64(node, 0)[0]
            regs[_B_COUNT] = U64(node, 8)[0]
            regs[_B_KEYS] = U64(node, 24)[0]
            regs[_B_SLOTS] = U64(node, 32)[0]
            regs[_B_INDEX] = 0
            if flags & 0x1:  # leaf
                return self._leaf_step(ctx)
            return self._separator_step(ctx)
        if state == 4:  # SEPARATOR_CHECK
            if regs[_B_CMP] > 0:  # separator > key: take this child
                return self._read_child(ctx, regs[_B_INDEX])
            regs[_B_INDEX] += 1
            return self._separator_step(ctx)
        if state == 5:  # LEAF_CHECK
            if regs[_B_CMP] == 0:
                ctx.state = 7
                return (K_MEMREAD, regs[_B_SLOTS] + 8 * regs[_B_INDEX], 8, _B_VALUE)
            regs[_B_INDEX] += 1
            return self._leaf_step(ctx)
        if state == 6:  # READ_CHILD
            child = U64(regs[_B_CHILD], 0)[0]
            ctx.state = 3
            return (K_MEMREAD, child, 40, _B_NODE)
        # READ_VALUE
        return (K_DONE, U64(regs[_B_VALUE], 0)[0])

    def _separator_step(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        index = regs[_B_INDEX]
        if index >= regs[_B_COUNT]:
            return self._read_child(ctx, regs[_B_COUNT])  # rightmost child
        ctx.state = 4
        klen = regs[_B_KLEN]
        return (K_COMPARE, regs[_B_KEYS] + index * klen, klen, _B_CMP)

    def _leaf_step(self, ctx: QueryContext) -> tuple:
        regs = ctx.scratch
        index = regs[_B_INDEX]
        if index >= regs[_B_COUNT]:
            return (K_DONE, None)
        ctx.state = 5
        klen = regs[_B_KLEN]
        return (K_COMPARE, regs[_B_KEYS] + index * klen, klen, _B_CMP)

    def _read_child(self, ctx: QueryContext, index: int) -> tuple:
        ctx.state = 6
        return (K_MEMREAD, ctx.scratch[_B_SLOTS] + 8 * index, 8, _B_CHILD)
