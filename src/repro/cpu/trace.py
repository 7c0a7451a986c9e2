"""Trace container and a fluent builder used by the workloads.

A :class:`Trace` is a micro-op stream in program order, stored as three
parallel columns rather than one object per op:

* ``kinds[i]`` — the op's :class:`~repro.cpu.isa.OpKind`;
* ``deps[i]`` — its register dependences: ``-1`` for none, a single
  non-negative int for one earlier op, else the tuple of indices (two or
  more deps, or a lone negative one);
* ``args[i]`` — the one operand its kind uses: the ``vaddr`` of a load or
  store, the ``latency_override`` of an ALU op or fetch stall (``None``
  for the default), the ``mispredicted`` flag of a branch, or the
  ``payload`` of a query / wait op.

A software-baseline trace runs to about 100k ops, and the core model reads
three list slots per op.  Columns keep trace generation to list appends and
extends, with no object per op for the garbage collector to walk: only the
few ops with two or more deps carry a tuple.
``trace[i]`` and iteration still yield :class:`~repro.cpu.isa.MicroOp`
views, equal to the op the builder was asked to emit.

The builder returns the index of each emitted op so callers chain register
dependences naturally::

    b = TraceBuilder()
    node = b.load(addr_of_root)              # load root pointer
    key = b.load(key_addr)                   # independent load
    cmp_ = b.alu(deps=(node, key))           # compare
    b.branch(deps=(cmp_,), mispredicted=True)
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, List, Optional, Sequence

from .isa import MicroOp, OpKind

_LOAD, _STORE, _ALU = OpKind.LOAD, OpKind.STORE, OpKind.ALU

#: The MicroOp field each kind's ``args`` column entry fills in.
_ARG_FIELD = {
    OpKind.LOAD: "vaddr",
    OpKind.STORE: "vaddr",
    OpKind.ALU: "latency_override",
    OpKind.IFETCH_STALL: "latency_override",
    OpKind.BRANCH: "mispredicted",
    OpKind.QUERY_B: "payload",
    OpKind.QUERY_NB: "payload",
    OpKind.WAIT_RESULT: "payload",
}


def _pack_deps(deps: Sequence[int]) -> object:
    """The ``deps`` column entry for one op's dependence list."""
    if not deps:
        return -1
    if len(deps) == 1 and deps[0] >= 0:
        return deps[0]
    return tuple(deps)


class Trace:
    """An ordered micro-op stream, held as parallel columns."""

    __slots__ = ("kinds", "deps", "args")

    def __init__(self) -> None:
        self.kinds: List[OpKind] = []
        self.deps: List[object] = []
        self.args: List[Any] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[MicroOp]:
        return map(self.__getitem__, range(len(self.kinds)))

    def __getitem__(self, index: int) -> MicroOp:
        """A :class:`MicroOp` view of op ``index`` (a fresh object)."""
        kind = self.kinds[index]
        deps = self.deps[index]
        if type(deps) is int:
            deps = () if deps < 0 else (deps,)
        return MicroOp(kind, deps=deps, **{_ARG_FIELD[kind]: self.args[index]})


class TraceBuilder:
    """Appends micro-ops and hands back their indices for dependences."""

    def __init__(self) -> None:
        self._trace = trace = Trace()
        self._kinds = trace.kinds
        self._deps = trace.deps
        self._args = trace.args

    @property
    def trace(self) -> Trace:
        return self._trace

    def __len__(self) -> int:
        return len(self._kinds)

    def _emit(self, kind: OpKind, deps: Sequence[int], arg: Any) -> int:
        kinds = self._kinds
        kinds.append(kind)
        self._deps.append(_pack_deps(deps))
        self._args.append(arg)
        return len(kinds) - 1

    # ------------------------------------------------------------------ #

    def load(self, vaddr: int, deps: Sequence[int] = ()) -> int:
        return self._emit(_LOAD, deps, vaddr)

    def load_span(self, vaddr: int, length: int, deps: Sequence[int] = ()) -> List[int]:
        """One load per cacheline covered by ``[vaddr, vaddr + length)``."""
        line = 64
        first = vaddr - vaddr % line
        end = vaddr + max(length, 1)
        addrs = range(first, end, line)
        start = len(self._kinds)
        self._kinds.extend(repeat(_LOAD, len(addrs)))
        self._deps.extend(repeat(_pack_deps(deps), len(addrs)))
        self._args.extend(addrs)
        return list(range(start, start + len(addrs)))

    def store(self, vaddr: int, deps: Sequence[int] = ()) -> int:
        return self._emit(_STORE, deps, vaddr)

    def alu(
        self, deps: Sequence[int] = (), *, latency: Optional[int] = None, count: int = 1
    ) -> int:
        """Emit ``count`` dependent ALU ops; returns the last one's index."""
        if count <= 1:
            return self._emit(_ALU, deps, latency)
        first = len(self._kinds)
        self._kinds.extend(repeat(_ALU, count))
        self._deps.append(_pack_deps(deps))
        self._deps.extend(range(first, first + count - 1))
        self._args.extend(repeat(latency, count))
        return first + count - 1

    def branch(self, deps: Sequence[int] = (), *, mispredicted: bool = False) -> int:
        return self._emit(OpKind.BRANCH, deps, mispredicted)

    def query_b(self, payload: Any, deps: Sequence[int] = ()) -> int:
        return self._emit(OpKind.QUERY_B, deps, payload)

    def query_nb(self, payload: Any, deps: Sequence[int] = ()) -> int:
        return self._emit(OpKind.QUERY_NB, deps, payload)

    def wait_result(self, payload: Any, deps: Sequence[int] = ()) -> int:
        return self._emit(OpKind.WAIT_RESULT, deps, payload)

    def ifetch_stall(self, cycles: int, deps: Sequence[int] = ()) -> int:
        """An instruction-cache/decode stall of ``cycles`` (pseudo-op)."""
        return self._emit(OpKind.IFETCH_STALL, deps, cycles)

    def other_work(self, instructions: int, deps: Sequence[int] = ()) -> int:
        """Independent filler instructions around the query (query density).

        Models the non-query part of a request loop (key pre-processing,
        memcpy, thread management in RocksDB's seek loop, Sec. VII-A).
        Emitted as short independent chains so they enjoy normal ILP: every
        fourth op takes ``deps``, the others the op before them.
        """
        first = len(self._kinds)
        chain = list(range(first - 1, first + instructions - 1))
        chain[::4] = [_pack_deps(deps)] * len(chain[::4])
        self._kinds.extend(repeat(_ALU, instructions))
        self._deps.extend(chain)
        self._args.extend(repeat(None, instructions))
        return first + instructions - 1 if instructions else -1
