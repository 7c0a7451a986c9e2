"""Reference trace builder: the test oracle for ``cpu/trace.py``.

This is the original ``Trace`` / ``TraceBuilder`` pair, which kept a trace
as a list of :class:`~repro.cpu.isa.MicroOp` objects, one per dynamic op.
It is kept unchanged except for the imports, and minus the unused
``Trace.counts()`` / ``Trace.extend()``.  ``repro.cpu.trace`` now stores
traces as parallel columns; its ``Trace[i]`` views must equal the ops
emitted here, one for one, for every emit sequence
(``tests/test_trace_lockstep.py``).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence

from repro.cpu.isa import MicroOp, OpKind


class Trace:
    """An ordered micro-op stream."""

    __slots__ = ("ops",)

    def __init__(self, ops: Optional[List[MicroOp]] = None) -> None:
        self.ops: List[MicroOp] = ops if ops is not None else []

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.ops)

    def __getitem__(self, index: int) -> MicroOp:
        return self.ops[index]


class TraceBuilder:
    """Appends micro-ops and hands back their indices for dependences."""

    def __init__(self) -> None:
        self._trace = Trace()
        self._ops = self._trace.ops

    @property
    def trace(self) -> Trace:
        return self._trace

    def __len__(self) -> int:
        return len(self._ops)

    def _emit(self, op: MicroOp) -> int:
        ops = self._ops
        ops.append(op)
        return len(ops) - 1

    # ------------------------------------------------------------------ #

    def load(self, vaddr: int, deps: Sequence[int] = ()) -> int:
        return self._emit(MicroOp(OpKind.LOAD, vaddr, tuple(deps)))

    def load_span(self, vaddr: int, length: int, deps: Sequence[int] = ()) -> List[int]:
        """One load per cacheline covered by ``[vaddr, vaddr + length)``."""
        ids = []
        line = 64
        first = vaddr - vaddr % line
        last = (vaddr + max(length, 1) - 1) - (vaddr + max(length, 1) - 1) % line
        addr = first
        while addr <= last:
            ids.append(self.load(addr, deps))
            addr += line
        return ids

    def alu(
        self, deps: Sequence[int] = (), *, latency: Optional[int] = None, count: int = 1
    ) -> int:
        """Emit ``count`` dependent ALU ops; returns the last one's index."""
        ops = self._ops
        first = len(ops)
        ops.append(MicroOp(OpKind.ALU, None, tuple(deps), False, None, latency))
        ops.extend([
            MicroOp(OpKind.ALU, None, (prev,), False, None, latency)
            for prev in range(first, first + count - 1)
        ])
        return len(ops) - 1

    def branch(self, deps: Sequence[int] = (), *, mispredicted: bool = False) -> int:
        return self._emit(MicroOp(OpKind.BRANCH, None, tuple(deps), mispredicted))

    def query_b(self, payload: Any, deps: Sequence[int] = ()) -> int:
        return self._emit(MicroOp(OpKind.QUERY_B, deps=tuple(deps), payload=payload))

    def query_nb(self, payload: Any, deps: Sequence[int] = ()) -> int:
        return self._emit(MicroOp(OpKind.QUERY_NB, deps=tuple(deps), payload=payload))

    def wait_result(self, payload: Any, deps: Sequence[int] = ()) -> int:
        return self._emit(
            MicroOp(OpKind.WAIT_RESULT, deps=tuple(deps), payload=payload)
        )

    def ifetch_stall(self, cycles: int, deps: Sequence[int] = ()) -> int:
        """An instruction-cache/decode stall of ``cycles`` (pseudo-op)."""
        return self._emit(
            MicroOp(OpKind.IFETCH_STALL, deps=tuple(deps), latency_override=cycles)
        )

    def other_work(self, instructions: int) -> int:
        """Independent filler instructions around the query (query density).

        Models the non-query part of a request loop (key pre-processing,
        memcpy, thread management in RocksDB's seek loop, Sec. VII-A).
        Emitted as short independent chains so they enjoy normal ILP.
        """
        ops = self._ops
        first = len(ops)
        ops.extend([
            MicroOp(OpKind.ALU, None, () if i % 4 == 0 else (first + i - 1,))
            for i in range(instructions)
        ])
        return first + instructions - 1 if instructions else -1
