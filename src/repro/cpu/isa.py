"""Abstract micro-operation ISA for the trace-driven core model.

Only what the timing model needs: operation class, memory address for
loads/stores, register dependences (as indices of earlier trace ops), and
branch outcome.  ``QUERY_B`` / ``QUERY_NB`` / ``WAIT_RESULT`` are resolved by
an external port (the QEI accelerator) during timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


class OpKind(enum.Enum):
    """Micro-op classes distinguished by the timing model."""

    LOAD = "load"
    STORE = "store"
    ALU = "alu"
    BRANCH = "branch"
    #: QEI blocking query: behaves like a long-latency load (Sec. IV-C).
    QUERY_B = "query_b"
    #: QEI non-blocking query: behaves like a store, retires on accept.
    QUERY_NB = "query_nb"
    #: Wide poll of non-blocking results (SNAPSHOT_READ-style).
    WAIT_RESULT = "wait_result"
    #: Instruction-supply stall: the fetch unit misses the L1I / decodes a
    #: cold code path.  A pseudo-op: it redirects the frontend for
    #: ``latency_override`` cycles but retires no instruction.  Workload
    #: baselines emit these where the paper's top-down profiling finds
    #: frontend-bound behaviour (Sec. II-A).
    IFETCH_STALL = "ifetch_stall"


#: Op kinds that occupy a load-queue slot.
LOAD_LIKE = (OpKind.LOAD, OpKind.QUERY_B)
#: Op kinds that occupy a store-queue slot.
STORE_LIKE = (OpKind.STORE, OpKind.QUERY_NB)


@dataclass(slots=True)
class MicroOp:
    """One dynamic micro-operation in a trace.

    Traces store ops as columns (:mod:`repro.cpu.trace`); a ``MicroOp`` is
    the per-op view that ``trace[i]`` and iteration build on demand, and
    what a query port receives for the QUERY_B / QUERY_NB / WAIT_RESULT ops
    it resolves.  Each op uses only the one operand field its kind needs.

    Attributes:
        kind: operation class.
        vaddr: virtual address for memory ops (None otherwise).
        deps: indices of earlier ops whose results this op consumes.
        mispredicted: for branches — whether the (data-dependent) branch
            direction was mispredicted; the workload's trace builder decides
            using its branch model.
        payload: opaque handle for external ops (a query descriptor for
            QUERY_B/QUERY_NB, a batch handle for WAIT_RESULT).
        latency_override: fixed execution latency, used for multi-cycle ALU
            ops such as hash mixing.
    """

    kind: OpKind
    vaddr: Optional[int] = None
    deps: Tuple[int, ...] = field(default_factory=tuple)
    mispredicted: bool = False
    payload: Any = None
    latency_override: Optional[int] = None
