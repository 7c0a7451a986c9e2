"""The configurable-finite-automaton (CFA) model (paper Sec. III).

A CFA has *fixed transition rules but configurable parameters*: each
data-structure type maps to one :class:`CfaProgram` whose states are driven
by the CFA Execution Engine.  Every step either performs an internal
transition (``(K_WAIT,)``, one CEE cycle) or issues exactly one
micro-operation to the Data Processing Unit / memory system.  A step
returns its micro-op as a flat tuple ``(kind, *operands)``; results land
in the query's register file (``ctx.scratch``, a slot-indexed list):

* ``(K_MEMREAD, vaddr, length, slot)`` — cacheline-granular memory fetch;
  ``K_MEMREAD_OPT`` adds a required-prefix length past which the fetch may
  truncate at an unmapped page, ``K_MEMREAD2`` fetches two segments
  concurrently;
* ``(K_COMPARE, mem_vaddr, length, slot)`` — (possibly remote, near-LLC)
  three-way compare against the query key;
* ``(K_HASH, src_slot, slot)`` — the DPU hashing unit;
* ``(K_ALU, cycles)`` — arithmetic/logic on intermediate data;
* ``(K_WRITE, segments, commit_version)``, ``(K_CAS, vaddr, expect, new,
  slot)`` and ``(K_DELAY, cycles)`` — the write path (docs/mutations.md);
* ``(K_DONE, value)`` / ``(K_FAULT, code, detail)`` — terminal transitions.

Programs are registered in a :class:`FirmwareImage`; new data structures are
supported by registering new programs at runtime — the paper's
firmware-update path (Sec. IV-B).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import FirmwareError
from .abort import AbortCode
from .header import DataStructureHeader

#: Architectural states shared by every program (Sec. IV-C / IV-D).
STATE_IDLE = "IDLE"
STATE_START = "START"
STATE_DONE = "DONE"
STATE_EXCEPTION = "EXCEPTION"

#: Result encodings written for non-blocking queries.
RESULT_PENDING = 0
RESULT_FOUND = 1
RESULT_NOT_FOUND = 2
RESULT_FAULT = 3
RESULT_ABORTED = 4

#: Query operation codes carried by a request (docs/mutations.md).  LOOKUP
#: is the read path every pre-mutation caller uses; the write ops dispatch
#: to the mutation program table registered for the structure type.
OP_LOOKUP = 0
OP_INSERT = 1
OP_DELETE = 2
OP_UPDATE = 3
OP_NAMES = {
    OP_LOOKUP: "lookup",
    OP_INSERT: "insert",
    OP_DELETE: "delete",
    OP_UPDATE: "update",
}
WRITE_OPS = (OP_INSERT, OP_DELETE, OP_UPDATE)

#: Tuple micro-op kinds.  The timed kinds (executed inline by the CEE
#: driver, producing a ready-at cycle) are all <= K_DELAY; the driver
#: relies on that ordering for its dispatch.
K_MEMREAD = 0
K_MEMREAD_OPT = 1
K_COMPARE = 2
K_HASH = 3
K_ALU = 4
K_MEMREAD2 = 5
K_WRITE = 6
K_CAS = 7
K_DELAY = 8
K_DONE = 9
K_FAULT = 10
K_WAIT = 11

#: Register slots of the shared prelude: the header line and the key.
S_HEADER = 0
S_KEY = 1

#: Little-endian u64 field decode of staged bytes: ``U64(data, offset)[0]``.
U64 = struct.Struct("<Q").unpack_from


# --------------------------------------------------------------------- #
# Per-query context (backs one QST entry)
# --------------------------------------------------------------------- #


@dataclass
class QueryContext:
    """All mutable per-query state a CFA program may touch.

    ``scratch`` is the register file: it models the QST entry's 64B
    intermediate-data field plus the architectural registers a microcoded
    engine would keep.  The driver sizes it to the program's
    :attr:`CfaProgram.NREGS` at accept; micro-ops deposit fetched bytes,
    compare outcomes and hashes into the slots they name, and programs
    keep small integers in the rest.  ``state`` is a small int; after a
    terminal micro-op the context is dead to the driver.
    """

    header_addr: int
    key_addr: int
    state: int = 0
    header: Optional[DataStructureHeader] = None
    key: bytes = b""
    scratch: list = field(default_factory=list)
    #: Operation code (OP_LOOKUP for the read path; WRITE_OPS dispatch to
    #: the mutation program table) and its operand: for UPDATE the new
    #: value, for INSERT the address of the core-staged record to publish.
    op: int = OP_LOOKUP
    operand: int = 0


# --------------------------------------------------------------------- #
# Programs and firmware
# --------------------------------------------------------------------- #


class CfaProgram:
    """Base class for one data structure's query CFA.

    Subclasses set :attr:`TYPE_CODE`, :attr:`NAME`, :attr:`STATES` and
    :attr:`NREGS`, and implement :meth:`after_parse` and :meth:`dispatch`.
    The CEE calls :meth:`step` each time the query's QST entry is
    selected; its shared prelude drives states 0-2 (START: fetch the 64B
    header; PARSE: decode and validate it; READ_KEY: fetch the key), then
    hands over to ``after_parse`` once and to ``dispatch`` for every
    program state (3 and up).  Each returns one tuple micro-op and sets
    ``ctx.state`` for the next step; terminal tuples leave it alone.
    """

    TYPE_CODE: int = 0
    NAME: str = "abstract"
    STATES: Tuple[str, ...] = ()
    #: Names of the prelude's states plus the two terminal states.
    PRELUDE_STATES = (STATE_START, "PARSE", "READ_KEY", STATE_DONE, STATE_EXCEPTION)
    #: Register-file size; slots 0/1 are the prelude's header and key.
    NREGS: int = 2
    #: Cap on the prelude's key fetch (None fetches ``key_length`` bytes);
    #: programs that stream long keys fetch the first chunk only.
    KEY_FETCH_MAX: Optional[int] = None
    #: Inclusive range of subtype values the program understands.
    SUBTYPE_MIN: int = 0
    SUBTYPE_MAX: int = 255
    #: True when the header's size field must be a positive count
    #: (static structures such as hash-table bucket arrays).
    REQUIRES_SIZE: bool = False

    def step(self, ctx: QueryContext) -> tuple:
        state = ctx.state
        if state >= 3:
            return self.dispatch(ctx)
        regs = ctx.scratch
        if state == 0:  # START
            ctx.state = 1
            return (K_MEMREAD, ctx.header_addr, 64, S_HEADER)
        if state == 1:  # PARSE
            raw = regs[S_HEADER]
            header = DataStructureHeader.decode(raw)
            code = self.validate_header(header, raw=raw)
            if code is not AbortCode.NONE:
                return (K_FAULT, int(code), f"header rejected: {code.name}")
            ctx.header = header
            ctx.state = 2
            length = header.key_length
            cap = self.KEY_FETCH_MAX
            if cap is not None and length > cap:
                length = cap
            return (K_MEMREAD, ctx.key_addr, length, S_KEY)
        # READ_KEY: the fetched key is exactly the requested length.
        ctx.key = regs[S_KEY]
        return self.after_parse(ctx)

    def after_parse(self, ctx: QueryContext) -> tuple:
        """First program transition, entered once the key is staged."""
        raise NotImplementedError

    def dispatch(self, ctx: QueryContext) -> tuple:
        """One transition out of a program state (``ctx.state >= 3``)."""
        raise NotImplementedError

    def validate_header(
        self, header: DataStructureHeader, raw: bytes = b""
    ) -> AbortCode:
        """Decode-time header checks run in the PARSE state (Sec. IV-D).

        Chains the generic field checks with the program's own parameter
        ranges; subclasses override to add structure-specific rules (e.g.
        the skip-list's max-level bound) and should call ``super()`` first.
        """
        code = header.validate(expected_type=self.TYPE_CODE, raw=raw)
        if code is not AbortCode.NONE:
            return code
        if not self.SUBTYPE_MIN <= header.subtype <= self.SUBTYPE_MAX:
            return AbortCode.BAD_SUBTYPE
        if self.REQUIRES_SIZE and header.size <= 0:
            return AbortCode.BAD_SIZE
        return AbortCode.NONE

    def validate(self, max_states: int) -> None:
        """Check the program fits the QST's state-field encoding."""
        if not self.STATES:
            raise FirmwareError(f"program {self.NAME!r} declares no states")
        if len(self.STATES) > max_states:
            raise FirmwareError(
                f"program {self.NAME!r} has {len(self.STATES)} states; the QST "
                f"state field encodes at most {max_states}"
            )
        required = {STATE_START, STATE_DONE}
        missing = required - set(self.STATES)
        if missing:
            raise FirmwareError(
                f"program {self.NAME!r} missing architectural states {missing}"
            )


class FirmwareImage:
    """The CEE's loaded state-transition rules, keyed by structure type.

    The engine is microcoded and configurable: :meth:`register` is the
    firmware-update path for emerging data structures (Sec. IV-B).
    """

    def __init__(self, *, max_states: int = 256) -> None:
        self.max_states = max_states
        self._programs: Dict[int, CfaProgram] = {}
        #: Mutation programs (INSERT/DELETE/UPDATE dispatch), keyed by the
        #: same structure type codes; absent entries mean writes for that
        #: type run entirely on the software path.
        self._mutators: Dict[int, CfaProgram] = {}
        #: Bumped on every table change (register or hot-swap adopt) so the
        #: accelerator's compiled-step table (core/specialize.py) can detect
        #: staleness with one integer compare per query admission.
        self.epoch = 0

    def register(
        self, program: CfaProgram, *, replace: bool = False, mutation: bool = False
    ) -> None:
        table = self._mutators if mutation else self._programs
        program.validate(self.max_states)
        if program.TYPE_CODE in table and not replace:
            raise FirmwareError(
                f"type code {program.TYPE_CODE} already has a program "
                f"({table[program.TYPE_CODE].NAME!r}); "
                "pass replace=True to update firmware"
            )
        table[program.TYPE_CODE] = program
        self.epoch += 1

    def staged_copy(self) -> "FirmwareImage":
        """A candidate image for a live update (same programs and budget).

        Hot-swap protocol: stage a copy, :meth:`register` the new programs
        on it (validation failures leave the live table untouched — that is
        the rollback), then :meth:`adopt` it once the CEE has quiesced.
        """
        staged = FirmwareImage(max_states=self.max_states)
        staged._programs = dict(self._programs)
        staged._mutators = dict(self._mutators)
        return staged

    def adopt(self, staged: "FirmwareImage") -> None:
        """Atomically switch to ``staged``'s program table (hot-swap commit)."""
        self._programs = staged._programs
        self._mutators = staged._mutators
        self.epoch += 1

    def program_for(self, type_code: int, *, op: int = OP_LOOKUP) -> CfaProgram:
        table = self._programs if op == OP_LOOKUP else self._mutators
        try:
            return table[type_code]
        except KeyError as exc:
            kind = "CFA" if op == OP_LOOKUP else "mutation CFA"
            raise FirmwareError(
                f"no {kind} program loaded for structure type {type_code}"
            ) from exc

    def supports(self, type_code: int) -> bool:
        return type_code in self._programs

    def types(self) -> List[int]:
        return sorted(self._programs)

    def mutation_types(self) -> List[int]:
        return sorted(self._mutators)
