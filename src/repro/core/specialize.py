"""Firmware loading: bind every registered CFA to the CEE's step table.

A CFA program is written once, in the form the CEE executes: int states, a
slot-indexed register file and tuple micro-ops (:mod:`repro.core.cfa`).
Loading firmware is therefore cheap.  :func:`compile_firmware` walks a
:class:`~repro.core.cfa.FirmwareImage` and captures one
:class:`CompiledStep` per registered ``(type_code, op-table)`` pair: the
program's bound ``step`` (so a subclass's overrides take effect), the
register-file size the driver allocates at accept, and the program name.
The accelerator rebuilds its tables whenever ``firmware.epoch`` moves.

Queries no table entry covers — an unregistered type code, or a header
page that is unmapped when the query is accepted — bind to
:func:`dispatch_step`, which resolves the program on every step and faults
exactly where a table-bound query would.

The entries hold bound methods only, never a closure that refers to
itself, so a dropped accelerator's tables die by reference counting.
``tests/cfa_reference.py`` keeps interpreted renderings of every built-in
program as oracles: ``tests/test_specialize_properties.py`` checks the
firmware against them step for step, and the golden-stats grid replays
whole runs with the oracles loaded instead.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..mem.paging import AddressSpace
from .cfa import OP_INSERT, CfaProgram, FirmwareImage, QueryContext


class CompiledStep:
    """One bound ``(program, op)`` entry in the accelerator's table."""

    __slots__ = ("step", "nregs", "name")

    def __init__(
        self, step: Callable[[QueryContext], tuple], nregs: int, name: str
    ) -> None:
        self.step = step
        self.nregs = nregs
        self.name = name


def _bind(program: CfaProgram) -> CompiledStep:
    return CompiledStep(program.step, program.NREGS, program.NAME)


def dispatch_step(firmware: FirmwareImage, space: AddressSpace) -> CompiledStep:
    """The fallback route: resolve the program on every step.

    Queries whose header type has no compiled entry (an unregistered type
    code) or whose header page was unmapped at accept bind to this step.
    Each step reads the type byte until PARSE has cached the header and
    asks ``firmware.program_for`` for the program — so an unknown type
    raises :class:`~repro.errors.FirmwareError` (``BAD_TYPE``) and an
    unmapped page a memory fault on the step that meets it — grows the
    register file to the program's size and runs the program's step.  It
    captures the firmware image and the address space, never the
    accelerator (which holds the step, so capturing it would form a
    reference cycle); ``adopt`` mutates the image in place, so the capture
    sees hot-swaps.
    """
    program_for = firmware.program_for
    read_u8 = space.read_u8

    def fn(ctx: QueryContext) -> tuple:
        header = ctx.header
        type_code = (
            header.type_code if header is not None else read_u8(ctx.header_addr + 8)
        )
        program = program_for(type_code, op=ctx.op)
        regs = ctx.scratch
        if len(regs) < program.NREGS:
            regs.extend([0] * (program.NREGS - len(regs)))
        return program.step(ctx)

    return CompiledStep(fn, 0, "dispatch")


def compile_firmware(
    firmware: FirmwareImage,
) -> Tuple[Dict[int, CompiledStep], Dict[int, CompiledStep]]:
    """Bind every registered program: the firmware-load-time pass.

    Returns ``(lookup_table, mutation_table)`` keyed by type code.  Called
    lazily by the accelerator whenever ``firmware.epoch`` moves (initial
    load, runtime ``register``, hot-swap ``adopt``).
    """
    lookups = {tc: _bind(firmware.program_for(tc)) for tc in firmware.types()}
    mutators = {
        tc: _bind(firmware.program_for(tc, op=OP_INSERT))
        for tc in firmware.mutation_types()
    }
    return lookups, mutators
