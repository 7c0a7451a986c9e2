"""The firmware guide's example program runs exactly as printed.

``docs/firmware-guide.md`` walks a reader through ``ArrayScanCfa``.  This
test extracts that fenced example, registers it on a System and checks
its lookups against a software scan of a small array, plus the QST
state-budget check — so the guide cannot drift from the CFA protocol.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import small_config
from repro.core.accelerator import QueryRequest, QueryStatus
from repro.core.cfa import FirmwareImage
from repro.core.header import FLAG_VALID, DataStructureHeader
from repro.errors import FirmwareError
from repro.system import System

GUIDE = Path(__file__).resolve().parents[1] / "docs" / "firmware-guide.md"
KEY_LENGTH = 16


def _guide_namespace() -> dict:
    blocks = re.findall(r"```python\n(.*?)```", GUIDE.read_text(), re.S)
    (example,) = [block for block in blocks if "class ArrayScanCfa" in block]
    namespace: dict = {}
    exec(compile(example, str(GUIDE), "exec"), namespace)
    return namespace


@pytest.fixture(scope="module")
def guide():
    return _guide_namespace()


def _build_array(system, records, type_code):
    """Lay out ``{key_ptr, value, pad}`` records and their header."""
    mem, space = system.mem, system.space
    base = mem.alloc(24 * len(records), align=64)
    for index, (key, value) in enumerate(records):
        space.write_u64(base + 24 * index, mem.store_bytes(key))
        space.write_u64(base + 24 * index + 8, value)
    header_addr = mem.alloc_header()
    DataStructureHeader(
        root_ptr=base,
        type_code=type_code,
        subtype=0,
        key_length=KEY_LENGTH,
        flags=FLAG_VALID,
        size=len(records),
        aux=0,
    ).store(space, header_addr)
    return header_addr


def _software_scan(records, key):
    for stored, value in records:
        if stored == key:
            return value
    return None


def test_guide_example_answers_like_a_software_scan(guide):
    program_cls = guide["ArrayScanCfa"]
    system = System(small_config())
    system.firmware.register(program_cls())
    records = [((b"key%02d" % i).ljust(KEY_LENGTH, b"_"), 500 + 3 * i) for i in range(7)]
    header_addr = _build_array(system, records, program_cls.TYPE_CODE)
    probes = [key for key, _ in records] + [b"absent".ljust(KEY_LENGTH, b"_")]
    for key in probes:
        handle = system.accelerator.submit(
            QueryRequest(header_addr=header_addr, key_addr=system.mem.store_bytes(key)),
            system.engine.now,
        )
        system.accelerator.wait_for(handle)
        expected = _software_scan(records, key)
        assert handle.value == expected
        status = QueryStatus.NOT_FOUND if expected is None else QueryStatus.FOUND
        assert handle.status is status


def test_guide_example_fits_the_state_budget(guide):
    program = guide["ArrayScanCfa"]()
    program.validate(FirmwareImage().max_states)
    with pytest.raises(FirmwareError):
        FirmwareImage(max_states=len(program.STATES) - 1).register(program)
