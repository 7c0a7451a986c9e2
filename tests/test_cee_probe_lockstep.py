"""The CEE's inline memory probe in lockstep with the full walk.

The CEE driver times a memory read or local compare inline when every line
hits its home's micro-TLB and the scheme's FastMem record, and reads the
operand through the address space's frame memo
(``Integration.cee_probe``).  Each case here runs twice on every scheme:
as built, and with the reference on — the hierarchy memo unbound everywhere
(``tests/mem_reference.py``: no ``fastmem``, so every micro-op goes through
``Integration.mem_read`` / ``compare`` and the reference walk) and every
operand read translated.  Both runs must agree on every query's outcome,
every counter, every report byte and the engine's event count.

The accelerator drill walks the probe through what invalidates its state:
an interrupt flush (TLB shootdown), an online resize (new pages: the walk
and frame memos clear), a slice failure, a page unmapped under in-flight
queries, and a page moved to a new frame and then written.  The probe must
also be live: it times a positive number of micro-ops as built and none on
the reference side.
"""

from __future__ import annotations

import pytest

from repro.config import small_config
from repro.core.accelerator import QueryRequest
from repro.core.integration import Integration
from repro.datastructs import CuckooHashTable, SkipList
from repro.datastructs.hashing import signature_of
from repro.serve.driver import run_serving
from repro.system import System

from . import mem_reference

SCHEMES = ["cha-tlb", "cha-notlb", "core-integrated", "device-direct", "device-indirect"]


def _keys(n, length):
    return [(b"q%03d" % i).ljust(length, b"-") for i in range(n)]


def _instrument(monkeypatch, reference: bool):
    """Count the integration's whole-micro-op calls; collect every System."""
    calls = {"mem_read": 0, "mem_write": 0, "compare": 0}
    systems = []
    for name in calls:
        original = getattr(Integration, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Integration, name, counted)
    init = System.__init__

    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        systems.append(self)

    monkeypatch.setattr(System, "__init__", register)
    if reference:
        mem_reference.memo_off_everywhere(monkeypatch)
        mem_reference.reads_translated_everywhere(monkeypatch)
    return calls, systems


def _probed(system, calls) -> int:
    """Micro-ops the probe timed: the integration counted them, unasked."""
    stats = system.stats.snapshot()
    scope = f"qei.{system.integration.scheme.value}"
    return (
        stats[f"{scope}.uops.mem"] - calls["mem_read"] - calls["mem_write"]
        + stats[f"{scope}.uops.compare"] - calls["compare"]
    )


def _outcomes(handles):
    return [
        (h.status, h.value, h.abort_code, h.completion_cycle) for h in handles
    ]


# --------------------------------------------------------------------- #
# Serving with writes
# --------------------------------------------------------------------- #


def _serve(scheme, monkeypatch, reference):
    with monkeypatch.context() as patch:
        calls, systems = _instrument(patch, reference)
        report = run_serving(scheme, requests=600, seed=11, write_ratio=0.05)
    (system,) = systems
    return (
        report.dump(),
        system.stats.snapshot(),
        system.engine.events_processed,
    ), _probed(system, calls)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_serving_with_writes_matches_reference(scheme, monkeypatch):
    probed, probed_count = _serve(scheme, monkeypatch, reference=False)
    walked, walked_count = _serve(scheme, monkeypatch, reference=True)
    assert probed == walked
    assert probed_count > 0
    assert walked_count == 0


# --------------------------------------------------------------------- #
# Accelerator drill: flush, resize, slice failure, unmap, remap
# --------------------------------------------------------------------- #


def _drill(scheme):
    system = System(small_config(2), scheme)
    system.enable_mutations()
    engine = system.engine
    accelerator = system.accelerator
    space = system.space
    table = CuckooHashTable(system.mem, key_length=16, num_buckets=32)
    table_keys = _keys(40, 16)
    for i, key in enumerate(table_keys):
        table.insert(key, 1000 + i)
    # 40-byte keys: compares that cross a line, and core-integrated's
    # remote compares.
    slist = SkipList(system.mem, key_length=40)
    list_keys = _keys(24, 40)
    for i, key in enumerate(list_keys):
        slist.insert(key, 2000 + i)
    results = system.mem.alloc(16 * 512, align=64)
    handles = []

    def burst(structure, keys, step=1):
        for key in keys[::step]:
            n = len(handles)
            handles.append(
                accelerator.submit(
                    QueryRequest(
                        header_addr=structure.header_addr,
                        key_addr=structure.store_key(key),
                        blocking=n % 3 != 0,
                        result_addr=results + 16 * n,
                        core_id=n % 2,
                    ),
                    engine.now,
                )
            )

    def run_for(cycles):
        engine.run(until=engine.now + cycles)

    # Warm every structure, then flush mid-walk: the shootdown clears the
    # translations the probe replays.
    burst(table, table_keys)
    burst(slist, list_keys)
    engine.run()
    burst(table, table_keys, 2)
    burst(slist, list_keys, 3)
    run_for(150)
    accelerator.flush()
    engine.run()

    # An online resize under live queries: new pages, memos cleared.
    burst(table, table_keys, 3)
    resizer = system.start_resize(table, chunk_buckets=8)
    resizer.start()
    run_for(60)
    resizer.step()
    burst(table, table_keys, 5)
    run_for(200)
    while not resizer.finished:
        resizer.step()
    resizer.commit()
    engine.run()
    burst(table, table_keys)

    # A slice failure with queries bound to the failed home.
    burst(slist, list_keys, 2)
    run_for(100)
    live = [h for h in handles if not h.done]
    home = live[0].home if live else handles[-1].home
    accelerator.fail_home(home)
    run_for(100)
    accelerator.restore_home(home)
    engine.run()

    # A bucket page unmapped under in-flight queries, then restored.
    page_bytes = space.page_bytes
    bucket_page = table.table_addr - table.table_addr % page_bytes
    burst(table, table_keys, 2)
    run_for(40)
    pte = space.unmap_page(bucket_page, free_frame=False)
    run_for(300)
    space.restore_page(bucket_page, pte)
    engine.run()
    burst(table, table_keys, 2)

    # A record page moved to a new frame, then written: a remembered frame
    # of the old mapping would return the old value.
    key = table_keys[7]
    _slot, record = table._find_slot(key, signature_of(key) or 1)
    record_page = record - record % page_bytes
    content = space.read(record_page, page_bytes)
    writable = space.unmap_page(record_page, free_frame=False).writable
    space.map_page(record_page, writable=writable)
    space.write(record_page, content)
    for i, key in enumerate(table_keys):
        table.insert(key, 5000 + i)
    burst(table, table_keys)
    engine.run()
    accelerator.drain()
    return (
        _outcomes(handles),
        system.stats.snapshot(),
        engine.events_processed,
    ), system


def _run_drill(scheme, monkeypatch, reference):
    with monkeypatch.context() as patch:
        calls, _systems = _instrument(patch, reference)
        observed, system = _drill(scheme)
    return observed, _probed(system, calls)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_accelerator_drill_matches_reference(scheme, monkeypatch):
    probed, probed_count = _run_drill(scheme, monkeypatch, reference=False)
    walked, walked_count = _run_drill(scheme, monkeypatch, reference=True)
    assert probed == walked
    assert probed_count > 0
    assert walked_count == 0
    outcomes = probed[0]
    # The drill reached every outcome it aims at, and the moved page's
    # new values.
    statuses = {status.value for status, _v, _c, _t in outcomes}
    assert {"found", "aborted", "fault"} <= statuses
    assert any(value is not None and value >= 5000 for _s, value, _c, _t in outcomes)
