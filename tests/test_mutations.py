"""Tests for the accelerated mutation subsystem (write CFAs).

Covers the hash table's INSERT/UPDATE/DELETE program through the CEE,
the seqlock header protocol (reader conflict aborts, orphaned-lock
reclaim, read-only protection), the online hash-table resize under live
queries, and the mixed-workload chaos / cluster integration on top.
"""

import pytest

from repro import small_config
from repro.core.abort import AbortCode
from repro.core.accelerator import QueryRequest, QueryStatus
from repro.core.cfa import OP_DELETE, OP_INSERT, OP_UPDATE
from repro.core.header import FLAG_READ_ONLY, FLAG_RESIZING, VERSION_OFFSET
from repro.core.mutations import (
    MUT_DELETED,
    MUT_INSERTED,
    MUT_UPDATED,
    make_mutator,
)
from repro.datastructs import CuckooHashTable, SkipList
from repro.errors import DataStructureError
from repro.system import System


def keys_of(n, length=16):
    return [(b"k%03d" % i).ljust(length, b"_") for i in range(n)]


@pytest.fixture
def system():
    sys_ = System(small_config())
    sys_.enable_mutations()
    return sys_


def build_hash(system, n=24):
    table = CuckooHashTable(system.mem, key_length=16, num_buckets=32)
    keys = keys_of(n)
    for i, key in enumerate(keys):
        table.insert(key, 100 + i)
    return table, keys


BUILDERS = [build_hash]
IDS = ["hash"]


def read_via_cfa(system, structure, key):
    handle = system.accelerator.submit(
        QueryRequest(
            header_addr=structure.header_addr,
            key_addr=structure.store_key(key),
        ),
        system.engine.now,
    )
    system.accelerator.wait_for(handle)
    return handle


# --------------------------------------------------------------------- #
# The hash-table CFA paths
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
def test_accelerated_update_delete_insert(system, build):
    structure, keys = build(system)
    mutator = make_mutator(system, structure)
    executor = system.mutations()

    assert executor.run(mutator, OP_UPDATE, keys[3], 999) == MUT_UPDATED
    assert read_via_cfa(system, structure, keys[3]).value == 999
    assert structure.lookup(keys[3]) == 999

    assert executor.run(mutator, OP_DELETE, keys[5]) == MUT_DELETED
    assert read_via_cfa(system, structure, keys[5]).status is QueryStatus.NOT_FOUND
    assert structure.lookup(keys[5]) is None

    fresh = b"fresh-key".ljust(16, b"_")
    assert executor.run(mutator, OP_INSERT, fresh, 4242) == MUT_INSERTED
    assert read_via_cfa(system, structure, fresh).value == 4242
    assert structure.lookup(fresh) == 4242


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
def test_update_and_delete_miss_return_none(system, build):
    structure, _ = build(system)
    mutator = make_mutator(system, structure)
    executor = system.mutations()
    absent = b"no-such-key".ljust(16, b"_")
    before = system.space.read_u64(structure.header_addr + VERSION_OFFSET)
    assert executor.run(mutator, OP_UPDATE, absent, 1) is None
    assert executor.run(mutator, OP_DELETE, absent) is None
    after = system.space.read_u64(structure.header_addr + VERSION_OFFSET)
    # A miss publishes nothing: the lock round-trips back to the same
    # even version instead of burning an ordinal.
    assert after == before
    assert after % 2 == 0


@pytest.mark.parametrize("build", BUILDERS, ids=IDS)
def test_commits_bump_version_by_two(system, build):
    structure, keys = build(system)
    mutator = make_mutator(system, structure)
    executor = system.mutations()
    vaddr = structure.header_addr + VERSION_OFFSET
    before = system.space.read_u64(vaddr)
    handle = executor.submit(mutator, OP_UPDATE, keys[0], 321)
    system.accelerator.wait_for(handle)
    assert handle.value == MUT_UPDATED
    assert handle.commit_version == before
    assert system.space.read_u64(vaddr) == before + 2


def test_make_mutator_rejects_structures_without_a_write_program(system):
    slist = SkipList(system.mem, key_length=16)
    with pytest.raises(DataStructureError, match="no mutation support"):
        make_mutator(system, slist)


# --------------------------------------------------------------------- #
# Seqlock protocol
# --------------------------------------------------------------------- #


def test_reader_aborts_on_mid_walk_version_bump(system):
    table, keys = build_hash(system)
    vaddr = table.header_addr + VERSION_OFFSET
    # Hold the lock (odd version): the reader's PARSE-time validation sees
    # a writer in flight and aborts with VERSION_CONFLICT.
    version = system.space.read_u64(vaddr)
    system.space.write_u64(vaddr, version + 1)
    handle = read_via_cfa(system, table, keys[0])
    assert handle.status is QueryStatus.FAULT
    assert handle.abort_code is AbortCode.VERSION_CONFLICT
    system.space.write_u64(vaddr, version)
    assert read_via_cfa(system, table, keys[0]).value == 100


def test_writer_backs_off_then_aborts_under_held_lock(system):
    table, keys = build_hash(system)
    mutator = make_mutator(system, table)
    executor = system.mutations()
    vaddr = table.header_addr + VERSION_OFFSET
    version = system.space.read_u64(vaddr)
    system.space.write_u64(vaddr, version + 1)
    handle = executor.submit(mutator, OP_UPDATE, keys[0], 555)
    system.accelerator.wait_for(handle)
    assert handle.status is QueryStatus.FAULT
    assert handle.abort_code is AbortCode.VERSION_CONFLICT
    # The orphaned holder published nothing and holds no QST write intent,
    # so the software fallback reclaims the lock and applies.
    assert executor.fallback(
        mutator, OP_UPDATE, keys[0], 555, code=handle.abort_code
    ) == MUT_UPDATED
    assert table.lookup(keys[0]) == 555
    assert system.space.read_u64(vaddr) % 2 == 0


def test_read_only_structure_faults_protection(system):
    table, keys = build_hash(system)
    header = table.header()
    table._update_header(flags=header.flags | FLAG_READ_ONLY)
    mutator = make_mutator(system, table)
    handle = system.mutations().submit(mutator, OP_UPDATE, keys[0], 1)
    system.accelerator.wait_for(handle)
    assert handle.status is QueryStatus.FAULT
    assert handle.abort_code is AbortCode.PROTECTION


# --------------------------------------------------------------------- #
# Online resize
# --------------------------------------------------------------------- #


def test_online_resize_under_live_queries(system):
    table, keys = build_hash(system, n=28)
    mutator = make_mutator(system, table)
    executor = system.mutations()
    resizer = system.start_resize(table, chunk_buckets=8)
    resizer.start()
    moved = resizer.step()
    assert moved > 0 and not resizer.finished
    assert table.header().flags & FLAG_RESIZING

    # Reads keep resolving mid-migration via old-or-new routing.
    handle = read_via_cfa(system, table, keys[1])
    if handle.status is QueryStatus.FAULT:
        assert handle.abort_code is AbortCode.VERSION_CONFLICT
    else:
        assert handle.value == 101

    # Accelerated writes refuse the ambiguous window and fall back.
    whandle = executor.submit(mutator, OP_UPDATE, keys[2], 777)
    system.accelerator.wait_for(whandle)
    assert whandle.status is QueryStatus.FAULT
    assert whandle.abort_code is AbortCode.VERSION_CONFLICT
    assert executor.fallback(
        mutator, OP_UPDATE, keys[2], 777, code=whandle.abort_code
    ) == MUT_UPDATED

    while not resizer.finished:
        resizer.step()
    resizer.commit()
    system.engine.run()
    assert resizer.committed
    assert table.num_buckets == 64
    assert not table.header().flags & FLAG_RESIZING
    for i, key in enumerate(keys):
        expect = 777 if i == 2 else 100 + i
        assert table.lookup(key) == expect
        assert read_via_cfa(system, table, key).value == expect


def test_resize_run_to_completion(system):
    table, keys = build_hash(system, n=20)
    resizer = system.start_resize(table, chunk_buckets=4)
    resizer.run_to_completion()
    assert resizer.committed
    assert table.num_buckets == 64
    for i, key in enumerate(keys):
        assert table.lookup(key) == 100 + i


# --------------------------------------------------------------------- #
# Chaos + cluster integration
# --------------------------------------------------------------------- #


def test_mutation_chaos_mixed_phase_clean():
    from repro.faults.chaos import run_mutation_chaos

    report = run_mutation_chaos(
        "cha-tlb", seed=7, requests=200, tenants=2, write_ratio=0.5
    )
    checks = report.checks
    assert checks["wrong_reads"] == 0
    assert checks["lost_or_phantom"] == 0
    assert checks["result_errors"] == 0
    assert checks["availability"] == 1.0
    assert checks["swap_committed"] and checks["resize_committed"]
    # Byte-identical re-run: the mixed phase stays deterministic.
    again = run_mutation_chaos(
        "cha-tlb", seed=7, requests=200, tenants=2, write_ratio=0.5
    )
    assert report.dump() == again.dump()


def test_cluster_mixed_workload_routes_writes_to_primary():
    from repro.config import ClusterConfig, ServeConfig
    from repro.serve.cluster import SimulatedCluster

    cluster = SimulatedCluster(
        "cha-tlb",
        cluster_config=ClusterConfig(nodes=2, replication=2),
        serve_config=ServeConfig(tenants=2, write_ratio=0.5),
        seed=7,
        requests=120,
    )
    report = cluster.run()
    fleet = report.fleet
    assert fleet["completed"] == 120
    assert fleet["result_errors"] == 0
    assert fleet["writes_ok"] > 0
    assert fleet["write_problems"] == 0
    assert cluster.write_audit() == []
