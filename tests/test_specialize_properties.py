"""Property tests: every CFA agrees with its interpreted oracle.

Each built-in program (``repro.core.programs``, ``programs_ext``,
``mutations``) is written once, in the register-and-tuple form the CEE
executes.  ``tests/cfa_reference.py`` keeps the interpreted rendering of
the same CFAs.  For every registered program the two must produce the
same normalized micro-op trace (read addresses and usable lengths, compare
operands and outcomes, hash inputs, ALU/delay cycles, write segments and
commit stamps, CAS operands and outcomes), the same terminal (Done value /
Fault code + detail) and the same raised exceptions, on randomized
structures and probe keys.

The two walkers run outside the accelerator: micro-ops are applied
*functionally* (reads/writes/compares really happen against the simulated
address space; timing is ignored — golden-stats pins timing end to end,
with the oracles loaded through the driver).  Lookups share one memory
image since they never write; mutation CFAs run against twin
identically-built systems because both walkers publish their stores.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import small_config
from repro.core.abort import AbortCode
from repro.core.accelerator import QueryRequest
from repro.core.cfa import (
    K_ALU,
    K_CAS,
    K_COMPARE,
    K_DELAY,
    K_DONE,
    K_FAULT,
    K_HASH,
    K_MEMREAD,
    K_MEMREAD_OPT,
    K_WRITE,
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    QueryContext,
)
from repro.core.header import FLAG_READ_ONLY, VERSION_OFFSET
from repro.core.mutations import MAX_LOCK_ATTEMPTS, make_mutator
from repro.core.programs import (
    BinaryTreeCfa,
    HashOfListsCfa,
    HashTableCfa,
    LinkedListCfa,
    SkipListCfa,
    TrieCfa,
)
from repro.core.programs_ext import BPlusTreeCfa
from repro.datastructs import (
    AhoCorasickTrie,
    BinarySearchTree,
    BPlusTree,
    CuckooHashTable,
    HashOfLists,
    LinkedList,
    LpmTrie,
    ProcessMemory,
    SkipList,
    Trie,
)
from repro.datastructs.hashing import fnv1a64
from repro.errors import CapacityError
from repro.system import System

from . import cfa_reference as ref
from .cfa_reference import (
    AluOp,
    Compare,
    Delay,
    Done,
    Fault,
    HashOp,
    HeaderCas,
    MemRead,
    MemWrite,
)

KEY_LENGTH = 16
MAX_STEPS = 100_000

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _key(i: int) -> bytes:
    return (b"%013d" % (i % 10**13)).ljust(KEY_LENGTH, b"_")


# --------------------------------------------------------------------- #
# Normalized-trace walkers
# --------------------------------------------------------------------- #


def _usable_length(space, vaddr, length, optional_after):
    # Mirror of QeiAccelerator._usable_length: truncate a speculative
    # cacheline fetch at the first unmapped page past the required bytes.
    if optional_after is None:
        return length
    page = space.page_bytes
    usable = optional_after
    while usable < length:
        if not space.is_mapped(vaddr + usable):
            break
        step = page - (vaddr + usable) % page
        usable = min(length, usable + step)
    return usable


class Contender:
    """Another writer that commits just before each of our first CAS tries.

    Bumping the (even) version word by two between the header read and
    the CAS makes the CAS lose; the writer backs off, re-reads the header
    and retries.  Both walkers consult the same contender schedule, so
    their traces stay comparable.
    """

    def __init__(self, losses: int) -> None:
        self.losses = losses

    def before_cas(self, space, vaddr):
        if self.losses > 0:
            self.losses -= 1
            space.write_u64(vaddr, space.read_u64(vaddr) + 2)


def _cas(space, vaddr, expect, new, trace, contender):
    if contender is not None:
        contender.before_cas(space, vaddr)
    won = 1 if space.read_u64(vaddr) == expect else 0
    if won:
        space.write_u64(vaddr, new)
    trace.append(("cas", vaddr, expect, new, won))
    return won


def _write(space, segments, commit_version, trace):
    for vaddr, data in segments:
        space.write(vaddr, data)
        trace.append(("write", vaddr, bytes(data)))
    if commit_version is not None:
        trace.append(("commit", commit_version))


def _apply_oracle(action, ctx, space, trace, contender):
    """Apply one dataclass micro-op functionally, recording its trace."""
    if isinstance(action, MemRead):
        vaddr = action.vaddr
        length = _usable_length(space, vaddr, action.length, action.optional_after)
        data = space.read(vaddr, length)
        ctx.scratch[action.tag] = data
        trace.append(("mem", vaddr, length, bytes(data)))
    elif isinstance(action, Compare):
        stored = space.read(action.mem_vaddr, action.length)
        key = space.read(action.key_vaddr, action.length)
        result = (stored > key) - (stored < key)
        ctx.results[action.tag] = result
        trace.append(
            ("cmp", action.mem_vaddr, action.key_vaddr, action.length, result)
        )
    elif isinstance(action, HashOp):
        data = ctx.scratch[action.key_tag]
        digest = fnv1a64(data)
        ctx.results[action.tag] = digest
        trace.append(("hash", bytes(data), digest))
    elif isinstance(action, AluOp):
        trace.append(("alu", action.cycles))
    elif isinstance(action, MemWrite):
        _write(space, action.segments(), ctx.vars.get("commit_version"), trace)
    elif isinstance(action, HeaderCas):
        ctx.results[action.tag] = _cas(
            space, action.vaddr, action.expect, action.new, trace, contender
        )
    elif isinstance(action, Delay):
        trace.append(("delay", action.cycles))
    else:  # pragma: no cover - new micro-op kinds must be added here
        raise AssertionError(f"unhandled micro-op {action!r}")


def run_oracle(program, ctx, space, contender=None):
    """Walk an interpreted ``program.step`` to termination (normalized)."""
    trace = []
    for _ in range(MAX_STEPS):
        try:
            if ctx.header is None:
                # The driver's pre-PARSE type-byte peek.
                space.read_u8(ctx.header_addr + 8)
            outcome = program.step(ctx)
            ctx.state = outcome.next_state
            action = outcome.action
            if isinstance(action, Done):
                trace.append(("done", action.value))
                return trace
            if isinstance(action, Fault):
                trace.append(("fault", int(action.code), action.detail))
                return trace
            _apply_oracle(action, ctx, space, trace, contender)
        except Exception as exc:  # noqa: BLE001 - drivers turn these into faults
            trace.append(("exc", type(exc).__name__, str(exc)))
            return trace
    raise AssertionError("oracle walker exceeded MAX_STEPS")


def run_firmware(program, ctx, space, contender=None):
    """Walk a firmware program's tuple steps to termination (normalized)."""
    ctx.scratch = [0] * program.NREGS
    trace = []
    step = program.step
    for _ in range(MAX_STEPS):
        try:
            if ctx.header is None:
                # The driver's pre-PARSE type-byte peek.
                space.read_u8(ctx.header_addr + 8)
            act = step(ctx)
            kind = act[0]
            if kind in (K_MEMREAD, K_MEMREAD_OPT):
                _, vaddr, length, slot = act[:4]
                if kind == K_MEMREAD_OPT:
                    length = _usable_length(space, vaddr, length, act[4])
                data = space.read(vaddr, length)
                ctx.scratch[slot] = data
                trace.append(("mem", vaddr, length, bytes(data)))
            elif kind == K_COMPARE:
                _, mem_vaddr, length, slot = act
                stored = space.read(mem_vaddr, length)
                key = space.read(ctx.key_addr, length)
                result = (stored > key) - (stored < key)
                ctx.scratch[slot] = result
                trace.append(("cmp", mem_vaddr, ctx.key_addr, length, result))
            elif kind == K_HASH:
                data = ctx.scratch[act[1]]
                digest = fnv1a64(data)
                ctx.scratch[act[2]] = digest
                trace.append(("hash", bytes(data), digest))
            elif kind == K_ALU:
                trace.append(("alu", act[1]))
            elif kind == K_WRITE:
                _write(space, act[1], act[2], trace)
            elif kind == K_CAS:
                _, vaddr, expect, new, slot = act
                ctx.scratch[slot] = _cas(space, vaddr, expect, new, trace, contender)
            elif kind == K_DELAY:
                trace.append(("delay", act[1]))
            elif kind == K_DONE:
                trace.append(("done", act[1]))
                return trace
            elif kind == K_FAULT:
                trace.append(("fault", int(act[1]), act[2]))
                return trace
            else:  # pragma: no cover
                raise AssertionError(f"unknown tuple kind {act!r}")
        except Exception as exc:  # noqa: BLE001
            trace.append(("exc", type(exc).__name__, str(exc)))
            return trace
    raise AssertionError("firmware walker exceeded MAX_STEPS")


def _first_divergence(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def assert_agree(program, header_addr, key_addr, space):
    """Run ``program`` and its oracle on one query; return the trace."""
    oracle = ref.REFERENCE_FOR[type(program)]()
    trace_o = run_oracle(
        oracle, ref.QueryContext(header_addr=header_addr, key_addr=key_addr), space
    )
    trace_f = run_firmware(
        program, QueryContext(header_addr=header_addr, key_addr=key_addr), space
    )
    assert trace_f == trace_o, (
        f"{program.NAME}: traces diverge at index {_first_divergence(trace_f, trace_o)}"
    )
    return trace_o


# --------------------------------------------------------------------- #
# Lookup programs, read-only: one shared memory image
# --------------------------------------------------------------------- #


def _build_linked_list(mem, items):
    s = LinkedList(mem, key_length=KEY_LENGTH)
    for k, v in items:
        s.insert(k, v)
    return s, LinkedListCfa()


def _build_bst(mem, items):
    s = BinarySearchTree(mem, key_length=KEY_LENGTH)
    for k, v in items:
        s.insert(k, v)
    return s, BinaryTreeCfa()


def _build_skiplist(mem, items):
    s = SkipList(mem, key_length=KEY_LENGTH)
    for k, v in items:
        s.insert(k, v)
    return s, SkipListCfa()


def _build_cuckoo(mem, items):
    s = CuckooHashTable(
        mem, key_length=KEY_LENGTH, num_buckets=16, entries_per_bucket=4
    )
    for k, v in items:
        s.insert(k, v)
    return s, HashTableCfa()


def _build_hash_of_lists(mem, items):
    # Few buckets so chains actually form.
    s = HashOfLists(mem, key_length=KEY_LENGTH, num_buckets=4)
    for k, v in items:
        s.insert(k, v)
    return s, HashOfListsCfa()


def _build_btree(mem, items):
    s = BPlusTree(mem, key_length=KEY_LENGTH, fanout=4)
    s.bulk_load(sorted(items))
    return s, BPlusTreeCfa()


LOOKUP_BUILDERS = {
    "linked-list": _build_linked_list,
    "bst": _build_bst,
    "skiplist": _build_skiplist,
    "cuckoo": _build_cuckoo,
    "hash-of-lists": _build_hash_of_lists,
    "bplus-tree": _build_btree,
}


@pytest.mark.parametrize("kind", sorted(LOOKUP_BUILDERS))
@settings(max_examples=25, **COMMON_SETTINGS)
@given(data=st.data())
def test_lookup_specialization_agrees(kind, data):
    stored = data.draw(
        st.lists(st.integers(0, 2**32), min_size=1, max_size=24, unique=True),
        label="stored",
    )
    items = [(_key(i), 1000 + n) for n, i in enumerate(stored)]
    probe_int = data.draw(
        st.one_of(st.sampled_from(stored), st.integers(0, 2**32)), label="probe"
    )
    probe = _key(probe_int)

    mem = ProcessMemory()
    structure, program = LOOKUP_BUILDERS[kind](mem, items)

    key_addr = structure.store_key(probe)
    trace = assert_agree(program, structure.header_addr, key_addr, mem.space)
    # Functional oracle: the agreed-on Done value matches the structure.
    assert trace[-1] == ("done", structure.lookup(probe))


@settings(max_examples=20, **COMMON_SETTINGS)
@given(data=st.data())
def test_lookup_specialization_agrees_mid_resize(data):
    # The hash-table CFA's resize-descriptor path (READ_DESC state,
    # watermark routing between old and new tables).
    stored = data.draw(
        st.lists(st.integers(0, 2**32), min_size=4, max_size=24, unique=True),
        label="stored",
    )
    items = [(_key(i), 1000 + n) for n, i in enumerate(stored)]
    probe = _key(data.draw(st.sampled_from(stored), label="probe"))
    migrated = data.draw(st.integers(0, 16), label="migrated")

    mem = ProcessMemory()
    table = CuckooHashTable(
        mem, key_length=KEY_LENGTH, num_buckets=16, entries_per_bucket=4
    )
    for k, v in items:
        table.insert(k, v)
    table.begin_resize()
    table.migrate_chunk(migrated)

    key_addr = table.store_key(probe)
    trace = assert_agree(HashTableCfa(), table.header_addr, key_addr, mem.space)
    assert trace[-1] == ("done", table.lookup(probe))


TRIE_TEXT_LENGTH = 80  # > 64 so the AC scan streams the key by cachelines


@pytest.mark.parametrize("subtype", ["exact", "aho-corasick", "lpm"])
@settings(max_examples=25, **COMMON_SETTINGS)
@given(data=st.data())
def test_trie_specialization_agrees(subtype, data):
    mem = ProcessMemory()
    # A tiny alphabet so random probes share prefixes with stored keys.
    alphabet = st.integers(0, 3)
    if subtype == "exact":
        trie = Trie(mem, key_length=KEY_LENGTH)
        words = data.draw(
            st.lists(
                st.binary(min_size=1, max_size=KEY_LENGTH).map(
                    lambda b: bytes(x & 3 for x in b)
                ),
                min_size=1,
                max_size=12,
            ),
            label="words",
        )
        for n, w in enumerate(words):
            trie.insert(w, n)
        probe = bytes(
            data.draw(
                st.lists(alphabet, min_size=KEY_LENGTH, max_size=KEY_LENGTH),
                label="probe",
            )
        )
    elif subtype == "aho-corasick":
        trie = AhoCorasickTrie(mem, key_length=TRIE_TEXT_LENGTH)
        words = data.draw(
            st.lists(
                st.binary(min_size=1, max_size=6).map(
                    lambda b: bytes(x & 3 for x in b)
                ),
                min_size=1,
                max_size=8,
            ),
            label="keywords",
        )
        for n, w in enumerate(words):
            trie.insert(w, n)
        probe = bytes(
            data.draw(
                st.lists(
                    alphabet, min_size=TRIE_TEXT_LENGTH, max_size=TRIE_TEXT_LENGTH
                ),
                label="text",
            )
        )
    else:
        trie = LpmTrie(mem, key_length=4)
        prefixes = data.draw(
            st.lists(
                st.binary(min_size=1, max_size=4).map(
                    lambda b: bytes(x & 3 for x in b)
                ),
                min_size=1,
                max_size=8,
                unique=True,
            ),
            label="prefixes",
        )
        for n, p in enumerate(prefixes):
            trie.insert_prefix(p, n)
        probe = bytes(data.draw(st.lists(alphabet, min_size=4, max_size=4)))
    trie.seal()

    key_addr = trie.store_key(probe)
    assert_agree(TrieCfa(), trie.header_addr, key_addr, mem.space)


# --------------------------------------------------------------------- #
# Mutation programs: twin systems, both walkers write
# --------------------------------------------------------------------- #


def _twin(build, items):
    """Build one (system, structure, mutator) twin deterministically."""
    system = System(small_config())
    system.enable_mutations()
    structure = build(system, items)
    return system, structure, make_mutator(system, structure)


def _build_mut_hash(system, items):
    s = CuckooHashTable(system.mem, key_length=KEY_LENGTH, num_buckets=32)
    for k, v in items:
        s.insert(k, v)
    return s


def _build_mut_full_hash(system, items):
    # One-slot buckets fill up, so fresh inserts meet full candidates.
    s = CuckooHashTable(
        system.mem, key_length=KEY_LENGTH, num_buckets=4, entries_per_bucket=1
    )
    for k, v in items:
        try:
            s.insert(k, v)
        except CapacityError:
            break
    return s


MUT_BUILDERS = {
    "hash": _build_mut_hash,
    "full-hash": _build_mut_full_hash,
}

MUT_OPS = {
    "update": OP_UPDATE,
    "delete": OP_DELETE,
    "insert": OP_INSERT,
    "lookup": OP_LOOKUP,  # misdispatched: the prelude's op check faults
}

#: Header conditions a writer may meet: the seqlock held by another writer
#: (odd version, backoff on PARSE), ``n`` CAS losses to a contender
#: (``n > MAX_LOCK_ATTEMPTS`` exhausts the backoff), a read-only or
#: resizing structure (pre-lock bail-outs), or none of these.
CONDITIONS = (
    ["plain", "held", "read-only", "resizing"]
    + [f"cas-loss-{n}" for n in range(1, MAX_LOCK_ATTEMPTS + 2)]
)


def _impose(condition, system, structure):
    space = system.mem.space
    version_addr = structure.header_addr + VERSION_OFFSET
    if condition == "held":
        space.write_u64(version_addr, space.read_u64(version_addr) | 1)
    elif condition == "read-only":
        flags_addr = structure.header_addr + 12
        flags = int.from_bytes(space.read(flags_addr, 4), "little")
        space.write(flags_addr, (flags | FLAG_READ_ONLY).to_bytes(4, "little"))
    elif condition == "resizing":
        structure.begin_resize()


def check_mutation(kind, items, op, target, value, condition):
    """Run one write on oracle and firmware twins; compare traces and memory."""
    losses = int(condition.rsplit("-", 1)[1]) if condition.startswith("cas") else 0
    twins = []
    for ctx_cls in (ref.QueryContext, QueryContext):
        system, structure, mutator = _twin(MUT_BUILDERS[kind], items)
        operand = mutator.stage(op, target, value)
        key_addr = structure.store_key(target)
        _impose(condition, system, structure)
        ctx = ctx_cls(
            header_addr=structure.header_addr, key_addr=key_addr, op=op, operand=operand
        )
        twins.append((system, structure, ctx))

    (sys_o, struct_o, ctx_o), (sys_f, struct_f, ctx_f) = twins
    # Twin determinism: identical layout means identical addresses.
    assert (ctx_o.header_addr, ctx_o.key_addr, ctx_o.operand) == (
        ctx_f.header_addr, ctx_f.key_addr, ctx_f.operand,
    )
    type_code = sys_f.mem.space.read_u8(struct_f.header_addr + 8)
    program = sys_f.firmware.program_for(type_code, op=OP_INSERT)
    oracle = ref.REFERENCE_FOR[type(program)]()

    trace_o = run_oracle(oracle, ctx_o, sys_o.mem.space, Contender(losses))
    trace_f = run_firmware(program, ctx_f, sys_f.mem.space, Contender(losses))
    assert trace_f == trace_o, (
        f"{program.NAME} {condition}: traces diverge at index "
        f"{_first_divergence(trace_f, trace_o)}"
    )
    if op != OP_LOOKUP and (condition == "held" or losses > MAX_LOCK_ATTEMPTS):
        # An unobtainable seqlock: every backoff is slept, then the fault.
        assert trace_o[-1] == ("fault", int(AbortCode.VERSION_CONFLICT), (
            f"seqlock contended after {MAX_LOCK_ATTEMPTS} attempts; "
            "falling back to software"
        ))
        delays = [t for t in trace_o if t[0] == "delay"]
        assert len(delays) == MAX_LOCK_ATTEMPTS
    # Both twins' memories must have converged to the same structure state.
    for k, _ in items:
        assert struct_o.lookup(k) == struct_f.lookup(k)
    assert struct_o.lookup(target) == struct_f.lookup(target)
    return trace_o


@pytest.mark.parametrize("kind", sorted(MUT_BUILDERS))
@settings(max_examples=25, **COMMON_SETTINGS)
@given(data=st.data())
def test_mutation_firmware_agrees(kind, data):
    stored = data.draw(
        st.lists(st.integers(0, 2**32), min_size=1, max_size=12, unique=True),
        label="stored",
    )
    items = [(_key(i), 1000 + n) for n, i in enumerate(stored)]
    op = MUT_OPS[data.draw(st.sampled_from(sorted(MUT_OPS)), label="op")]
    # Present or absent target: the hit, miss and fresh-insert paths.
    target = _key(
        data.draw(
            st.one_of(st.sampled_from(stored), st.integers(0, 2**32)),
            label="target",
        )
    )
    value = data.draw(st.integers(0, 2**20), label="value")
    condition = data.draw(st.sampled_from(CONDITIONS), label="condition")
    check_mutation(kind, items, op, target, value, condition)


@pytest.mark.parametrize("kind", sorted(MUT_BUILDERS))
def test_mutation_conditions_agree(kind):
    # Every (op, header condition, present/absent target) on a one-key and
    # a multi-key structure, so each bail-out and backoff path runs.
    finals = set()
    for size in (1, 9):
        items = [(_key(i), 1000 + i) for i in range(size)]
        for op in MUT_OPS.values():
            for condition in CONDITIONS:
                for target in (items[0][0], _key(10**6)):
                    trace = check_mutation(kind, items, op, target, 77, condition)
                    finals.add(trace[-1][:2] if trace[-1][0] == "fault" else "done")
    codes = {code for _, code in finals - {"done"}}
    assert "done" in finals
    assert {int(AbortCode.FIRMWARE), int(AbortCode.PROTECTION)} <= codes
    assert int(AbortCode.VERSION_CONFLICT) in codes


# --------------------------------------------------------------------- #
# Firmware-shape invariants (cheap, non-Hypothesis)
# --------------------------------------------------------------------- #


def test_every_builtin_lookup_is_specialized():
    # Every registered program, lookup and mutation, is firmware in the
    # register form and has an interpreted oracle.
    system = System(small_config())
    system.enable_mutations()
    system.firmware.register(BPlusTreeCfa())
    system.firmware.register(HashOfListsCfa())
    lookups, mutators = system.firmware.programs, system.firmware.mutators
    assert len(lookups) == 7 and len(mutators) == 1
    for program in list(lookups.values()) + list(mutators.values()):
        assert type(program) in ref.REFERENCE_FOR
        assert program.NREGS >= 2


def test_subclassed_program_override_takes_effect():
    class Tweaked(LinkedListCfa):
        """Answers every query with a constant: the override must win."""

        def after_parse(self, ctx):
            return (K_DONE, 42)

    system = System(small_config())
    system.firmware.register(Tweaked(), replace=True)
    structure = LinkedList(system.mem, key_length=KEY_LENGTH)
    structure.insert(_key(1), 7)
    key_addr = structure.store_key(_key(1))
    # The accelerator binds the registered subclass's step at accept.
    handle = system.accelerator.submit(QueryRequest(structure.header_addr, key_addr), 0)
    system.accelerator.wait_for(handle)
    assert handle.value == 42
    plain = assert_agree(
        LinkedListCfa(), structure.header_addr, key_addr, system.mem.space
    )
    assert plain[-1] == ("done", 7)


def test_accept_binds_the_step_of_the_image_program():
    # Each QST slot holds its program's bound step, looked up in the
    # image's lookup or mutation table at accept, with the register file
    # sized to the program; a hot-swap adopt is seen by the next accept.
    system = System(small_config())
    system.enable_mutations()
    accelerator = system.accelerator
    firmware = system.firmware
    table = CuckooHashTable(system.mem, key_length=KEY_LENGTH, num_buckets=8)
    table.insert(_key(1), 7)

    def accept(op, operand=0):
        request = QueryRequest(
            table.header_addr, table.store_key(_key(1)), op=op, operand=operand
        )
        handle = accelerator.submit(request, system.engine.now)
        while handle.accept_cycle is None:
            assert system.engine.step()
        (entry,) = accelerator.qst.busy_entries()
        bound = accelerator._rdy_fn[entry.index], entry.ctx
        accelerator.wait_for(handle)
        return bound

    for op, programs in ((OP_LOOKUP, firmware.programs), (OP_UPDATE, firmware.mutators)):
        program = programs[HashTableCfa.TYPE_CODE]
        step, ctx = accept(op, 8)
        assert step == program.step
        assert len(ctx.scratch) == program.NREGS

    class Swapped(HashTableCfa):
        """The same program under a new class: the adopted table's entry."""

    swapped = Swapped()
    staged = firmware.staged_copy()
    staged.register(swapped, replace=True)
    firmware.adopt(staged)
    step, _ = accept(OP_LOOKUP)
    assert step == swapped.step
