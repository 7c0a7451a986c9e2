"""Self-validation battery: prove the functional layers agree.

``validate_system()`` is a user-facing sanity check (also used by tests):
for each structure type, random keys are looked up through all three paths
— pure software reference, trace-emitting baseline, and the accelerator's
CFA — and any disagreement is reported.  Run it after modifying firmware,
structures or the memory substrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..config import small_config
from ..core.accelerator import QueryRequest
from ..core.programs_ext import BPlusTreeCfa
from ..cpu.trace import TraceBuilder
from ..datastructs import (
    BPlusTree,
    BinarySearchTree,
    CuckooHashTable,
    LinkedList,
    LpmTrie,
    SkipList,
    Trie,
)
from ..system import System


@dataclass
class ValidationReport:
    """Outcome of one validation run."""

    checks: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        status = "OK" if self.passed else "FAILED"
        lines = [f"validation {status}: {self.checks} checks"]
        lines.extend(f"  mismatch: {m}" for m in self.mismatches)
        return "\n".join(lines)


def _check(report, name, key, reference, emitted, accelerated) -> None:
    report.checks += 1
    if emitted != reference:
        report.mismatches.append(
            f"{name}: baseline trace returned {emitted!r}, reference {reference!r} "
            f"for key {key!r}"
        )
    if accelerated != reference:
        report.mismatches.append(
            f"{name}: CFA returned {accelerated!r}, reference {reference!r} "
            f"for key {key!r}"
        )


def validate_system(
    *,
    seed: int = 2024,
    keys_per_structure: int = 12,
    scheme: str = "core-integrated",
) -> ValidationReport:
    """Cross-check every structure's three query paths on one system."""
    rng = random.Random(seed)
    system = System(small_config(), scheme)
    # Explicit ``replace=True``: register() raises FirmwareError on a live
    # TYPE_CODE otherwise, so shadowing is always a stated intent.
    system.firmware.register(BPlusTreeCfa(), replace=True)
    report = ValidationReport()

    def query_accel(structure, key_addr):
        handle = system.accelerator.submit(
            QueryRequest(header_addr=structure.header_addr, key_addr=key_addr),
            system.engine.now,
        )
        system.accelerator.wait_for(handle)
        return handle.value

    def keyset(n, length):
        return [bytes(rng.getrandbits(8) for _ in range(length)) for _ in range(n)]

    # ---- pointer/hash structures with a common protocol ---------------- #
    builders = [
        ("linked-list", LinkedList(system.mem, key_length=8)),
        ("hash-table", CuckooHashTable(system.mem, key_length=8, num_buckets=64)),
        ("skip-list", SkipList(system.mem, key_length=8)),
        ("binary-tree", BinarySearchTree(system.mem, key_length=8)),
    ]
    for name, structure in builders:
        keys = list(dict.fromkeys(keyset(keys_per_structure, 8)))
        for i, key in enumerate(keys):
            structure.insert(key, 100 + i)
        probes = keys + keyset(3, 8)
        for key in probes:
            builder = TraceBuilder()
            key_addr = structure.store_key(key)
            emitted = structure.emit_lookup(builder, key_addr, key)
            _check(
                report, name, key,
                structure.lookup(key), emitted, query_accel(structure, key_addr),
            )

    # ---- B+-tree (firmware extension) ----------------------------------- #
    tree = BPlusTree(system.mem, key_length=8, fanout=4)
    items = sorted(set(keyset(40, 8)))
    tree.bulk_load([(k, 500 + i) for i, k in enumerate(items)])
    for key in items[::5] + keyset(3, 8):
        builder = TraceBuilder()
        key_addr = tree.store_key(key)
        emitted = tree.emit_lookup(builder, key_addr, key)
        _check(
            report, "bplus-tree", key,
            tree.lookup(key), emitted, query_accel(tree, key_addr),
        )

    # ---- exact trie ------------------------------------------------------ #
    trie = Trie(system.mem, key_length=4)
    words = list(dict.fromkeys(keyset(10, 4)))
    for i, word in enumerate(words):
        trie.insert(word, i)
    trie.seal()
    for word in words + keyset(2, 4):
        builder = TraceBuilder()
        addr = system.mem.store_bytes(word)
        emitted = trie.emit_lookup(builder, addr, word)
        _check(
            report, "trie", word,
            trie.lookup(word), emitted, query_accel(trie, addr),
        )

    # ---- LPM trie -------------------------------------------------------- #
    lpm = LpmTrie(system.mem, key_length=4)
    for i in range(12):
        prefix = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 3)))
        lpm.insert_prefix(prefix, i)
    lpm.seal()
    for _ in range(keys_per_structure):
        addr_bytes = bytes(rng.getrandbits(8) for _ in range(4))
        builder = TraceBuilder()
        vaddr = system.mem.store_bytes(addr_bytes)
        emitted = lpm.emit_lookup_lpm(builder, vaddr, addr_bytes)
        _check(
            report, "lpm-trie", addr_bytes,
            lpm.lookup_lpm(addr_bytes), emitted, query_accel(lpm, vaddr),
        )

    return report
