"""RocksDB benchmark: skip-list memtable point lookups (Sec. VI-B).

Mirrors the paper's db_bench setup: 100-byte keys, 900-byte values, random
point queries against the in-memory memtable.  The distinguishing
characteristic is the *low query density*: each request in the seek loop
executes a few hundred unrelated instructions (key pre-processing, memcpy,
thread management), so the ROB fills with other work and the core — not the
accelerator — bounds the achievable parallelism (Sec. VII-A).
"""

from __future__ import annotations

from typing import List, Optional

from ..cpu.trace import TraceBuilder
from ..datastructs import SkipList
from ..system import System
from .base import QueryWorkload
from .generator import make_keys, pick_queries

KEY_LENGTH = 100
VALUE_BYTES = 900


class RocksDbWorkload(QueryWorkload):
    """Memtable point queries over a skip list."""

    name = "rocksdb"
    roi_other_work = 200      # seek-loop overhead around each lookup
    app_other_work = 420      # request parsing, WAL bookkeeping, response
    #: calibrated so memtable queries take ~28% of app time (paper Fig. 1)
    app_other_cycles = 7200
    #: Share of queries for keys the memtable does not hold.
    MISS_RATIO = 0.05

    def __init__(
        self,
        system: System,
        *,
        num_items: int = 3000,
        num_queries: int = 120,
        seed: int = 11,
    ) -> None:
        super().__init__(system, num_queries=num_queries, seed=seed)
        self.num_items = num_items
        self.memtable: Optional[SkipList] = None
        self._value_blobs: List[int] = []

    def build(self) -> None:
        self.memtable = SkipList(self.system.mem, key_length=KEY_LENGTH)
        items = make_keys(self.num_items, KEY_LENGTH, seed=self.seed)
        for i, key in enumerate(items):
            # Values are 900B blobs; the stored value is their pointer, the
            # paper's "pointer to the actual data is used as the result".
            blob = self.system.mem.alloc(VALUE_BYTES, align=8)
            self.system.space.write(blob, bytes([i % 251])[:1] * VALUE_BYTES)
            self._value_blobs.append(blob)
            self.memtable.insert(key, blob)
        queries = pick_queries(
            items,
            self.num_queries,
            miss_ratio=self.MISS_RATIO,
            key_length=KEY_LENGTH,
            seed=self.seed + 1,
        )
        expected = [self.memtable.lookup(q) for q in queries]
        self._register_queries(queries, expected)

    def header_addr_for(self, index: int) -> int:
        return self.memtable.header_addr

    def emit_software_query(self, builder: TraceBuilder, index: int):
        return self.memtable.emit_lookup(
            builder, self._query_addrs[index], self._queries[index]
        )

    def software_lookup(self, index: int):
        return self.memtable.lookup(self._queries[index])
