"""FLANN benchmark: locality-sensitive-hashing similarity search (Sec. VI-B).

FLANN's LSH index keeps a *series* of hash tables (the paper's defaults:
12 tables, 20-byte keys); a similarity query probes every table with a
per-table hashed key and unions the candidate buckets.  Each table probe is
an independent hash-table lookup — exactly the kind of fan-out QEI overlaps
across its in-flight query slots.
"""

from __future__ import annotations

from typing import List

from ..cpu.trace import TraceBuilder
from ..datastructs import CuckooHashTable
from ..datastructs.hashing import lsh_hash
from ..system import System
from .base import QueryWorkload
from .generator import make_keys, pick_queries

KEY_LENGTH = 20


def table_key(point_key: bytes, table_index: int) -> bytes:
    """The per-table LSH bucket key for a point.

    Real LSH hashes a feature vector per table; we derive a deterministic
    per-table key by replacing the leading 8 bytes with the table-specific
    hash, preserving both the fan-out pattern and per-table independence.
    """
    h = lsh_hash(point_key, table_index)
    return h.to_bytes(8, "little") + point_key[8:]


class FlannLshWorkload(QueryWorkload):
    """Multi-probe LSH: one query fans out to every hash table."""

    name = "flann"
    roi_other_work = 10       # distance-check bookkeeping per probe
    app_other_work = 260      # feature extraction, candidate re-ranking
    #: calibrated so LSH probes take ~31% of app time (paper Fig. 1);
    #: emitted once per application request (point), not per table probe
    app_other_cycles = 2300

    def __init__(
        self,
        system: System,
        *,
        num_tables: int = 12,
        num_items: int = 3000,
        num_points: int = 16,
        num_buckets: int = 512,
        seed: int = 23,
    ) -> None:
        # One "query" per (point, table) pair.
        super().__init__(system, num_queries=num_points * num_tables, seed=seed)
        self.num_tables = num_tables
        self.num_items = num_items
        self.num_points = num_points
        self.num_buckets = num_buckets
        self.tables: List[CuckooHashTable] = []
        self._probe_tables: List[int] = []
        self.app_work_stride = num_tables  # one app request per point

    def build(self) -> None:
        items = make_keys(self.num_items, KEY_LENGTH, seed=self.seed)
        self.tables = []
        for t in range(self.num_tables):
            table = CuckooHashTable(
                self.system.mem, key_length=KEY_LENGTH, num_buckets=self.num_buckets
            )
            for i, item in enumerate(items):
                table.insert(table_key(item, t), 0x200000 + i)
            self.tables.append(table)

        points = pick_queries(
            items, self.num_points, miss_ratio=0.1, key_length=KEY_LENGTH,
            seed=self.seed + 1,
        )
        queries, expected, probe_tables = [], [], []
        for point in points:
            for t in range(self.num_tables):
                probe = table_key(point, t)
                queries.append(probe)
                probe_tables.append(t)
                expected.append(self.tables[t].lookup(probe))
        self._probe_tables = probe_tables
        self._register_queries(queries, expected)

    def header_addr_for(self, index: int) -> int:
        return self.tables[self._probe_tables[index]].header_addr

    def emit_software_query(self, builder: TraceBuilder, index: int):
        table = self.tables[self._probe_tables[index]]
        return table.emit_lookup(
            builder, self._query_addrs[index], self._queries[index]
        )

    def software_lookup(self, index: int):
        return self.tables[self._probe_tables[index]].lookup(self._queries[index])
