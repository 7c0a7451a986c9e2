"""DPDK benchmark: L3 FIB lookups in a cuckoo hash table (Sec. VI-B).

Keys are 16 bytes, mimicking the TCP/IP 5-tuple-derived keys of DPDK's
``rte_hash``-based forwarding tables; values are next-hop identifiers.
Query density is high: packet-processing loops execute little besides the
lookup itself, so the ROB can keep many blocking queries in flight.
"""

from __future__ import annotations

from typing import Optional

from ..cpu.trace import TraceBuilder
from ..datastructs import CuckooHashTable
from ..system import System
from .base import QueryWorkload
from .generator import make_keys, pick_queries

KEY_LENGTH = 16


class DpdkFibWorkload(QueryWorkload):
    """Forwarding-information-base lookups on a cuckoo hash table."""

    name = "dpdk"
    roi_other_work = 12       # header parse + next-hop apply
    app_other_work = 220      # rest of packet processing (rx/tx, checksums)
    #: calibrated so query ops take ~44% of app time (paper Fig. 1)
    app_other_cycles = 150
    #: FIB entries take route add/withdraw traffic (docs/mutations.md).
    MUTABLE = True
    #: Share of queries for flows the table does not hold.
    MISS_RATIO = 0.05

    def __init__(
        self,
        system: System,
        *,
        num_flows: int = 12288,
        num_buckets: int = 8192,
        num_queries: int = 200,
        zipf: bool = True,
        seed: int = 7,
    ) -> None:
        super().__init__(system, num_queries=num_queries, seed=seed)
        self.num_flows = num_flows
        self.num_buckets = num_buckets
        self.zipf = zipf
        self.table: Optional[CuckooHashTable] = None

    def build(self) -> None:
        self.table = CuckooHashTable(
            self.system.mem,
            key_length=KEY_LENGTH,
            num_buckets=self.num_buckets,
        )
        flows = make_keys(self.num_flows, KEY_LENGTH, seed=self.seed)
        for i, flow in enumerate(flows):
            self.table.insert(flow, 10_000 + i)
        queries = pick_queries(
            flows,
            self.num_queries,
            miss_ratio=self.MISS_RATIO,
            key_length=KEY_LENGTH,
            zipf=self.zipf,
            seed=self.seed + 1,
        )
        expected = [self.table.lookup(q) for q in queries]
        self._register_queries(queries, expected)

    def header_addr_for(self, index: int) -> int:
        return self.table.header_addr

    def emit_software_query(self, builder: TraceBuilder, index: int):
        return self.table.emit_lookup(
            builder, self._query_addrs[index], self._queries[index]
        )

    def software_lookup(self, index: int):
        return self.table.lookup(self._queries[index])

    def mutable_structure(self):
        self._require_built()
        return self.table
