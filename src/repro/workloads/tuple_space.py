"""Tuple-space search over DPDK hash tables: the QUERY_NB showcase (Fig. 10).

Packet classification with T tuples keeps one hash table per tuple mask;
every packet's key is looked up in *all* T tables, and the highest-priority
hit wins.  The probes are mutually independent, so the software can issue
32 x T non-blocking queries before polling — the paper's ideal use case for
QUERY_NB (Sec. VII-B).
"""

from __future__ import annotations

from typing import List

from ..cpu.trace import TraceBuilder
from ..datastructs import CuckooHashTable
from ..datastructs.hashing import mix64, primary_hash
from ..system import System
from .base import QueryWorkload
from .generator import make_keys, pick_queries

KEY_LENGTH = 16


def tuple_key(packet_key: bytes, tuple_index: int) -> bytes:
    """Apply the tuple's mask: a per-tuple deterministic key transform."""
    h = mix64(primary_hash(packet_key) ^ (0xABCDEF137 * (tuple_index + 1)))
    return h.to_bytes(8, "little") + packet_key[8:]


class TupleSpaceWorkload(QueryWorkload):
    """Packet classification across ``num_tuples`` hash tables."""

    name = "tuple-space"
    roi_other_work = 6        # per-probe mask application
    app_other_work = 220
    #: Share of the flows each tuple's table holds.
    MATCH_TUPLE_RATIO = 0.4

    def __init__(
        self,
        system: System,
        *,
        num_tuples: int = 5,
        flows_per_tuple: int = 512,
        num_packets: int = 64,
        num_buckets: int = 512,
        seed: int = 31,
    ) -> None:
        super().__init__(system, num_queries=num_packets * num_tuples, seed=seed)
        self.num_tuples = num_tuples
        self.flows_per_tuple = flows_per_tuple
        self.num_packets = num_packets
        self.num_buckets = num_buckets
        self.tables: List[CuckooHashTable] = []
        self._probe_tables: List[int] = []

    def build(self) -> None:
        packets = make_keys(
            self.flows_per_tuple, KEY_LENGTH, seed=self.seed
        )
        self.tables = []
        for t in range(self.num_tuples):
            table = CuckooHashTable(
                self.system.mem, key_length=KEY_LENGTH, num_buckets=self.num_buckets
            )
            # Each tuple's table holds a share of the flows under its mask.
            share = packets[:: max(1, int(1 / self.MATCH_TUPLE_RATIO))]
            for i, flow in enumerate(share):
                table.insert(tuple_key(flow, t), 0x300000 + t * 10_000 + i)
            self.tables.append(table)

        stream = pick_queries(
            packets, self.num_packets, key_length=KEY_LENGTH, seed=self.seed + 1
        )
        queries, expected, probe_tables = [], [], []
        for packet in stream:
            for t in range(self.num_tuples):
                probe = tuple_key(packet, t)
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

    def nb_poll_every(self) -> int:
        """The paper polls every 32 packets: 32 x tuple_count requests."""
        return 32 * self.num_tuples
