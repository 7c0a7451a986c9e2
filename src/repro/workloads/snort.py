"""Snort benchmark: Aho-Corasick literal matching (Sec. VI-B).

An intrusion-prevention system matches packet payloads against a keyword
dictionary.  The paper uses ~40K keywords and 1KB payload strings; the
defaults here are scaled down for simulation speed but configurable up.
One "query" is a whole-payload scan: the QEI trie CFA (subtype 1) walks the
automaton over the text and returns the number of keyword hits, which must
equal the software scan's match count.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..cpu.trace import TraceBuilder
from ..datastructs import AhoCorasickTrie
from ..system import System
from .base import QueryWorkload


def make_dictionary(count: int, *, seed: int = 3) -> List[bytes]:
    """Random lowercase keywords, 4-12 bytes, all distinct."""
    rng = random.Random(seed)
    words = set()
    while len(words) < count:
        length = rng.randint(4, 12)
        words.add(bytes(rng.randint(97, 122) for _ in range(length)))
    return sorted(words)


def make_payload(
    length: int, dictionary: List[bytes], *, hit_density: float, rng: random.Random
) -> bytes:
    """Random payload with keywords planted at roughly ``hit_density``."""
    out = bytearray()
    while len(out) < length:
        if dictionary and rng.random() < hit_density:
            out += rng.choice(dictionary)
        else:
            out += bytes([rng.randint(97, 122)])
    return bytes(out[:length])


class SnortWorkload(QueryWorkload):
    """Payload scans against an Aho-Corasick keyword automaton."""

    name = "snort"
    roi_other_work = 20       # per-payload bookkeeping around the scan
    app_other_work = 350      # packet capture, decode, rule dispatch
    #: calibrated so literal matching takes ~23% of app time (paper Fig. 1)
    app_other_cycles = 138000
    #: Chance that each payload position starts a planted keyword.
    HIT_DENSITY = 0.02

    def __init__(
        self,
        system: System,
        *,
        num_keywords: int = 1500,
        payload_bytes: int = 1024,
        num_queries: int = 12,
        seed: int = 3,
    ) -> None:
        super().__init__(system, num_queries=num_queries, seed=seed)
        self.num_keywords = num_keywords
        self.payload_bytes = payload_bytes
        self.automaton: Optional[AhoCorasickTrie] = None

    def build(self) -> None:
        self.automaton = AhoCorasickTrie(
            self.system.mem, key_length=self.payload_bytes
        )
        dictionary = make_dictionary(self.num_keywords, seed=self.seed)
        for i, word in enumerate(dictionary):
            self.automaton.insert(word, i)
        self.automaton.seal()
        rng = random.Random(self.seed + 1)
        payloads = [
            make_payload(
                self.payload_bytes, dictionary, hit_density=self.HIT_DENSITY, rng=rng
            )
            for _ in range(self.num_queries)
        ]
        # Expected value of a QEI scan query: the number of match positions.
        expected = [len(self.automaton.match(p)) for p in payloads]
        self._register_queries(payloads, expected)

    def header_addr_for(self, index: int) -> int:
        return self.automaton.header_addr

    def emit_software_query(self, builder: TraceBuilder, index: int):
        matches = self.automaton.emit_match(
            builder, self._query_addrs[index], self._queries[index]
        )
        return len(matches)

    def software_lookup(self, index: int):
        return len(self.automaton.match(self._queries[index]))
