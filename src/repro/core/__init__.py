"""QEI — the paper's primary contribution.

Components (Sec. III–V):

* :mod:`header` — the single-cacheline data-structure metadata header.
* :mod:`cfa` — the configurable-finite-automaton model: the tuple
  micro-operation vocabulary, the per-query register context, the
  program base class with its shared prelude, and the firmware registry.
* :mod:`programs` / :mod:`programs_ext` — the built-in lookup CFAs for
  linked list, hash table, skip list, binary tree, trie (exact,
  Aho-Corasick, LPM), hash-of-lists and B+-tree, each written once in the
  form the engine executes.
* :mod:`mutations` — the INSERT/DELETE/UPDATE CFAs behind a seqlock
  prelude, plus their software fallback and the online hash-table resize.
* :mod:`specialize` — firmware loading: binds registered programs into the
  engine's step table.
* :mod:`qst` — the Query State Table.
* :mod:`dpu` — data processing unit (ALUs, comparators, hash unit).
* :mod:`accelerator` — the CFA Execution Engine tying it all together.
* :mod:`integration` — the five CPU-integration schemes.
* :mod:`isa` — QUERY_B / QUERY_NB architectural semantics + query port.
"""

from .abort import AbortCode
from .accelerator import QeiAccelerator, QueryHandle, QueryStatus
from .cfa import CfaProgram, FirmwareImage, QueryContext
from .header import DataStructureHeader, StructureType
from .integration import build_integration, Integration
from .isa import QueryPort, read_result

__all__ = [
    "AbortCode",
    "CfaProgram",
    "DataStructureHeader",
    "FirmwareImage",
    "Integration",
    "QeiAccelerator",
    "QueryContext",
    "QueryHandle",
    "QueryPort",
    "QueryStatus",
    "StructureType",
    "build_integration",
    "read_result",
]
