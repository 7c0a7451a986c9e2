"""The five paper benchmarks plus tuple-space search (Sec. VI-B).

* :mod:`dpdk` — L3 forwarding-information-base lookups in a cuckoo hash
  table (16B keys, TCP/IP-header-like).
* :mod:`rocksdb` — skip-list memtable point queries (100B keys, 900B
  values), with the seek loop's heavy per-request software overhead.
* :mod:`jvm` — mark-phase object-tree traversals of a serial mark-and-sweep
  collector (deep pointer chasing).
* :mod:`snort` — Aho-Corasick literal matching of 1KB payloads against a
  keyword dictionary.
* :mod:`flann` — locality-sensitive-hashing similarity search across a
  series of hash tables.
* :mod:`tuple_space` — DPDK tuple-space search over N hash tables, the
  QUERY_NB showcase (Fig. 10).
"""

from .base import QueryWorkload, RoiRun, WorkloadResult, run_baseline, run_qei
from .dpdk import DpdkFibWorkload
from .flann import FlannLshWorkload
from .generator import make_keys, zipf_indices
from .jvm import JvmGcWorkload
from .rocksdb import RocksDbWorkload
from .snort import SnortWorkload
from .tuple_space import TupleSpaceWorkload

WORKLOAD_CLASSES = {
    "dpdk": DpdkFibWorkload,
    "rocksdb": RocksDbWorkload,
    "jvm": JvmGcWorkload,
    "snort": SnortWorkload,
    "flann": FlannLshWorkload,
}


def make_workload(name, system, **params):
    """Instantiate and build one of the five paper workloads by name, or a
    :class:`QueryWorkload` subclass such as tuple-space search."""
    cls = name if isinstance(name, type) else WORKLOAD_CLASSES.get(name)
    if cls is None:
        names = ", ".join(sorted(WORKLOAD_CLASSES))
        raise ValueError(f"unknown workload {name!r}; expected one of {names}")
    workload = cls(system, **params)
    workload.build()
    return workload


__all__ = [
    "DpdkFibWorkload",
    "FlannLshWorkload",
    "JvmGcWorkload",
    "QueryWorkload",
    "RocksDbWorkload",
    "RoiRun",
    "SnortWorkload",
    "TupleSpaceWorkload",
    "WORKLOAD_CLASSES",
    "WorkloadResult",
    "make_keys",
    "make_workload",
    "run_baseline",
    "run_qei",
    "zipf_indices",
]
