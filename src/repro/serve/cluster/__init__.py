"""Simulated multi-node serving cluster (see docs/serving.md).

A consistent-hash-partitioned, R-way-replicated fleet of full-machine
serving nodes behind a load balancer with health probing, bounded-retry
failover and deterministic fault injection (node kills, flaps, network
partitions) — the cluster generalisation of the single-node serving tier.
"""

from .cluster import (
    CLUSTER_CORES,
    CLUSTER_DPDK,
    ClusterError,
    ClusterReport,
    SimulatedCluster,
)
from .lb import FleetSlo, LoadBalancer
from .membership import Membership, NodeState, Prober
from .node import ClusterNode
from .ring import HashRing, key_position, stable_hash

__all__ = [
    "CLUSTER_CORES",
    "CLUSTER_DPDK",
    "ClusterError",
    "ClusterNode",
    "ClusterReport",
    "FleetSlo",
    "HashRing",
    "LoadBalancer",
    "Membership",
    "NodeState",
    "Prober",
    "SimulatedCluster",
    "key_position",
    "stable_hash",
]
