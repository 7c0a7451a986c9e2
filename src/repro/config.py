"""System configuration dataclasses.

Defaults reproduce Table II of the paper: a 24-core Skylake-SP-like CPU at
2.5 GHz with 32KB L1, 1MB L2, a 33MB LLC split into 24 NUCA slices, a 2D mesh
NoC, six DDR4-2666 channels, and the QEI accelerator provisioned with five
ALUs per DPU, two comparators per CHA for the CHA-based/Core-integrated
schemes and ten comparators per DPU for the Device-based schemes.

Latency constants derive from Table I (accelerator-core and accelerator-data
round trips per integration scheme).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigurationError

CACHELINE_BYTES = 64
PAGE_BYTES = 4096


class IntegrationScheme(str, Enum):
    """Where the accelerator lives, per Sec. V / Fig. 6 of the paper."""

    CHA_TLB = "cha-tlb"
    CHA_NOTLB = "cha-notlb"
    DEVICE_DIRECT = "device-direct"
    DEVICE_INDIRECT = "device-indirect"
    CORE_INTEGRATED = "core-integrated"

    @classmethod
    def parse(cls, value: "IntegrationScheme | str") -> "IntegrationScheme":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            names = ", ".join(s.value for s in cls)
            raise ConfigurationError(
                f"unknown integration scheme {value!r}; expected one of: {names}"
            ) from exc


#: Scheme order used in the paper's figures and every scheme sweep.
SCHEME_ORDER = [scheme.value for scheme in IntegrationScheme]

#: Schemes whose comparators sit in the CHAs (distributed near-LLC compare).
DISTRIBUTED_SCHEMES = frozenset(
    {
        IntegrationScheme.CHA_TLB,
        IntegrationScheme.CHA_NOTLB,
        IntegrationScheme.CORE_INTEGRATED,
    }
)


@dataclass(frozen=True)
class CacheConfig:
    """One cache level: size/associativity/latency."""

    size_bytes: int
    associativity: int
    latency_cycles: int
    line_bytes: int = CACHELINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError("cache size/associativity must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigurationError(
                "cache size must be a multiple of associativity * line size"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class TlbConfig:
    """A TLB level: entry count, associativity and hit/miss costs."""

    entries: int
    associativity: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.associativity <= 0:
            raise ConfigurationError("TLB entries/associativity must be positive")
        if self.entries % self.associativity:
            raise ConfigurationError("TLB entries must divide by associativity")


@dataclass(frozen=True)
class CoreConfig:
    """An out-of-order core, per Tab. II (Skylake-SP-like)."""

    frequency_ghz: float = 2.5
    issue_width: int = 4
    rob_entries: int = 224
    load_queue_entries: int = 72
    store_queue_entries: int = 56
    branch_mispredict_cycles: int = 14
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 16, 14)
    )
    l1_dtlb: TlbConfig = field(default_factory=lambda: TlbConfig(64, 4, 1))
    l2_tlb: TlbConfig = field(default_factory=lambda: TlbConfig(1536, 12, 9))


@dataclass(frozen=True)
class LlcConfig:
    """The shared NUCA last-level cache, split into per-core slices."""

    total_size_bytes: int = 33 * 1024 * 1024
    associativity: int = 11
    slices: int = 24
    latency_cycles: int = 26  # slice-local access, before NoC hops

    def slice_config(self) -> CacheConfig:
        per_slice = self.total_size_bytes // self.slices
        # Round the slice down to a legal set-associative geometry.
        granule = self.associativity * CACHELINE_BYTES
        per_slice -= per_slice % granule
        return CacheConfig(per_slice, self.associativity, self.latency_cycles)


@dataclass(frozen=True)
class DramConfig:
    """Six DDR4-2666 channels (Tab. II)."""

    channels: int = 6
    latency_cycles: int = 180
    bandwidth_gbps_per_channel: float = 19.2


@dataclass(frozen=True)
class NocConfig:
    """2D mesh on-chip network."""

    width: int = 6
    height: int = 4
    hop_cycles: int = 2
    router_cycles: int = 1
    link_bytes_per_cycle: int = 32

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("mesh dimensions must be positive")

    @property
    def num_nodes(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class QeiConfig:
    """The accelerator itself (Sec. IV and Tab. II).

    ``qst_entries`` is 10 for the per-core/per-CHA schemes and scaled to
    10 x num_cores for the centralized device schemes (done by
    :meth:`SystemConfig.effective_qst_entries`).
    """

    qst_entries: int = 10
    alus_per_dpu: int = 5
    comparators_per_cha: int = 2
    comparators_per_device_dpu: int = 10
    max_states: int = 256
    #: Per-query watchdog: CEE transitions a query may take before it is
    #: force-aborted with ``AbortCode.WATCHDOG`` (catches pointer cycles).
    watchdog_steps: int = 100_000
    #: Dedicated TLB used only by the CHA-TLB scheme (HALO-like).
    cha_tlb: TlbConfig = field(default_factory=lambda: TlbConfig(1024, 8, 2))

    def __post_init__(self) -> None:
        if self.watchdog_steps <= 0:
            raise ConfigurationError("watchdog_steps must be positive")


@dataclass(frozen=True)
class ServeConfig:
    """The cloud serving tier in front of the accelerator (docs/serving.md).

    A :class:`~repro.serve.QueryServer` admits per-tenant request streams
    into bounded queues, coalesces admitted requests into QUERY_NB bursts
    routed to their home accelerator, and tracks per-tenant latency against
    an SLO budget.  The tier's fixed policy (queue depth, burst size, SLO
    budget, closed-loop clients) lives as constants on the classes that
    apply it; docs/serving.md lists them.
    """

    #: Number of tenant request streams (each mapped to a submitting core).
    tenants: int = 4
    #: Open-loop offered load per tenant, in queries per cycle (Poisson).
    offered_load: float = 0.004
    #: Fraction of each tenant's requests that are writes (docs/mutations.md):
    #: 0.0 keeps the tier read-only and byte-identical to pre-mutation runs.
    write_ratio: float = 0.0

    def write_ratio_of(self, tenant: int) -> float:
        """The write ratio of ``tenant``: every tenant shares ``write_ratio``."""
        return self.write_ratio

    def __post_init__(self) -> None:
        if self.tenants <= 0:
            raise ConfigurationError("serve tenants must be positive")
        if self.offered_load <= 0:
            raise ConfigurationError("serve offered_load must be positive")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("serve write_ratio must be in [0, 1]")


@dataclass(frozen=True)
class ClusterConfig:
    """The replicated multi-node serving tier (docs/serving.md).

    A :class:`~repro.serve.cluster.SimulatedCluster` runs ``nodes`` full
    simulated machines behind a load-balancer tier that partitions the key
    space over a consistent-hash ring with ``replication``-way replica
    groups.  Link latency, probing, retry and replication timings are
    constants on the classes that apply them; docs/serving.md lists them.
    """

    #: Simulated nodes (each a full :class:`~repro.system.System` plus a
    #: multi-tenant frontend).
    nodes: int = 10
    #: Replica group size: each key-space shard is owned by this many nodes.
    replication: int = 2
    #: Write quorum W (docs/recovery.md): a write is acknowledged to the
    #: client only once W distinct replicas (the committing primary plus
    #: W-1 apply-stream acks) hold it.  Must not exceed ``replication``.
    write_quorum: int = 2

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ConfigurationError("cluster nodes must be positive")
        if not 0 < self.replication <= self.nodes:
            raise ConfigurationError(
                "cluster replication must be in [1, nodes]; got "
                f"{self.replication} for {self.nodes} nodes"
            )
        if self.write_quorum <= 0:
            # The effective quorum is clamped to the replica group size at
            # run time (a group can shrink below `replication` under
            # faults), so only the lower bound is a configuration error.
            raise ConfigurationError(
                "cluster write_quorum must be positive; got "
                f"{self.write_quorum}"
            )


@dataclass(frozen=True)
class SchemeLatencyConfig:
    """Round-trip latencies from Table I, in core cycles."""

    core_to_accel: int
    accel_to_data: int

    def __post_init__(self) -> None:
        if self.core_to_accel < 0 or self.accel_to_data < 0:
            raise ConfigurationError("latencies must be non-negative")


#: Table I midpoints.  ``accel_to_data`` is *additional* interface latency on
#: top of the cache/NoC simulation for the device schemes, and the local hop
#: cost for the near-cache schemes.
DEFAULT_SCHEME_LATENCIES = {
    IntegrationScheme.CHA_TLB: SchemeLatencyConfig(50, 0),
    IntegrationScheme.CHA_NOTLB: SchemeLatencyConfig(50, 0),
    IntegrationScheme.DEVICE_DIRECT: SchemeLatencyConfig(120, 40),
    IntegrationScheme.DEVICE_INDIRECT: SchemeLatencyConfig(300, 150),
    IntegrationScheme.CORE_INTEGRATED: SchemeLatencyConfig(18, 0),
}


@dataclass(frozen=True)
class SystemConfig:
    """Top-level simulated machine configuration (Tab. II defaults)."""

    num_cores: int = 24
    core: CoreConfig = field(default_factory=CoreConfig)
    llc: LlcConfig = field(default_factory=LlcConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    qei: QeiConfig = field(default_factory=QeiConfig)
    scheme_latencies: dict = field(
        default_factory=lambda: dict(DEFAULT_SCHEME_LATENCIES)
    )
    #: Simulated physical memory capacity.
    memory_bytes: int = 512 * 1024 * 1024
    process_technology_nm: int = 22

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigurationError("num_cores must be positive")
        if self.llc.slices != self.num_cores:
            raise ConfigurationError(
                "the paper's NUCA design has one LLC slice per core; got "
                f"{self.llc.slices} slices for {self.num_cores} cores"
            )
        if self.noc.num_nodes < self.num_cores:
            raise ConfigurationError(
                "mesh must have at least one node per core tile"
            )

    def scheme_latency(self, scheme: "IntegrationScheme | str") -> SchemeLatencyConfig:
        scheme = IntegrationScheme.parse(scheme)
        try:
            return self.scheme_latencies[scheme]
        except KeyError as exc:
            raise ConfigurationError(
                f"no latency configuration for scheme {scheme.value}"
            ) from exc

    def effective_qst_entries(self, scheme: "IntegrationScheme | str") -> int:
        """Total in-flight query capacity for a scheme (Sec. VI-A).

        Each accelerator instance has a 10-entry QST.  The Core-integrated
        scheme has one instance per core but a single-core ROI only ever
        drives its own (so: 10); the CHA schemes have one instance per LLC
        slice, all reachable from one core; the device schemes have one
        centralized instance scaled to 10 x cores for fairness.
        """
        scheme = IntegrationScheme.parse(scheme)
        if scheme in (
            IntegrationScheme.DEVICE_DIRECT,
            IntegrationScheme.DEVICE_INDIRECT,
        ):
            return self.qei.qst_entries * self.num_cores
        if scheme in (IntegrationScheme.CHA_TLB, IntegrationScheme.CHA_NOTLB):
            return self.qei.qst_entries * self.llc.slices
        return self.qei.qst_entries

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)


def small_config(num_cores: int = 4) -> SystemConfig:
    """A scaled-down machine for fast unit tests.

    Keeps the per-core microarchitecture but shrinks core count, LLC and
    memory so that full-system tests run in milliseconds.
    """
    return SystemConfig(
        num_cores=num_cores,
        llc=LlcConfig(
            total_size_bytes=num_cores * 1408 * 1024,
            associativity=11,
            slices=num_cores,
        ),
        noc=NocConfig(width=max(2, num_cores // 2), height=2),
        memory_bytes=64 * 1024 * 1024,
    )
