"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.  Simulated
*architectural* faults (page faults, protection faults observed by the QEI
accelerator) are modelled as data (error codes in the Query State Table), not
as Python exceptions; the classes below signal *misuse of the library* or an
internally inconsistent simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, out of range, or inconsistent."""


class MemoryError_(ReproError):
    """Base class for simulated-memory errors (name avoids the builtin)."""


class SegmentationFault(MemoryError_):
    """A virtual address was accessed that is not mapped in the process."""

    def __init__(self, vaddr: int, message: str = "") -> None:
        detail = message or f"unmapped virtual address 0x{vaddr:x}"
        super().__init__(detail)
        self.vaddr = vaddr


class ProtectionFault(MemoryError_):
    """A mapped virtual address was accessed with insufficient permission."""

    def __init__(self, vaddr: int, access: str) -> None:
        super().__init__(f"{access} access denied at 0x{vaddr:x}")
        self.vaddr = vaddr
        self.access = access


class OutOfMemory(MemoryError_):
    """The simulated physical memory or a virtual arena is exhausted."""


class AllocationError(MemoryError_):
    """The simulated allocator cannot satisfy a request (bad size/free)."""


class DataStructureError(ReproError):
    """A simulated data structure is malformed or misused."""


class CapacityError(DataStructureError):
    """A bounded structure (e.g. cuckoo hash table) cannot take more items."""


class FirmwareError(ReproError):
    """A CFA firmware image is malformed or references unknown states."""


class AcceleratorError(ReproError):
    """The QEI accelerator was driven outside its architectural contract."""


class SimulationError(ReproError):
    """The event-driven simulation reached an inconsistent state."""


class WorkloadError(ReproError):
    """A workload was configured or driven incorrectly."""
