"""Event-driven simulation kernel.

The kernel is deliberately small: a priority queue of timestamped events and
a statistics registry.  Components (caches, NoC, the QEI accelerator) are
plain objects that schedule callbacks on a shared :class:`Engine`.
"""

from .engine import Engine
from .stats import Counter, Histogram, PercentileSketch, StatsRegistry

__all__ = [
    "Engine",
    "Counter",
    "Histogram",
    "PercentileSketch",
    "StatsRegistry",
]
