"""McPAT-style aggregation: components -> configuration totals.

The paper's methodology (Sec. VI-A) is incremental: configure the baseline
CPU, add QEI's components, subtract — the difference is QEI's cost.  Here
components are explicit, so a configuration *is* the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import List

from .cacti import SramMacro


@dataclass(frozen=True)
class ComponentCost:
    """One named component's contribution."""

    name: str
    area_mm2: float
    static_power_mw: float

    @classmethod
    def from_macro(cls, macro: SramMacro) -> "ComponentCost":
        return cls(macro.name, macro.area_mm2, macro.leakage_mw)


@dataclass
class Configuration:
    """A named set of components (one Tab. III row)."""

    name: str
    components: List[ComponentCost] = field(default_factory=list)

    def add(self, component: "ComponentCost | SramMacro") -> "Configuration":
        if isinstance(component, SramMacro):
            component = ComponentCost.from_macro(component)
        self.components.append(component)
        return self

    # Totals add left to right: Python 3.12's sum() compensates float
    # rounding, and a Tab. III row must read the same on every interpreter.
    @property
    def area_mm2(self) -> float:
        return reduce(add, (c.area_mm2 for c in self.components), 0.0)

    @property
    def static_power_mw(self) -> float:
        return reduce(add, (c.static_power_mw for c in self.components), 0.0)

    def breakdown(self) -> str:
        lines = [f"{self.name}:"]
        for c in self.components:
            lines.append(
                f"  {c.name:<18} {c.area_mm2:8.4f} mm2  {c.static_power_mw:8.4f} mW"
            )
        lines.append(
            f"  {'total':<18} {self.area_mm2:8.4f} mm2  "
            f"{self.static_power_mw:8.4f} mW"
        )
        return "\n".join(lines)
