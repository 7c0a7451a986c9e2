"""2D mesh NoC with XY routing, hop latency and link utilisation tracking.

The paper's device-scheme critique rests on two NoC effects (Sec. V):

* every access to a *centralised* accelerator crosses more of the mesh, and
* the accelerator's single stop becomes a traffic hotspot ("each QEI
  accelerator can saturate as much as 8% of the mesh NoC bandwidth").

We model both: XY-routed messages charge bytes to each traversed link, and
:meth:`hotspot_factor` reports the most-loaded link's share of capacity so
experiments can show the congestion asymmetry between distributed and
centralised placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..config import NocConfig
from ..errors import ConfigurationError
from ..sim.stats import StatsRegistry

Link = Tuple[int, int]  # (src_node, dst_node), directed


@dataclass
class LinkUtilization:
    """Bytes carried by one directed link."""

    link: Link
    bytes_carried: int


class MeshNoc:
    """A width x height mesh with deterministic XY routing."""

    def __init__(self, config: NocConfig, *, stats: Optional[StatsRegistry] = None) -> None:
        self.config = config
        self._link_bytes: Dict[Link, int] = {}
        # Counters only, no registry reference: the flush hook list holds
        # this mesh (see StatsRegistry.add_flush_hook).
        scoped = (stats or StatsRegistry()).scoped("noc")
        self._messages = scoped.counter("messages")
        self._total_bytes = scoped.counter("bytes")
        #: (src, dst) -> (directed links on the XY path, zero-load latency).
        #: Routing is a pure function of the pair on a fixed topology, so
        #: the cache is exact; it only skips recomputing the same path
        #: arithmetic on every message.
        self._route_cache: Dict[Link, Tuple[Tuple[Link, ...], int]] = {}
        #: Every message's accounting, batched: (src, dst) -> [message count,
        #: total bytes].  Per-link byte sums and the message/byte totals are
        #: commutative, so folding the batch in at flush time lands the same
        #: state as charging each message as it is sent.  :meth:`send` and
        #: :meth:`charge` both record here and nowhere else; every stats read
        #: and utilisation query flushes first.
        self._pending_charges: Dict[Link, List[int]] = {}
        scoped.add_flush_hook(self._flush_charges)

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def coords(self, node: int) -> Tuple[int, int]:
        if not 0 <= node < self.config.num_nodes:
            raise ConfigurationError(f"node {node} outside mesh")
        return node % self.config.width, node // self.config.width

    def node_at(self, x: int, y: int) -> int:
        return y * self.config.width + x

    def route(self, src: int, dst: int) -> List[int]:
        """XY route: travel in X first, then Y. Includes both endpoints."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        path = [src]
        x, y = sx, sy
        step_x = 1 if dx > sx else -1
        while x != dx:
            x += step_x
            path.append(self.node_at(x, y))
        step_y = 1 if dy > sy else -1
        while y != dy:
            y += step_y
            path.append(self.node_at(x, y))
        return path

    def hops(self, src: int, dst: int) -> int:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def latency(self, src: int, dst: int) -> int:
        """Zero-load latency of one message."""
        return self._routed(src, dst)[1]

    def _routed(self, src: int, dst: int) -> Tuple[Tuple[Link, ...], int]:
        """Cached (path links, zero-load latency) for one (src, dst) pair."""
        cached = self._route_cache.get((src, dst))
        if cached is None:
            path = self.route(src, dst)
            per_hop = self.config.hop_cycles + self.config.router_cycles
            cached = (
                tuple(zip(path, path[1:])),
                self.hops(src, dst) * per_hop,
            )
            self._route_cache[(src, dst)] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Traffic accounting
    # ------------------------------------------------------------------ #

    def send(self, src: int, dst: int, num_bytes: int, now: int = 0) -> int:
        """Account one message and return its zero-load latency.

        Bandwidth effects are summarised post-hoc via utilisation, rather
        than back-pressuring each message; that keeps the simulator fast
        while still exposing hotspots.  The accounting is :meth:`charge`'s.
        """
        self.charge(src, dst, num_bytes, now)
        per_cycle = self.config.link_bytes_per_cycle
        serialization = (num_bytes + per_cycle - 1) // per_cycle
        return self._routed(src, dst)[1] + max(0, serialization - 1)

    def charge(self, src: int, dst: int, num_bytes: int, now: int = 0) -> None:
        """Account one message without computing its latency.

        For callers that already know the message latency (the memory
        hierarchy, which times the crossing with :meth:`latency` or replays
        a memoized one).  The counts accumulate per (src, dst) pair and are
        spread over the cached route's links at flush time.  ``now`` keeps
        the ``(src, dst, bytes, now)`` charge-hook signature; utilisation
        takes its window from the caller, so the mesh keeps no clock.
        """
        entry = self._pending_charges.get((src, dst))
        if entry is None:
            self._pending_charges[(src, dst)] = [1, num_bytes]
        else:
            entry[0] += 1
            entry[1] += num_bytes

    def _flush_charges(self) -> None:
        pending = self._pending_charges
        if not pending:
            return
        link_bytes = self._link_bytes
        messages = 0
        total_bytes = 0
        for (src, dst), (count, nbytes) in pending.items():
            messages += count
            total_bytes += nbytes
            links, _latency = self._routed(src, dst)
            for link in links:
                link_bytes[link] = link_bytes.get(link, 0) + nbytes
        self._messages.value += messages
        self._total_bytes.value += total_bytes
        pending.clear()

    def link_utilisations(self) -> Iterator[LinkUtilization]:
        self._flush_charges()
        for link, nbytes in sorted(self._link_bytes.items()):
            yield LinkUtilization(link, nbytes)

    def hotspot_factor(self, window_cycles: int) -> float:
        """Most-loaded link's utilisation over a window, in [0, 1+]."""
        self._flush_charges()
        if window_cycles <= 0 or not self._link_bytes:
            return 0.0
        capacity = window_cycles * self.config.link_bytes_per_cycle
        return max(self._link_bytes.values()) / capacity

    def mean_link_utilisation(self, window_cycles: int) -> float:
        self._flush_charges()
        if window_cycles <= 0 or not self._link_bytes:
            return 0.0
        capacity = window_cycles * self.config.link_bytes_per_cycle
        # Count every directed link in the mesh, including idle ones.
        w, h = self.config.width, self.config.height
        num_links = 2 * ((w - 1) * h + (h - 1) * w)
        return sum(self._link_bytes.values()) / (capacity * num_links)

    def reset_traffic(self) -> None:
        # Pending charges predate the reset: fold them in first so the
        # message/byte counters keep them while the per-link window state
        # is cleared.
        self._flush_charges()
        self._link_bytes.clear()
