"""Consistent-hash ring: key-space partitioning with R-way replica groups.

Every node contributes ``VNODES`` virtual tokens placed by a *stable* hash
(blake2b — never Python's salted ``hash``), so token placement, shard
ownership and therefore the whole cluster simulation are identical across
processes and runs.  A key's replica group is the first ``replication``
distinct nodes walking clockwise from the key's position; membership health
filters that walk, so marking a node DOWN remaps exactly the shards it
owned to their ring successors (the minimal-disruption property that makes
rebalancing cheap) and recovery remaps them back.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List, Optional, Set, Tuple

_SPACE_BITS = 64
_SPACE = 1 << _SPACE_BITS


def stable_hash(data: bytes) -> int:
    """A 64-bit position on the ring, stable across processes and runs."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def key_position(key: bytes) -> int:
    """Ring position of one query key."""
    return stable_hash(b"key:" + key)


class HashRing:
    """Virtual-token consistent-hash ring over integer node ids."""

    #: Virtual tokens per node (smooths shard sizes).
    VNODES = 8

    def __init__(self, nodes: int) -> None:
        if nodes <= 0:
            raise ValueError("ring needs at least one node")
        self.nodes = nodes
        tokens: List[Tuple[int, int]] = []
        for node in range(nodes):
            for vnode in range(self.VNODES):
                position = stable_hash(b"node:%d:vnode:%d" % (node, vnode))
                tokens.append((position, node))
        tokens.sort()
        self._positions = [position for position, _ in tokens]
        self._owners = [node for _, node in tokens]

    # ------------------------------------------------------------------ #

    def owners(
        self,
        key_position: int,
        replication: int,
        *,
        routable: Optional[Set[int]] = None,
    ) -> List[int]:
        """The ordered replica group for a key: primary first.

        ``routable`` (when given) filters the clockwise walk — a DOWN node
        is skipped and its shards fall to the next distinct nodes on the
        ring, which *is* the rebalance: no state moves, ownership remaps.
        Returns fewer than ``replication`` nodes when not enough distinct
        routable nodes exist.
        """
        owners: List[int] = []
        count = len(self._positions)
        start = bisect.bisect_left(self._positions, key_position % _SPACE)
        for step in range(count):
            node = self._owners[(start + step) % count]
            if node in owners:
                continue
            if routable is not None and node not in routable:
                continue
            owners.append(node)
            if len(owners) >= replication:
                break
        return owners

    def primary_map(self, routable: Set[int]) -> List[Optional[int]]:
        """Per-token primary owner under a routable set (None when empty)."""
        count = len(self._positions)
        owners: List[Optional[int]] = []
        for index in range(count):
            owner: Optional[int] = None
            for step in range(count):
                node = self._owners[(index + step) % count]
                if node in routable:
                    owner = node
                    break
            owners.append(owner)
        return owners

    def remapped_share(
        self, before: Iterable[int], after: Iterable[int]
    ) -> float:
        """Ring fraction whose *primary* changed between two routable sets.

        The drain-and-remap metric the membership log reports: a node kill
        should remap only (about) that node's own share of the ring, not
        reshuffle the whole key space.
        """
        before_map = self.primary_map(set(before))
        after_map = self.primary_map(set(after))
        count = len(self._positions)
        moved = 0.0
        for index in range(count):
            if before_map[index] != after_map[index]:
                # Keys map to the first token at-or-after their position, so
                # token ``index`` owns the arc reaching back to its
                # predecessor.
                here = self._positions[index]
                prev = self._positions[index - 1]
                moved += ((here - prev) % _SPACE or _SPACE) / _SPACE
        return moved
