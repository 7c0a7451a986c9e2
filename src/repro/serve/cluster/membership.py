"""Cluster membership: UP/SUSPECT/DOWN health states and the prober.

The load balancer never trusts a node it cannot hear: a :class:`Prober`
heartbeats every node over the same simulated links requests travel, so a
killed node *and* a partitioned link look identical from the LB's side —
missed acks.  Consecutive misses walk a node UP -> SUSPECT -> DOWN
(``SUSPECT_AFTER`` / ``DOWN_AFTER``); one ack walks it straight back to UP.
Every transition is appended to a deterministic membership log, and
UP <-> DOWN transitions fire the rebalance hook so the ring remaps the
node's shards (out on DOWN, back on recovery).

SUSPECT is a routing hint, not a removal: suspect nodes keep their shards
but the LB prefers UP replicas, so one slow probe round does not remap the
key space.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from ...sim.stats import StatsRegistry


class NodeState(str, enum.Enum):
    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"
    #: A recovered node replaying peers' commit logs (docs/recovery.md):
    #: alive and probing healthy, but *not* routable — it re-enters the
    #: ring only when caught up, so it can never serve a stale shard.
    CATCHING_UP = "catching-up"


#: States the ring may own shards in.
ROUTABLE_STATES = (NodeState.UP, NodeState.SUSPECT)


class Membership:
    """The LB's authoritative health table over the node fleet."""

    #: Consecutive missed probes before a node is marked SUSPECT.
    SUSPECT_AFTER = 2
    #: Consecutive missed probes before a node is marked DOWN (routed
    #: around and its shards remapped to ring successors).
    DOWN_AFTER = 3

    def __init__(
        self,
        nodes: int,
        *,
        stats: Optional[StatsRegistry] = None,
        on_change: Optional[Callable[[int, NodeState, NodeState], None]] = None,
    ) -> None:
        self.stats = (stats or StatsRegistry()).scoped("cluster.membership")
        self._states = [NodeState.UP] * nodes
        #: :meth:`routable`, kept by ``_transition`` (which writes _states).
        self._routable: FrozenSet[int] = frozenset(range(nodes))
        self._missed = [0] * nodes
        #: Nodes with an unfinished log replay: however their probe health
        #: moves, they can rise no higher than CATCHING_UP until the
        #: recovery layer calls :meth:`note_caught_up`.
        self._replaying: Set[int] = set()
        #: Deterministic transition log: one row per state change.
        self.log: List[Dict[str, object]] = []
        self._on_change = on_change
        self._transitions = self.stats.counter("transitions")

    # ------------------------------------------------------------------ #

    def state_of(self, node: int) -> NodeState:
        return self._states[node]

    def routable(self) -> FrozenSet[int]:
        """Nodes the ring may own shards on (not DOWN, not catching up)."""
        return self._routable

    def up_nodes(self) -> Set[int]:
        return {
            node
            for node, state in enumerate(self._states)
            if state is NodeState.UP
        }

    # ------------------------------------------------------------------ #

    def note_ack(self, node: int, now: int) -> None:
        """A heartbeat ack: reset suspicion, walk the node back to UP.

        A catching-up node stays CATCHING_UP however healthy its probes
        look — only :meth:`note_caught_up` (the replay finishing) promotes
        it, so a fast prober can never route traffic to a stale replica.
        """
        self._missed[node] = 0
        state = self._states[node]
        if node in self._replaying:
            # A partition mid-replay may have walked the node DOWN; healthy
            # probes bring it back to CATCHING_UP, never further.
            if state is not NodeState.CATCHING_UP:
                self._transition(node, NodeState.CATCHING_UP, now)
            return
        if state is not NodeState.UP:
            self._transition(node, NodeState.UP, now)

    def note_miss(self, node: int, now: int) -> None:
        """A probe went unanswered; escalate SUSPECT -> DOWN on repeats."""
        self._missed[node] += 1
        missed = self._missed[node]
        state = self._states[node]
        if state is NodeState.UP and missed >= self.SUSPECT_AFTER:
            self._transition(node, NodeState.SUSPECT, now)
        elif (
            state in (NodeState.SUSPECT, NodeState.CATCHING_UP)
            and missed >= self.DOWN_AFTER
        ):
            self._transition(node, NodeState.DOWN, now)

    def note_catching_up(self, node: int, now: int) -> None:
        """A recovered node announced log replay (docs/recovery.md)."""
        self._missed[node] = 0
        self._replaying.add(node)
        if self._states[node] is not NodeState.CATCHING_UP:
            self._transition(node, NodeState.CATCHING_UP, now)

    def note_caught_up(self, node: int, now: int) -> None:
        """Replay converged: the node re-enters the ring."""
        self._replaying.discard(node)
        if self._states[node] is NodeState.CATCHING_UP:
            self._missed[node] = 0
            self._transition(node, NodeState.UP, now)

    def _transition(self, node: int, to: NodeState, now: int) -> None:
        frm = self._states[node]
        self._states[node] = to
        self._routable = frozenset(
            n for n, state in enumerate(self._states) if state in ROUTABLE_STATES
        )
        self._transitions.add()
        self.log.append(
            {"cycle": now, "node": node, "from": frm.value, "to": to.value}
        )
        if self._on_change is not None:
            self._on_change(node, frm, to)


class Prober:
    """Heartbeat loop: one staggered probe stream per node over the links.

    ``send`` delivers a probe to a node and must eventually invoke the
    given ack callback *iff* the node is alive and the link is healthy in
    both directions; otherwise the probe-timeout fires and the miss is
    charged.  Probes are identified by (node, seq) so a late ack from a
    healed partition can never satisfy a newer probe.
    """

    #: Heartbeat interval per node.
    PROBE_INTERVAL_CYCLES = 1_024
    #: A probe without an ack after this long counts as missed.
    PROBE_TIMEOUT_CYCLES = 256

    def __init__(
        self,
        engine,
        nodes: int,
        membership: Membership,
        send: Callable[[int, Callable[[], None]], None],
    ) -> None:
        self.engine = engine
        self.nodes = nodes
        self.membership = membership
        self._send = send
        self._seq = [0] * nodes
        self._acked = [True] * nodes

    def start(self) -> None:
        # Stagger the fleet one cycle apart so same-cycle probe order never
        # depends on dict/iteration incidentals.
        for node in range(self.nodes):
            self.engine.schedule(node + 1, lambda n=node: self._probe(n))

    # ------------------------------------------------------------------ #

    def _probe(self, node: int) -> None:
        self._seq[node] += 1
        seq = self._seq[node]
        self._acked[node] = False
        self._send(node, lambda n=node, s=seq: self._ack(n, s))
        self.engine.schedule(
            self.PROBE_TIMEOUT_CYCLES,
            lambda n=node, s=seq: self._timeout(n, s),
        )
        self.engine.schedule(
            self.PROBE_INTERVAL_CYCLES, lambda n=node: self._probe(n)
        )

    def _ack(self, node: int, seq: int) -> None:
        if seq != self._seq[node]:
            return  # stale ack from an earlier probe round
        self._acked[node] = True
        self.membership.note_ack(node, self.engine.now)

    def _timeout(self, node: int, seq: int) -> None:
        if seq != self._seq[node] or self._acked[node]:
            return
        self.membership.note_miss(node, self.engine.now)
