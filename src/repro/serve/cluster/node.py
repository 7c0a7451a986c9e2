"""One cluster node: a full simulated machine behind its own frontend.

A :class:`ClusterNode` is *not* a latency model — it wraps a complete
:class:`~repro.system.System` (accelerator, caches, NoC, fallback executor)
plus the single-node :class:`~repro.serve.QueryServer` (bounded admission
queues, QUERY_NB batcher, per-tenant SLO sketches), all scheduling on the
cluster's shared event engine.  Everything PRs 1-3 hardened — abort codes,
watchdogs, software fallback, slice health — therefore holds per node,
unchanged, under cluster load.

The node's ingress enforces ring ownership: a request for a shard this node
does not own under the current membership view is answered ``not-owner``
and the LB re-routes it — the drain-and-remap race a rebalance creates is
resolved by retry, never by serving a shard the ring moved away.  A node
killed by :meth:`fail` keeps its simulation state (the engine events it
already scheduled still fire) but drops every response at the egress, which
is exactly what a crashed process looks like from the LB's side.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from ...config import ServeConfig
from ...core.cfa import OP_DELETE, OP_LOOKUP
from ..frontend import ServeRequest
from ..server import QueryServer

#: Response kinds a node can send back to the LB.
RESP_OK = "ok"
RESP_FAILED = "failed"
RESP_REJECTED = "rejected"
RESP_NOT_OWNER = "not-owner"

#: Retry-after hint attached to a ``not-owner`` response: the LB re-routes
#: against its (already newer) membership view after this short pause.
NOT_OWNER_RETRY_CYCLES = 32


class _TenantPort:
    """The per-tenant 'load generator' the node's QueryServer reports to.

    The single-node server calls the same callbacks a tenant's load
    generator would receive; here they terminate node-side service and hand
    the disposition back to the node, which answers the LB over the link.
    """

    def __init__(self, node: "ClusterNode", tenant: int) -> None:
        # The node owns its server, which owns this port.
        self.node = weakref.proxy(node)
        self.tenant = tenant
        self.finished = False  # the cluster loop never calls server.run()

    def bind(self, server) -> None:  # QueryServer.attach protocol
        pass

    def on_rejected(self, request: ServeRequest, retry_after: int) -> None:
        self.node._admission_rejected(request, retry_after)

    def on_resolved(self, request: ServeRequest) -> None:
        self.node._resolved(request)


class ClusterNode:
    """One replica: full System + frontend, addressable over the LB link."""

    def __init__(
        self,
        node_id: int,
        system,
        workload,
        serve_config: ServeConfig,
        *,
        seed: int,
        respond: Callable[[int, object, str, Optional[int], int], None],
        owns_key: Callable[[int, int], bool],
    ) -> None:
        self.node_id = node_id
        self.system = system
        self.workload = workload
        self.server = QueryServer(
            system, workload, serve_config, mode="batched", seed=seed
        )
        #: ``respond(node_id, token, kind, value, retry_after)`` hands a
        #: response to the cluster fabric (which applies link state/latency).
        self._respond = respond
        #: ``owns_key(node_id, key_position)`` consults the ring + the
        #: LB-authoritative membership view (docs/serving.md).
        self._owns_key = owns_key
        self.alive = True
        self._next_id = 0
        #: node request key -> the LB's opaque request token.
        self._tokens: Dict[int, object] = {}
        #: node request key -> (key_position, LB write epoch, LB serial):
        #: what the replication layer needs to defer a write's ok on its
        #: quorum, plus the retry-stable identity for write dedup.
        self._meta: Dict[int, Tuple[int, int, int]] = {}
        #: LB request serial -> (commit ordinal, result): writes this node
        #: already committed, kept so a quorum-timeout retry re-arms the
        #: original commit instead of executing the mutation twice.
        self._write_commits: Dict[int, Tuple[int, Optional[int]]] = {}
        #: Durability layer (docs/recovery.md); None until the cluster
        #: calls :meth:`enable_replication` (writes-enabled runs only).
        self.replication = None
        self._peers: Optional[Callable[[int], object]] = None
        stats = system.stats.scoped(f"cluster.node{node_id}")
        self._received = stats.counter("received")
        self._dropped_dead = stats.counter("dropped.dead")
        self._not_owner = stats.counter("not_owner")
        self._killed_inflight = stats.counter("killed.inflight")
        self._write_dedup = stats.counter("write.dedup")
        for tenant in range(serve_config.tenants):
            self.server.attach(_TenantPort(self, tenant))

    # ------------------------------------------------------------------ #
    # Ingress (called by the cluster fabric at link-delivery time)
    # ------------------------------------------------------------------ #

    def receive(
        self,
        token: object,
        tenant: int,
        index: int,
        key_position: int,
        op: int = 0,
        value: int = 0,
        epoch: int = 0,
        serial: int = 0,
    ) -> None:
        """One request arriving off the LB link."""
        if not self.alive:
            self._dropped_dead.add()
            return  # a dead node answers nothing; the LB times out
        self._received.add()
        if not self._owns_key(self.node_id, key_position):
            self._not_owner.add()
            self._respond(
                self.node_id, token, RESP_NOT_OWNER, None,
                NOT_OWNER_RETRY_CYCLES,
            )
            return
        if (
            self.replication is not None
            and op != OP_LOOKUP
            and serial in self._write_commits
        ):
            # The LB is retrying a write whose first attempt committed but
            # whose quorum-deferred ok never made it back (e.g. a replica
            # died mid-quorum).  Re-executing would apply the mutation a
            # second time with a fresh stamp, serialized *after* — and so
            # clobbering — writes committed since the original.  Exactly
            # once: re-arm the quorum wait on the original commit.
            self._write_dedup.add()
            ordinal, result_value = self._write_commits[serial]
            self.replication.open_wait(
                ordinal=ordinal,
                key_pos=key_position,
                epoch=epoch,
                op=op,
                settled_value=None if op == OP_DELETE else value,
                token=token,
                result_value=result_value,
            )
            return
        self._next_id += 1
        request = ServeRequest(
            tenant=tenant,
            index=index,
            request_id=self._next_id,
            arrival_cycle=self.system.engine.now,
            op=op,
            value=value,
        )
        key = self._key(request)
        self._tokens[key] = token
        self._meta[key] = (key_position, epoch, serial)
        self.server.accept(self.server._generators_by_tenant[tenant], request)

    def _key(self, request: ServeRequest) -> int:
        return request.request_id * self.server.config.tenants + request.tenant

    # ------------------------------------------------------------------ #
    # Egress (QueryServer callbacks via _TenantPort)
    # ------------------------------------------------------------------ #

    def _admission_rejected(
        self, request: ServeRequest, retry_after: int
    ) -> None:
        key = self._key(request)
        token = self._tokens.pop(key, None)
        self._meta.pop(key, None)
        if token is None or not self.alive:
            return
        # The node-level Admission verdict travels up with its retry-after
        # hint so the LB (and through it the client) backs off against this
        # node instead of hammering it.
        self._respond(
            self.node_id, token, RESP_REJECTED, None, retry_after
        )

    def _resolved(self, request: ServeRequest) -> None:
        key = self._key(request)
        token = self._tokens.pop(key, None)
        meta = self._meta.pop(key, None)
        if token is None or not self.alive:
            return
        kind = RESP_OK if request.outcome == "ok" else RESP_FAILED
        if (
            kind == RESP_OK
            and request.commit_seq is not None
            and self.replication is not None
            and meta is not None
        ):
            # A published write: its ok is a durability promise, so it
            # waits for the replica quorum (docs/recovery.md).  Misses
            # (commit_seq None) changed nothing and answer immediately.
            key_position, epoch, serial = meta
            if serial:
                self._write_commits[serial] = (
                    request.commit_seq, request.result_value
                )
            self.replication.open_wait(
                ordinal=request.commit_seq,
                key_pos=key_position,
                epoch=epoch,
                op=request.op,
                settled_value=(
                    None if request.op == OP_DELETE else request.value
                ),
                token=token,
                result_value=request.result_value,
            )
            return
        self._respond(self.node_id, token, kind, request.result_value, 0)

    def quorum_respond(self, token: object, result_value: Optional[int]) -> None:
        """Deferred write ok, released by the replication quorum."""
        if not self.alive:
            return
        self._respond(self.node_id, token, RESP_OK, result_value, 0)

    # ------------------------------------------------------------------ #
    # Replication wiring (writes-enabled cluster runs only)
    # ------------------------------------------------------------------ #

    def enable_replication(self, manager, peers: Callable[[int], object]) -> None:
        """Attach the durability layer and export structure commits to it."""
        self.replication = manager
        self._peers = peers
        mutator = self.server._mutator
        if mutator is not None:
            manager.align_baseline(mutator.lock.read())
            mutator.on_commit = manager.local_commit

    def peer(self, node: int):
        """The :class:`ReplicationManager` of another node (fabric hop)."""
        assert self._peers is not None
        return self._peers(node)

    # ------------------------------------------------------------------ #
    # The cluster loop's drive hooks + fault surface
    # ------------------------------------------------------------------ #

    def pump(self) -> None:
        """Retire completions and refill the dispatch window (one tick).

        The cluster loop calls this only after the server's ``wake`` hook
        has fired or the node failed or restarted; a node it skips has
        nothing for the pump to do.
        """
        server = self.server
        if server._completions:
            server._drain_completions()
        if server.frontend.pending and server._outstanding < server.limit:
            server._dispatch()

    def flush(self) -> bool:
        """Force open batches out (stall recovery); True when any flushed."""
        return self.server.batcher.flush_all()

    def write_problems(self) -> List[str]:
        """The node's lost/phantom-update audit (empty when read-only).

        The cluster loop drives :meth:`pump` directly and never calls
        ``QueryServer.run``, so the shadow-oracle final check has to be
        requested explicitly once the fleet drains.
        """
        oracle = self.server._oracle
        if oracle is None:
            return []
        return oracle.final_check()

    @property
    def busy(self) -> bool:
        return bool(
            self.server._outstanding
            or self.server.frontend.pending
            or self.server._completions
        )

    def fail(self) -> int:
        """Kill the node; returns the requests it will never answer."""
        lost = len(self._tokens)
        self._killed_inflight.add(lost)
        self.alive = False
        # A crashed process loses its socket state: forget the in-flight
        # tokens so a response computed later (the simulation keeps running
        # the already-scheduled events) can never reach the LB.
        self._tokens.clear()
        self._meta.clear()
        # The dedup table is session state, not durable state: commits it
        # points at may be rolled back during recovery (torn-WAL resync),
        # so post-recovery retries must re-execute rather than re-arm.
        self._write_commits.clear()
        if self.replication is not None:
            self.replication.on_fail()
        return lost

    def recover(self) -> None:
        """Restart the node: it answers the LB again.

        Only ``alive`` changes.  Work the server still held at the crash
        keeps running, but its tokens are gone, so none of it answers; the
        prober re-admits the node.
        """
        self.alive = True
