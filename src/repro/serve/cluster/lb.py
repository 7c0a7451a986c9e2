"""The load-balancer tier: ring routing, replica failover, bounded retry.

The LB is the cluster's only client-facing surface.  Every request is
routed to its key's replica group off the consistent-hash ring (filtered by
the membership view, so DOWN nodes are routed around), dispatched to one
replica with a per-attempt response timeout, and failed over — bounded
attempts, exponential backoff — until it completes or the attempt budget is
burnt.  A request therefore *always* reaches a terminal outcome: completed,
or failed after ``MAX_ATTEMPTS``; nothing can hang on a dead node or a
dropped link message.

Backpressure propagates end to end: a node-level admission rejection
travels up with its retry-after hint, the LB embargoes that node for the
hinted window, and when every replica of a key is embargoed the arrival is
rejected *to the client* with the soonest-expiry hint — closed-loop clients
back off against the cluster exactly as they back off against a single
frontend.

At-least-once semantics: a timed-out attempt may still execute on its node
while the retry runs elsewhere.  The first ``ok`` response wins (late ones
are counted ``stale``); every winning value is checked against the
software oracle, so duplicated execution can never surface a wrong result.

Writes (docs/mutations.md) are routed to the key's *primary* replica only:
the write lands on one copy first, so fanning it over the group would
double-apply it.  A written key is *pinned* while its replicas converge —
but the pin is no longer forever: commit-log replication (docs/recovery.md)
ships every primary commit to the replica group, replicas ack cumulative
watermarks, and the LB learns which replicas hold the key's latest write
epoch.  Pinned reads fan out over primary + synced replicas immediately,
and once the whole group acks — with no request for the key in flight —
the pin *settles*: the key returns to full R-way read fan-out with the
converged value as its expected answer.  The LB-level result check for
written keys tests membership in the set of plausibly-visible values
(at-least-once retries make several defensible); the node-side shadow
oracle and the linearizability history checker remain the tight judges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ...config import ClusterConfig
from ...core.cfa import OP_DELETE
from ...sim.stats import PercentileSketch, StatsRegistry
from ..frontend import ServeRequest
from ..loadgen import ClosedLoopGenerator
from .membership import Membership, NodeState
from .ring import HashRing
from .node import RESP_FAILED, RESP_NOT_OWNER, RESP_OK, RESP_REJECTED


@dataclass
class _Pending:
    """LB-side state of one in-flight cluster request."""

    sreq: ServeRequest
    generator: object
    key_position: int
    attempts: int = 0
    #: Bumped per dispatch; responses carry it so late ones are detected.
    attempt_seq: int = 0
    target: Optional[int] = None
    tried: Set[int] = field(default_factory=set)
    timeout_event: Optional[list] = None
    resolved: bool = False
    #: True for writes and for reads of keys a write has pinned: the request
    #: may only be served by the key's primary replica (or, for reads, a
    #: replica that acked the pin's current write epoch).
    primary_only: bool = False
    #: The key's write epoch this request was admitted under (writes only;
    #: echoed through the node so replication acks match their pin).
    epoch: int = 0
    #: History-checker op id (recorded runs only; docs/recovery.md).
    hist_id: Optional[int] = None
    #: LB-unique request serial, stable across retries: nodes key their
    #: write dedup on it so a quorum-timeout retry cannot re-execute a
    #: mutation the first attempt already committed.
    serial: int = 0


@dataclass
class _PinState:
    """Replication convergence state of one written key (docs/recovery.md).

    A pin exists from the first write to a key until the replica group
    acks its *latest* write epoch with nothing for the key in flight; it
    then settles into :attr:`LoadBalancer._settled` and routing returns to
    full read fan-out.
    """

    #: Bumped per accepted write; replication updates for older epochs are
    #: stale and ignored.
    epoch: int = 0
    #: Writes for the key still unresolved at the LB.
    writes_inflight: int = 0
    #: Every value a read of the key may defensibly return (at-least-once
    #: dispatch means even a timed-out write may have applied).
    valid: Set[Optional[int]] = field(default_factory=set)
    #: Nodes that ack-covered the current epoch's commit ordinal.
    synced: Set[int] = field(default_factory=set)
    #: The node the current epoch's write was last dispatched to: until a
    #: replication ack proves otherwise, the only replica that can hold —
    #: and may already have *exposed*, via a read it served — the unacked
    #: write.  Reads route here when ``synced`` is empty, even if a
    #: failover has since promoted a different ring primary.
    holder: Optional[int] = None
    #: Highest epoch the full replica group has acked (-1 = none yet).
    full_epoch: int = -1
    #: True when the key's pre-pin value is unknown (its settled entry was
    #: evicted): the LB read check stands down for this key.
    checkless: bool = False


@dataclass(frozen=True)
class _SettledState:
    """A retired pin: the converged valid-value set and who held it."""

    valid: FrozenSet[Optional[int]]
    #: The replica set that had acked when the pin settled.  If a later
    #: rebalance routes the key to a node outside this set (a stand-in
    #: holding build-time data), the key is re-pinned before a read can
    #: reach the stale copy.
    synced: FrozenSet[int]


class FleetSlo:
    """Cluster-level end-to-end accounting: sketches, counters, phases."""

    def __init__(
        self, tenants: int, *, stats: Optional[StatsRegistry] = None
    ) -> None:
        self.stats = (stats or StatsRegistry()).scoped("cluster.slo")
        self.tenants = tenants
        self._sketches = [
            self.stats.sketch(f"tenant{t}.e2e") for t in range(tenants)
        ]
        names = (
            "issued", "completed", "failed", "giveups", "rejected",
            "retries", "timeouts", "not_owner", "node_rejections",
            "stale", "result_errors",
        )
        self.counters = {name: self.stats.counter(name) for name in names}
        self._phases: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #

    def begin_phase(self, name: str, now: int) -> None:
        self._phases.append(
            {
                "name": name,
                "start_cycle": now,
                "sketch": PercentileSketch(f"cluster.phase.{name}.e2e"),
                "issued": 0,
                "completed": 0,
                "failed": 0,
                "giveups": 0,
            }
        )

    def _phase(self) -> Optional[Dict[str, object]]:
        return self._phases[-1] if self._phases else None

    def record_issue(self) -> None:
        self.counters["issued"].add()
        phase = self._phase()
        if phase is not None:
            phase["issued"] += 1

    def record_completion(self, tenant: int, latency: int) -> None:
        self._sketches[tenant].record(latency)
        self.counters["completed"].add()
        phase = self._phase()
        if phase is not None:
            phase["completed"] += 1
            phase["sketch"].record(latency)

    def record_failure(self) -> None:
        self.counters["failed"].add()
        phase = self._phase()
        if phase is not None:
            phase["failed"] += 1

    def record_giveup(self) -> None:
        self.counters["giveups"].add()
        phase = self._phase()
        if phase is not None:
            phase["giveups"] += 1

    def sketch_of(self, tenant: int) -> PercentileSketch:
        return self._sketches[tenant]

    @property
    def terminal(self) -> int:
        """Requests with a terminal outcome (chaos schedules key off this)."""
        return (
            self.counters["completed"].value
            + self.counters["failed"].value
            + self.counters["giveups"].value
        )

    def phase_rows(self) -> List[Dict[str, object]]:
        rows = []
        for phase in self._phases:
            terminal = phase["completed"] + phase["failed"] + phase["giveups"]
            sketch = phase["sketch"]
            rows.append(
                {
                    "name": phase["name"],
                    "start_cycle": phase["start_cycle"],
                    "issued": phase["issued"],
                    "completed": phase["completed"],
                    "failed": phase["failed"],
                    "giveups": phase["giveups"],
                    "availability": (
                        phase["completed"] / terminal if terminal else 1.0
                    ),
                    "p50": sketch.p50,
                    "p99": sketch.p99,
                    "mean": sketch.mean,
                }
            )
        return rows


class LoadBalancer:
    """Routes client requests over the node fleet; owns retry/failover."""

    #: Per-attempt response timeout before failing over to a replica.
    REQUEST_TIMEOUT_CYCLES = 8_192
    #: Total dispatch attempts per request across replicas.
    MAX_ATTEMPTS = 6
    #: Base retry backoff between attempts (doubles per retry).
    RETRY_BACKOFF_CYCLES = 128
    #: Embargo on a node after one of its requests times out.
    TIMEOUT_EMBARGO_CYCLES = 2_048
    #: Settled-key map bound: fully replicated keys whose last value the LB
    #: remembers for read validation; the oldest entry is evicted once the
    #: map is full.
    SETTLED_KEY_LIMIT = 4_096

    def __init__(
        self,
        engine,
        config: ClusterConfig,
        ring: HashRing,
        membership: Membership,
        *,
        send: Callable[[int, object, int, int, int], None],
        key_positions: List[int],
        expected: List[Optional[int]],
        slo: FleetSlo,
    ) -> None:
        self.engine = engine
        self.config = config
        self.ring = ring
        self.membership = membership
        #: ``send(node, token, tenant, index, key_position, op, value,
        #: epoch, serial)`` puts one request on the LB -> node link (the
        #: fabric applies latency/drops).
        self._send = send
        self._key_positions = key_positions
        self._expected = expected
        self.slo = slo
        #: Per-node admission embargo: absolute cycle before which the LB
        #: avoids the node (fed by node retry-after hints and timeouts).
        self._embargo = [0] * config.nodes
        self.outstanding = 0
        #: Monotone request serials (see :attr:`_Pending.serial`).
        self._next_serial = 0
        #: Ring positions with an unsettled write: pinned to the primary
        #: (plus synced replicas) until the replica group converges.
        self._pins: Dict[int, _PinState] = {}
        #: Settled written keys (insertion-ordered; capped at
        #: ``SETTLED_KEY_LIMIT``, FIFO evict).
        self._settled: Dict[int, _SettledState] = {}
        #: Every ring position a write ever touched (ints only, so keeping
        #: it unbounded is cheap).  A key evicted from ``_settled`` stays
        #: here, telling the read check to stand down rather than judge
        #: against the stale build-time answer.
        self._dirty: Set[int] = set()
        #: In-flight requests per written key position, *all* kinds: a read
        #: admitted before a pin settles may return an old value late, so
        #: settling waits for it too.
        self._key_inflight: Dict[int, int] = {}
        self.writes_ok = 0
        #: Pins settled back to full fan-out / settled entries FIFO-evicted.
        self.pin_evictions = 0
        self.settled_evictions = 0
        #: Optional :class:`~repro.faults.history.HistoryRecorder`; the
        #: chaos harnesses attach one to audit linearizability.
        self.history = None

    # ------------------------------------------------------------------ #
    # Client-facing admission (LoadGenerator server protocol)
    # ------------------------------------------------------------------ #

    def accept(self, generator, sreq: ServeRequest) -> bool:
        now = self.engine.now
        key_position = self._key_positions[sreq.index]
        owners = self.ring.owners(
            key_position,
            self.config.replication,
            routable=self.membership.routable(),
        )
        primary_only = sreq.is_write or key_position in self._pins
        gate = owners[:1] if primary_only else owners
        if gate and all(self._embargo[node] > now for node in gate):
            # Cluster-wide backpressure for this shard: every replica asked
            # for breathing room.  Surface the soonest expiry to the client.
            retry_after = max(
                1, min(self._embargo[node] for node in gate) - now
            )
            self.slo.counters["rejected"].add()
            if sreq.attempts >= ClosedLoopGenerator.MAX_ADMISSION_ATTEMPTS:
                # This rejection exhausts the client's retry budget: the
                # request is terminally lost and counts against availability.
                self.slo.record_giveup()
            generator.on_rejected(sreq, retry_after)
            return False
        self._next_serial += 1
        pending = _Pending(
            sreq=sreq,
            generator=generator,
            key_position=key_position,
            primary_only=primary_only,
            serial=self._next_serial,
        )
        if sreq.is_write:
            # Pin the key (or bump an existing pin to a fresh epoch — the
            # replica group must re-ack before the key can settle) and
            # widen the valid-read set by this write's candidate the moment
            # it is dispatched: a lost response is not a lost execution.
            pin = self._pins.get(key_position)
            if pin is None:
                settled = self._settled.pop(key_position, None)
                if settled is not None:
                    pin = _PinState(
                        valid=set(settled.valid),
                        synced=set(settled.synced),
                    )
                elif key_position in self._dirty:
                    # Written before, but its settled entry was evicted:
                    # the pre-pin value is unknown, so reads of this key
                    # are not judged at the LB any more.
                    pin = _PinState(checkless=True)
                else:
                    pin = _PinState(valid={self._expected[sreq.index]})
                self._pins[key_position] = pin
            pin.epoch += 1
            pin.writes_inflight += 1
            pin.synced.clear()
            pin.valid.add(None if sreq.op == OP_DELETE else sreq.value)
            pending.epoch = pin.epoch
            self._dirty.add(key_position)
        if key_position in self._dirty:
            self._key_inflight[key_position] = (
                self._key_inflight.get(key_position, 0) + 1
            )
        self.slo.record_issue()
        if self.history is not None:
            pending.hist_id = self.history.invoke(
                key_position, sreq.op, sreq.value, now
            )
        self.outstanding += 1
        self._attempt(pending)
        return True

    # ------------------------------------------------------------------ #
    # Dispatch / failover
    # ------------------------------------------------------------------ #

    def _candidates(self, pending: _Pending, now: int) -> List[int]:
        """Replica preference order: UP before SUSPECT, untried, no embargo."""
        owners = self.ring.owners(
            pending.key_position,
            self.config.replication,
            routable=self.membership.routable(),
        )
        if not owners:
            return []
        if pending.sreq.is_write:
            # Mutations never fail over to a stale replica: the primary is
            # the only copy the write lands on first, so retries re-target
            # whoever the ring now calls primary.
            return owners[:1]
        pin = self._pins.get(pending.key_position)
        if pin is not None:
            # Consult the pin *now*, not the admission-time snapshot: a
            # rebalance can re-pin a settled key while this read is already
            # in flight (its old primary died), and the retry must not fan
            # out to a ring stand-in that never acked the key's writes —
            # every node materialises the baseline table, so an unsynced
            # stand-in would serve the pre-write value.  Fan out over the
            # replicas that acked the pin's current write epoch.  With no
            # ack yet, the unacked write lives only where it was
            # *dispatched* — which after a failover is not whoever the
            # ring now calls primary: an earlier read may have observed
            # the write through the old primary, so routing the ring's
            # replacement (possibly a lagging replica) would serve a
            # value linearizability already ruled out.  Route the holder
            # and accept timing out while it is unreachable: consistent
            # but unavailable beats available but stale.
            synced = [node for node in owners if node in pin.synced]
            if synced:
                owners = synced
            elif pin.holder is not None:
                owners = [pin.holder]
            else:
                owners = owners[:1]
        untried = [node for node in owners if node not in pending.tried]
        if not untried:
            pending.tried.clear()  # new failover round over the full group
            untried = owners
        unembargoed = [
            node for node in untried if self._embargo[node] <= now
        ]
        pool = unembargoed or untried
        up = [
            node
            for node in pool
            if self.membership.state_of(node) is NodeState.UP
        ]
        return up or pool

    def _backoff(self, attempts: int) -> int:
        return self.RETRY_BACKOFF_CYCLES * (
            1 << min(attempts, 6)
        )

    def _attempt(self, pending: _Pending) -> None:
        if pending.resolved:
            return
        if pending.attempts >= self.MAX_ATTEMPTS:
            self._fail(pending)
            return
        now = self.engine.now
        pending.attempts += 1
        candidates = self._candidates(pending, now)
        if not candidates:
            # Nothing routable right now (partition in progress); burn one
            # attempt waiting for the prober to converge, then look again.
            self.engine.schedule(
                self._backoff(pending.attempts),
                lambda p=pending: self._attempt(p),
            )
            return
        target = candidates[0]
        pending.target = target
        if pending.sreq.is_write:
            pin = self._pins.get(pending.key_position)
            if pin is not None and pin.epoch == pending.epoch:
                # The current epoch's write is (re)dispatched here: this
                # node is now where pinned reads must go until a
                # replication ack widens the synced set.
                pin.holder = target
        pending.tried.add(target)
        pending.attempt_seq += 1
        seq = pending.attempt_seq
        if pending.attempts > 1:
            self.slo.counters["retries"].add()
        pending.timeout_event = self.engine.schedule(
            self.REQUEST_TIMEOUT_CYCLES,
            lambda p=pending, s=seq: self._on_timeout(p, s),
        )
        self._send(
            target,
            (pending, seq),
            pending.sreq.tenant,
            pending.sreq.index,
            pending.key_position,
            pending.sreq.op,
            pending.sreq.value,
            pending.epoch,
            pending.serial,
        )

    def _on_timeout(self, pending: _Pending, seq: int) -> None:
        if pending.resolved or seq != pending.attempt_seq:
            return
        self.slo.counters["timeouts"].add()
        if pending.target is not None:
            # A silent node is either dead or partitioned: step around it
            # until the prober resolves which.
            self._embargo[pending.target] = (
                self.engine.now + self.TIMEOUT_EMBARGO_CYCLES
            )
        self._attempt(pending)

    # ------------------------------------------------------------------ #
    # Responses (called by the cluster fabric at link-delivery time)
    # ------------------------------------------------------------------ #

    def on_response(
        self,
        node: int,
        token: Tuple[_Pending, int],
        kind: str,
        value: Optional[int],
        retry_after: int,
    ) -> None:
        pending, seq = token
        if pending.resolved:
            self.slo.counters["stale"].add()
            return
        if kind == RESP_OK:
            # First successful execution wins, even one from a superseded
            # attempt (at-least-once; the oracle check below keeps it honest).
            if pending.timeout_event is not None:
                self.engine.cancel(pending.timeout_event)
            if pending.sreq.is_write:
                # A write's result_value is its MUT_* disposition, not a
                # lookup answer; the node-side shadow oracle audited it.
                self.writes_ok += 1
            else:
                key_position = pending.key_position
                pin = self._pins.get(key_position)
                if pin is not None:
                    if not pin.checkless and value not in pin.valid:
                        self.slo.counters["result_errors"].add()
                elif key_position in self._settled:
                    if value not in self._settled[key_position].valid:
                        self.slo.counters["result_errors"].add()
                elif key_position in self._dirty:
                    pass  # settled entry evicted: no defensible judgement
                elif value != self._expected[pending.sreq.index]:
                    self.slo.counters["result_errors"].add()
            self._complete(pending, value)
            return
        if seq != pending.attempt_seq:
            self.slo.counters["stale"].add()
            return
        if pending.timeout_event is not None:
            self.engine.cancel(pending.timeout_event)
        if kind == RESP_REJECTED:
            # Node admission backpressure: honour the node's retry-after
            # hint on this node, fail over after the standard backoff.
            self.slo.counters["node_rejections"].add()
            self._embargo[node] = max(
                self._embargo[node], self.engine.now + max(1, retry_after)
            )
            self.engine.schedule(
                self._backoff(pending.attempts),
                lambda p=pending: self._attempt(p),
            )
            return
        if kind == RESP_NOT_OWNER:
            # Routed under a membership view a rebalance has since replaced;
            # re-resolve owners and try again almost immediately.
            self.slo.counters["not_owner"].add()
            self.engine.schedule(
                max(1, retry_after), lambda p=pending: self._attempt(p)
            )
            return
        if kind == RESP_FAILED:
            # The node executed but could not produce a result (fallback
            # exhausted); a replica may still succeed.
            self.engine.schedule(
                self._backoff(pending.attempts),
                lambda p=pending: self._attempt(p),
            )
            return
        raise ValueError(f"unknown node response kind {kind!r}")

    # ------------------------------------------------------------------ #
    # Replication updates (sent by primaries as replicas ack; docs/recovery.md)
    # ------------------------------------------------------------------ #

    def on_replication_update(
        self,
        key_position: int,
        epoch: int,
        settled_value: Optional[int],
        nodes: Tuple[int, ...],
        full: bool,
    ) -> None:
        """Replicas in ``nodes`` now hold the key's ``epoch`` write.

        ``full`` marks the whole replica group acked; ``settled_value`` is
        what a read of the converged key returns.  Updates for superseded
        epochs are stale — a newer write restarted the convergence clock.
        """
        pin = self._pins.get(key_position)
        if pin is None or epoch != pin.epoch:
            return
        pin.synced.update(nodes)
        if full:
            pin.full_epoch = epoch
            pin.valid.add(settled_value)
        self._maybe_settle(key_position)

    def _maybe_settle(self, key_position: int) -> None:
        """Retire a pin once its group converged and the key went quiet."""
        pin = self._pins.get(key_position)
        if (
            pin is None
            or pin.full_epoch != pin.epoch
            or pin.writes_inflight
            or self._key_inflight.get(key_position, 0)
        ):
            return
        owners = self.ring.owners(
            key_position,
            self.config.replication,
            routable=self.membership.routable(),
        )
        if not owners or not pin.synced.issuperset(owners):
            return
        del self._pins[key_position]
        self.pin_evictions += 1
        if not pin.checkless:
            self._settled[key_position] = _SettledState(
                valid=frozenset(pin.valid), synced=frozenset(pin.synced)
            )
            while len(self._settled) > self.SETTLED_KEY_LIMIT:
                evicted, _ = next(iter(self._settled.items()))
                del self._settled[evicted]
                self.settled_evictions += 1

    def on_rebalance(self) -> None:
        """The routable set changed: audit settled keys against new owners.

        A settled key now owned by a node outside its settle-time synced
        set (a ring stand-in holding build-time data, or a freshly
        recovered node) is re-pinned, so reads route primary-or-synced
        until replication proves the new group holds the key.
        """
        if not self._settled:
            return
        routable = self.membership.routable()
        for key_position in list(self._settled):
            owners = self.ring.owners(
                key_position, self.config.replication, routable=routable
            )
            entry = self._settled[key_position]
            if owners and entry.synced.issuperset(owners):
                continue
            del self._settled[key_position]
            self._pins[key_position] = _PinState(
                valid=set(entry.valid), synced=set(entry.synced)
            )

    def _note_done(self, pending: _Pending) -> None:
        """Inflight bookkeeping shared by completion and failure."""
        # The timeout event's callback holds ``pending``: drop the link so
        # a resolved request is freed by reference counting.
        pending.timeout_event = None
        key_position = pending.key_position
        if pending.sreq.is_write:
            pin = self._pins.get(key_position)
            if pin is not None and pin.writes_inflight > 0:
                pin.writes_inflight -= 1
        if key_position in self._key_inflight:
            self._key_inflight[key_position] -= 1
            if self._key_inflight[key_position] <= 0:
                del self._key_inflight[key_position]
                self._maybe_settle(key_position)

    # ------------------------------------------------------------------ #

    def _complete(
        self, pending: _Pending, value: Optional[int] = None
    ) -> None:
        pending.resolved = True
        self.outstanding -= 1
        sreq = pending.sreq
        self.slo.record_completion(
            sreq.tenant, self.engine.now - sreq.arrival_cycle
        )
        if self.history is not None and pending.hist_id is not None:
            self.history.ok(
                pending.hist_id, value, self.engine.now, pending.attempts
            )
        self._note_done(pending)
        pending.generator.on_resolved(sreq)

    def _fail(self, pending: _Pending) -> None:
        pending.resolved = True
        self.outstanding -= 1
        self.slo.record_failure()
        if self.history is not None and pending.hist_id is not None:
            self.history.fail(
                pending.hist_id, self.engine.now, pending.attempts
            )
        self._note_done(pending)
        pending.generator.on_resolved(pending.sreq)
