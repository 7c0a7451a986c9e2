"""Log shipping, write quorums and crash recovery (docs/recovery.md).

One :class:`ReplicationManager` per node owns the durability half of the
cluster write path:

* **Shipping** — every local primary commit is appended to the node's
  :class:`~repro.serve.cluster.wal.CommitLog` (via the
  ``core/mutations.py`` export hook) and pushed to the key's replica
  group as a cumulative unacked-suffix message.  A receiver drops the
  records at or below its per-origin watermark as duplicates, buffers
  the rest by origin ordinal and applies the buffer lowest ordinal first
  (:meth:`ReplicationManager._drain_applies`), then acks its watermark.
  The watermark is the largest ordinal applied, so it moves past any
  ordinal that has not arrived yet: a later cumulative ack can count a
  replica that never got an earlier record (ROADMAP item 1, mechanism
  (a)).
* **Quorum** — a write's ``ok`` response to the LB is *deferred* until
  ``write_quorum`` distinct replicas (committing primary included) hold
  the commit.  An unreachable quorum is indistinguishable from a slow
  node: the LB times out and retries, and an unacked write carries no
  durability promise.
* **Hinted handoff** — unacked suffixes double as hint buffers for DOWN
  replicas, bounded by ``HANDOFF_LIMIT``; overflow drops the buffer and
  flags the replica for a *full resync* instead of incremental replay.
* **Catch-up** — a recovered node announces CATCHING_UP, asks every
  healthy peer to flush its buffered records (or, after a hint overflow
  or a detected WAL ordinal gap, to transfer its primary shards' current
  state), and reports caught-up — re-entering the ring — only once every
  peer's stream has drained to its promised watermark.

Convergence under races is last-writer-wins per key on the global commit
cycle (ties broken by origin id, then ordinal): a zombie commit from a
crashed primary that resurfaces during catch-up can never overwrite a
younger acked write on a healthy replica.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ...config import ClusterConfig
from ...core.mutations import CommitRecord
from .membership import NodeState
from .wal import CommitLog, WalRecord

#: Stamp ordering for last-writer-wins: (commit cycle, origin, ordinal).
_Stamp = Tuple[int, int, int]


@dataclass
class _QuorumWait:
    """One committed write waiting for replica acks before its client ok."""

    ordinal: int
    key_pos: int
    epoch: int
    op: int
    #: The value a read of the key returns once this write is visible
    #: (None for a delete) — what the LB's settled map will hold.
    settled_value: Optional[int]
    group: Tuple[int, ...]
    acked: Set[int] = field(default_factory=set)
    #: Deferred LB response: ``(token, result_value)``; None once sent (or
    #: when the node died before resolution).
    respond: Optional[Tuple[object, Optional[int]]] = None
    quorum_notified: bool = False


class ReplicationManager:
    """Per-node commit-log shipping, quorum tracking and catch-up."""

    #: Retry tick: unacked commit-log suffixes are re-shipped to lagging
    #: replicas at this interval.
    REPLICATION_RETRY_CYCLES = 2_048
    #: Hinted-handoff bound: unacked records buffered per replica stream
    #: before the stream overflows and the replica is flagged for a full
    #: resync instead of incremental replay (docs/recovery.md).
    HANDOFF_LIMIT = 256

    def __init__(
        self,
        node,
        config: ClusterConfig,
        *,
        send: Callable[[int, Callable[[], None]], None],
        notify_lb: Callable[..., None],
        replica_group: Callable[[int], List[int]],
        peer_state: Callable[[int], NodeState],
        pos_of_key: Dict[bytes, int],
        on_caught_up: Callable[[int], None],
        on_lag: Optional[Callable[[int], None]] = None,
    ) -> None:
        # The node owns this manager (``node.replication``).
        self.node = weakref.proxy(node)
        self.node_id = node.node_id
        self.engine = node.system.engine
        self.config = config
        #: ``send(dst, thunk)`` ships one message over the node<->node
        #: fabric (latency, partitions and dead endpoints applied there).
        self._send = send
        self._notify_lb = notify_lb
        self._replica_group = replica_group
        self._peer_state = peer_state
        self._pos_of_key = pos_of_key
        self._on_caught_up = on_caught_up
        self._on_lag = on_lag
        self.wal = CommitLog(self.node_id)
        #: Reorder window: the mutator's export hook fires at *completion
        #: event* time, which can run ahead of (or behind) seqlock order;
        #: commits are held here and emitted in strict ordinal order so the
        #: log, the stamps and every replica stream agree with the physical
        #: write history.  (The seqlock hands out contiguous even ordinals:
        #: software misses export no-ops, accelerated misses and aborts
        #: restore the pre-lock version and burn nothing.)
        self._export_buf: Dict[int, Tuple[CommitRecord, Optional[Tuple[int, int, int]]]] = {}
        self._next_export = 0
        #: Per-replica outbound suffix of my records it has not acked yet.
        self._outbound: Dict[int, List[WalRecord]] = {}
        #: Per-replica cumulative ack watermark (my ordinal space).
        self._acked: Dict[int, int] = {}
        #: Replicas whose hint buffer overflowed: incremental replay can no
        #: longer make them whole; they get a state transfer at catch-up.
        self._needs_resync: Set[int] = set()
        #: Per-origin watermark of applied origin ordinals.
        self._applied: Dict[int, int] = {}
        #: Per-origin records delivered but not yet applied (lock retries).
        self._apply_buf: Dict[int, Dict[int, WalRecord]] = {}
        #: Per-key last-writer stamp for cross-stream convergence.
        self._stamps: Dict[bytes, _Stamp] = {}
        #: Quorum waits by local ordinal.
        self._waits: Dict[int, _QuorumWait] = {}
        #: Origin/ordinal of the record currently being applied, so the
        #: mutator's commit hook logs it as an apply rather than re-shipping
        #: it as a fresh primary commit.
        self._applying: Optional[WalRecord] = None
        #: Catch-up state: peers whose DONE watermark is still outstanding.
        self._catchup_pending: Dict[int, Optional[int]] = {}
        self._catching_up = False
        self._force_resync = False
        # Telemetry (plain ints: read into the report, never mutated by it).
        self.shipped = 0
        self.applies = 0
        self.apply_duplicates = 0
        self.acks_sent = 0
        self.hint_overflows = 0
        self.resyncs = 0
        self.gap_detected = 0

    # ------------------------------------------------------------------ #
    # Local commits (mutator export hook, via ClusterNode)
    # ------------------------------------------------------------------ #

    def align_baseline(self, structure_version: int) -> None:
        """Anchor the log and the export cursor at the structure's version.

        Called once at wiring time, before any commit can fire: the build
        phase writes the structure directly (the seqlock never moves), so
        this is normally version 0 — but anchoring from ``lock.read()``
        keeps the invariant honest if a future seed pre-warms the lock.
        """
        self.wal.reset(structure_version)
        self._next_export = structure_version

    def local_commit(self, rec: CommitRecord) -> None:
        """Every local structure commit lands here, applies included.

        The export hook fires at *completion event* time, which can lag or
        lead seqlock order; the record is parked in the reorder window and
        emitted only when every lower ordinal has been exported, so the
        WAL, the LWW stamps and every replica stream observe commits in
        physical (lock acquisition) order.  The origin attribution has to
        be captured *now* — ``_applying`` is only set for the duration of
        the apply call.
        """
        applying = self._applying
        if applying is not None:
            origin_info = (
                applying.origin, applying.origin_ordinal, applying.commit_cycle
            )
        else:
            origin_info = None
        self._export_buf[rec.ordinal] = (rec, origin_info)
        while self._next_export in self._export_buf:
            pending, info = self._export_buf.pop(self._next_export)
            self._next_export += 2
            self._export_one(pending, info)

    def _export_one(
        self,
        rec: CommitRecord,
        origin_info: Optional[Tuple[int, int, int]],
    ) -> None:
        if origin_info is not None:
            # An apply: keep the *origin's* stamp so every replica of the
            # key orders this write identically under last-writer-wins.
            origin, origin_ordinal, cycle = origin_info
        else:
            # A primary commit: stamp with the emission cycle, which is
            # monotone in ordinal order (unlike the completion cycle).
            origin, origin_ordinal = self.node_id, rec.ordinal
            cycle = self.engine.now
        record = WalRecord(
            ordinal=rec.ordinal,
            origin=origin,
            origin_ordinal=origin_ordinal,
            op=rec.op,
            key=rec.key,
            value=rec.value,
            result=rec.result,
            commit_cycle=cycle,
        )
        self.wal.append(record)
        self._stamps[rec.key] = self._stamp_of(cycle, origin, origin_ordinal)
        if origin_info is not None or rec.result is None:
            return  # applies never re-ship; misses replicate nothing
        key_pos = self._pos_of_key.get(rec.key)
        if key_pos is None:
            return
        self._enqueue(record, key_pos)
        self._ship_now()

    def _enqueue(self, record: WalRecord, key_pos: int) -> None:
        for replica in self._replica_group(key_pos):
            if replica == self.node_id:
                continue
            if record.ordinal <= self._acked.get(replica, -1):
                continue
            queue = self._outbound.setdefault(replica, [])
            queue.append(record)
            if len(queue) > self.HANDOFF_LIMIT:
                # Hint buffer overflow: drop the stream and remember that
                # incremental replay can no longer make this replica whole.
                queue.clear()
                self._outbound.pop(replica, None)
                self._needs_resync.add(replica)
                self.hint_overflows += 1

    @staticmethod
    def _stamp_of(cycle: int, origin: int, ordinal: int) -> _Stamp:
        return (cycle, origin, ordinal)

    # ------------------------------------------------------------------ #
    # Quorum tracking
    # ------------------------------------------------------------------ #

    def open_wait(
        self,
        *,
        ordinal: int,
        key_pos: int,
        epoch: int,
        op: int,
        settled_value: Optional[int],
        token: object,
        result_value: Optional[int],
    ) -> None:
        """Defer a write's ok until ``write_quorum`` replicas hold it."""
        group = tuple(self._replica_group(key_pos))
        wait = _QuorumWait(
            ordinal=ordinal,
            key_pos=key_pos,
            epoch=epoch,
            op=op,
            settled_value=settled_value,
            group=group,
            acked={self.node_id},
            respond=(token, result_value),
        )
        # Shipping started at commit time, before the server resolved the
        # request: count any replica whose cumulative ack already covers
        # this ordinal.
        for replica in group:
            if self._acked.get(replica, -1) >= ordinal:
                wait.acked.add(replica)
        self._waits[ordinal] = wait
        self._check_wait(wait)

    def _check_wait(self, wait: _QuorumWait) -> None:
        needed = min(self.config.write_quorum, len(wait.group))
        if len(wait.acked) >= needed and wait.respond is not None:
            token, result_value = wait.respond
            wait.respond = None
            self.node.quorum_respond(token, result_value)
        if len(wait.acked) >= needed and not wait.quorum_notified:
            wait.quorum_notified = True
            self._send_lb_update(wait, full=False)
        if wait.respond is None and set(wait.group) <= wait.acked:
            self._send_lb_update(wait, full=True)
            self._waits.pop(wait.ordinal, None)

    def _send_lb_update(self, wait: _QuorumWait, *, full: bool) -> None:
        self._notify_lb(
            self.node_id,
            wait.key_pos,
            wait.epoch,
            wait.settled_value,
            tuple(sorted(wait.acked)),
            full,
        )

    def on_ack(self, replica: int, watermark: int) -> None:
        """A replica acked my stream up to ``watermark`` (cumulative)."""
        if not self.node.alive:
            return
        if watermark <= self._acked.get(replica, -1):
            return
        self._acked[replica] = watermark
        queue = self._outbound.get(replica)
        if queue:
            queue[:] = [r for r in queue if r.ordinal > watermark]
            if not queue:
                self._outbound.pop(replica, None)
        for wait in sorted(self._waits.values(), key=lambda w: w.ordinal):
            if wait.ordinal <= watermark and replica in wait.group:
                wait.acked.add(replica)
                self._check_wait(wait)

    # ------------------------------------------------------------------ #
    # Shipping / receiving
    # ------------------------------------------------------------------ #

    def _ship_now(self) -> None:
        if not self.node.alive:
            return
        for replica in sorted(self._outbound):
            if self._peer_state(replica) is NodeState.DOWN:
                continue  # hinted handoff: hold the suffix for recovery
            self._ship_to(replica)

    def _ship_to(self, replica: int) -> None:
        queue = self._outbound.get(replica)
        if not queue:
            return
        batch = tuple(queue)
        self.shipped += len(batch)
        self._send(
            replica,
            lambda origin=self.node_id, records=batch: self._deliver_apply(
                replica, origin, records
            ),
        )

    def _deliver_apply(
        self, replica: int, origin: int, records: Tuple[WalRecord, ...]
    ) -> None:
        self.node.peer(replica).on_apply(origin, records)

    def on_apply(self, origin: int, records: Tuple[WalRecord, ...]) -> None:
        """An apply-stream shipment arriving off the fabric."""
        if not self.node.alive:
            return
        watermark = self._applied.get(origin, -1)
        buf = self._apply_buf.setdefault(origin, {})
        for record in records:
            if record.origin_ordinal <= watermark:
                self.apply_duplicates += 1
            elif record.origin_ordinal not in buf:
                buf[record.origin_ordinal] = record
        self._drain_applies(origin)

    def _drain_applies(self, origin: int) -> None:
        from ...errors import DataStructureError

        buf = self._apply_buf.get(origin)
        if buf is None:
            return
        while buf:
            ordinal = min(buf)
            record = buf[ordinal]
            try:
                self._apply_one(record)
            except DataStructureError:
                # Seqlock held by a live local writer: retry shortly, in
                # order — later records wait behind this one.
                self.engine.schedule(
                    64, lambda o=origin: self._drain_applies(o)
                )
                return
            del buf[ordinal]
            self._applied[origin] = ordinal
        if not buf:
            self._apply_buf.pop(origin, None)
        self._send_ack(origin)
        self._check_catchup(origin)

    def _apply_one(self, record: WalRecord) -> None:
        """Apply one shipped commit locally (LWW-guarded), oracle included."""
        stamp = self._stamp_of(
            record.commit_cycle, record.origin, record.origin_ordinal
        )
        if record.result is None or stamp <= self._stamps.get(record.key, (-1, -1, -1)):
            # A logged no-op, or a commit older than what this key already
            # holds (e.g. a zombie write resurfacing after catch-up).
            self.applies += 1
            return
        server = self.node.server
        oracle = server._oracle
        mutator = server._mutator
        now = self.engine.now
        token = oracle.begin_write(record.op, record.key, record.value, now)
        self._applying = record
        try:
            result = mutator.software_apply(record.op, record.key, record.value)
        except BaseException:
            oracle.cancel_write(token)
            raise
        finally:
            self._applying = None
        oracle.end_write(
            token,
            result,
            commit_seq=mutator.last_commit_version,
            commit_cycle=now,
        )
        self.applies += 1
        if self._on_lag is not None:
            self._on_lag(now - record.commit_cycle)

    def _send_ack(self, origin: int) -> None:
        watermark = self._applied.get(origin, -1)
        self.acks_sent += 1
        self._send(
            origin,
            lambda me=self.node_id, w=watermark: self.node.peer(
                origin
            ).on_ack(me, w),
        )

    # ------------------------------------------------------------------ #
    # Retry tick
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Arm the periodic retransmit sweep (writes-enabled runs only)."""
        self.engine.schedule(
            self.REPLICATION_RETRY_CYCLES + self.node_id + 1,
            self._tick,
        )

    def _tick(self) -> None:
        if self.node.alive:
            self._ship_now()
            if self._catching_up:
                self._chase_catchup()
        self.engine.schedule(self.REPLICATION_RETRY_CYCLES, self._tick)

    # ------------------------------------------------------------------ #
    # Crash recovery / catch-up
    # ------------------------------------------------------------------ #

    def on_fail(self) -> None:
        """The node crashed: volatile state dies, the WAL survives."""
        self._apply_buf.clear()
        for wait in self._waits.values():
            wait.respond = None  # the LB token died with the process
        self._waits.clear()
        # The outbound queues are process memory: gone.  They are rebuilt
        # from the durable log when catch-up completes; ``_acked`` is kept
        # because it describes the *peers'* durable progress, which a local
        # crash cannot regress.
        self._outbound.clear()
        self._needs_resync.clear()

    def begin_catchup(self, peers: List[int]) -> None:
        """Rejoin after a crash: replay peers' logs from durable ordinals.

        ``peers`` is the set of nodes (from the LB's membership view) this
        node must hear a drained stream — or a state transfer — from
        before it may re-enter the ring.
        """
        self._catching_up = True
        # Recompute the per-origin durable watermarks from the WAL (the
        # in-memory ones died with the process).
        self._applied = {}
        for record in self.wal.records:
            if record.origin != self.node_id:
                prev = self._applied.get(record.origin, -1)
                if record.origin_ordinal > prev:
                    self._applied[record.origin] = record.origin_ordinal
        structure_version = self.node.server._mutator.lock.read()
        self._force_resync = self.wal.has_gap(
            structure_version=structure_version
        )
        if self._force_resync:
            self.gap_detected += 1
            self._purge_torn_stamps()
        self._catchup_pending = {
            peer: None for peer in peers if peer != self.node_id
        }
        if not self._catchup_pending:
            self._finish_catchup()
            return
        self._chase_catchup()

    def _purge_torn_stamps(self) -> None:
        """Disown memory state whose WAL record the truncation destroyed.

        The structure is durable but so is the damage: a commit applied to
        memory whose log record was truncated survives in *this* node's
        table only — no WAL anywhere backs it, the crash wiped the
        outbound queue that would have shipped it, and the quorum wait
        died with the process, so no client was ever acked.  Dropping the
        key's stamp lets the donors' state transfer roll the key back
        authoritatively (the stamp guard in :meth:`on_resync` would
        otherwise preserve the orphaned value, and a retried write that
        no-ops against it would skip replication entirely, leaving the
        replicas diverged).  Self-origin stamps are exactly the ones the
        local WAL must justify; peer-origin stamps stay — the origin's own
        log still holds those records and its donation re-asserts them.
        """
        surviving = {record.ordinal for record in self.wal.records}
        for key, stamp in list(self._stamps.items()):
            _, origin, ordinal = stamp
            if origin == self.node_id and ordinal not in surviving:
                del self._stamps[key]

    def _chase_catchup(self) -> None:
        """(Re)issue CATCHUP_BEGIN to every peer still owing a stream."""
        for peer in sorted(list(self._catchup_pending)):
            if self._peer_state(peer) is NodeState.DOWN:
                # A peer that died mid-catch-up owes us nothing; its data
                # is covered by the surviving replicas' streams.
                self._catchup_pending.pop(peer, None)
                continue
            self._send(
                peer,
                lambda me=self.node_id, resync=self._force_resync, p=peer: (
                    self.node.peer(p).on_catchup_begin(me, resync)
                ),
            )
        if not self._catchup_pending:
            self._finish_catchup()

    def on_catchup_begin(self, who: int, resync: bool) -> None:
        """A recovering peer asked for everything we hold for it."""
        if not self.node.alive:
            return
        if resync or who in self._needs_resync:
            self._send_resync(who)
            return
        # Incremental: flush the hint buffer, then promise a watermark the
        # recovering node can verify its applies against.
        self._ship_to(who)
        queue = self._outbound.get(who, [])
        promised = queue[-1].ordinal if queue else self._acked.get(who, -1)
        self.resync_done(who, promised)

    def resync_done(self, who: int, promised: int) -> None:
        self._send(
            who,
            lambda me=self.node_id, p=promised: self.node.peer(
                who
            ).on_catchup_done(me, p),
        )

    def _send_resync(self, who: int) -> None:
        """State transfer: current values of every shard ``who`` co-owns.

        Every shard the recovering node is in the replica group of gets
        donated by every other group member, not just the shard's primary:
        the recovering node may *be* the primary (nobody else ranks first
        for its natural shards), and the freshest value may live on a
        sloppy stand-in that acked a write while the natural owner was
        down.  Duplicate donations are harmless — the receiver is
        stamp-guarded (:meth:`on_resync`).
        """
        self.resyncs += 1
        items: List[Tuple[bytes, Optional[int], _Stamp]] = []
        mutator = self.node.server._mutator
        for key, key_pos in sorted(self._pos_of_key.items()):
            group = self._replica_group(key_pos)
            if self.node_id not in group or who not in group:
                continue
            stamp = self._stamps.get(key, (0, -1, -1))
            items.append((key, mutator.current(key), stamp))
        # The stream restarts from scratch after a state transfer.
        self._outbound.pop(who, None)
        self._needs_resync.discard(who)
        self._acked[who] = self.wal.last_ordinal
        promised = self.wal.last_ordinal
        self._send(
            who,
            lambda me=self.node_id, batch=tuple(items), p=promised: (
                self.node.peer(who).on_resync(me, batch, p)
            ),
        )

    def on_resync(
        self,
        donor: int,
        items: Tuple[Tuple[bytes, Optional[int], _Stamp], ...],
        promised: int,
    ) -> None:
        """Absolute state transfer for the donor's primary shards."""
        if not self.node.alive:
            return
        from ...core.cfa import OP_DELETE, OP_INSERT
        from ...errors import DataStructureError

        server = self.node.server
        mutator = server._mutator
        oracle = server._oracle
        now = self.engine.now
        for key, value, stamp in items:
            if tuple(stamp) <= self._stamps.get(key, (-1, -1, -1)):
                # A donor whose copy is no fresher than what this key
                # already holds (several donors overlap on shared shards):
                # applying it could regress a newer value.
                continue
            if mutator.current(key) == value:
                self._stamps[key] = max(
                    self._stamps.get(key, (-1, -1, -1)), tuple(stamp)
                )
                if stamp[1] == self.node_id:
                    # A commit of OUR OWN the donor handed back: memory
                    # held it through the crash but the truncation ate the
                    # log record, so the outbound rebuild at catch-up end
                    # cannot re-ship it.  Nobody else will either — the
                    # donor applied it, it never originates.  Reconstruct
                    # the record and re-offer it to the replica group
                    # (members whose cumulative ack already covers the
                    # ordinal are skipped by :meth:`_enqueue`).
                    self._reoffer_own(key, value, tuple(stamp))
                continue
            op = OP_DELETE if value is None else OP_INSERT
            token = oracle.begin_write(op, key, value or 0, now)
            # Attribute the apply to the stamp's *origin*, not the donor:
            # the WAL record this exports keeps per-origin watermarks
            # honest, and when the origin is this node itself (a donor
            # handing back a commit the local truncation destroyed), the
            # record re-enters the outbound rebuild at catch-up end — the
            # only remaining path to natural owners the crash left behind.
            self._applying = WalRecord(
                ordinal=0,
                origin=stamp[1],
                origin_ordinal=stamp[2],
                op=op,
                key=key,
                value=value or 0,
                result=None,
                commit_cycle=stamp[0],
            )
            try:
                result = mutator.software_apply(op, key, value or 0)
            except DataStructureError:
                # A live local writer mid-resync: retry the whole transfer
                # shortly; applied items are idempotent (value compare).
                oracle.cancel_write(token)
                self._applying = None
                self.engine.schedule(
                    64,
                    lambda d=donor, b=items, p=promised: self.on_resync(
                        d, b, p
                    ),
                )
                return
            self._applying = None
            oracle.end_write(
                token,
                result,
                commit_seq=mutator.last_commit_version,
                commit_cycle=now,
            )
            self._stamps[key] = max(
                self._stamps.get(key, (-1, -1, -1)), tuple(stamp)
            )
        # The incremental stream from this donor restarts here: everything
        # it ever committed is reflected in the transferred state.
        self._applied[donor] = promised
        self.on_catchup_done(donor, promised)

    def _reoffer_own(
        self, key: bytes, value: Optional[int], stamp: _Stamp
    ) -> None:
        """Rebuild a truncated self-origin commit as a shippable record.

        The stamp *is* the record's replication identity: for a primary
        commit the origin ordinal equals the local ordinal, so receivers
        dedup it against their per-origin watermark exactly as if the
        original shipment had survived.  The WAL is not touched — the
        local baseline has moved past this ordinal and the table already
        reflects the commit; only the group offer was lost.
        """
        from ...core.cfa import OP_DELETE, OP_INSERT
        from ...core.mutations import MUT_DELETED, MUT_INSERTED

        key_pos = self._pos_of_key.get(key)
        if key_pos is None:
            return
        if any(r.ordinal == stamp[2] for r in self.wal.records):
            # The durable record survived the truncation; the outbound
            # rebuild at catch-up end re-offers it from the log itself.
            return
        record = WalRecord(
            ordinal=stamp[2],
            origin=self.node_id,
            origin_ordinal=stamp[2],
            op=OP_DELETE if value is None else OP_INSERT,
            key=key,
            value=value or 0,
            result=MUT_DELETED if value is None else MUT_INSERTED,
            commit_cycle=stamp[0],
        )
        self._enqueue(record, key_pos)

    def on_catchup_done(self, peer: int, promised: int) -> None:
        """A peer finished flushing; done once our applies reach its mark."""
        if not self.node.alive or not self._catching_up:
            return
        if peer in self._catchup_pending:
            self._catchup_pending[peer] = promised
        self._check_catchup(peer)

    def _check_catchup(self, origin: int) -> None:
        if not self._catching_up:
            return
        promised = self._catchup_pending.get(origin)
        if promised is None:
            return
        if self._applied.get(origin, -1) >= promised:
            self._catchup_pending.pop(origin, None)
        if not self._catchup_pending:
            self._finish_catchup()

    def _finish_catchup(self) -> None:
        if not self._catching_up:
            return
        self._catching_up = False
        self._force_resync = False
        # Rebuild the outbound queues (process memory, lost in the crash)
        # from the durable log: commits only this node ever held get
        # re-offered to their replica groups.  Receivers discard anything
        # at or below their cumulative watermark, so the re-offer is
        # idempotent.  The queues are NOT cleared first: ``on_fail``
        # already emptied them, and anything enqueued since is a
        # :meth:`_reoffer_own` record — a self-origin commit a donor
        # handed back whose WAL record the truncation destroyed, which
        # this log scan therefore cannot regenerate.  Re-shipping those is
        # the only path that repairs a natural owner the crash cut off
        # mid-stream.  This must read the log *before* the gap reset below
        # discards it.
        for record in self.wal.records:
            if record.origin != self.node_id or record.result is None:
                continue
            key_pos = self._pos_of_key.get(record.key)
            if key_pos is not None:
                self._enqueue(record, key_pos)
        if self.wal.has_gap(
            structure_version=self.node.server._mutator.lock.read()
        ):
            # The replayed applies themselves are in the WAL now; a gap at
            # this point can only mean the log baseline moved — reset it so
            # future recoveries replay from here.
            self.wal.reset(self.node.server._mutator.lock.read())
        self._ship_now()
        self._on_caught_up(self.node_id)
