"""Per-node mutation commit log (docs/recovery.md).

Every structure commit on a node — its own primary writes *and* the
replicated applies it accepts from peers — appends one :class:`WalRecord`
keyed by the node-local seqlock commit ordinal stamped by
``core/mutations.py``.  The seqlock bumps the structure version by two per
commit, so a healthy log is *contiguous in steps of two*: any other
spacing is an ordinal gap, the durable evidence that commits happened
which the log never saw (a truncated suffix, a lost disk) and that the
node must full-resync instead of incrementally replaying
(:data:`~repro.faults.injector.FaultKind.LOG_TRUNCATE`).

Commit completions can *reach* the log out of commit order (accelerated
writes resolve in completion order, not ordinal order), so ``append``
keeps the log sorted by ordinal and gap detection is a property of the
sorted sequence rather than of arrival order.

:func:`apply_stream` is the receiver half of log shipping: it re-orders a
delivered record batch by origin ordinal, skips everything at or below
the already-applied watermark, and applies the rest — which makes replay
idempotent (same batch twice is a no-op) and delivery-order independent
(shuffled or duplicated shipments converge to the same table state, the
property ``tests/test_recovery_properties.py`` pins down).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

#: Seqlock commits advance the structure version by two (odd = locked).
ORDINAL_STEP = 2


@dataclass(frozen=True)
class WalRecord:
    """One committed mutation, in the committing node's ordinal space.

    ``ordinal`` is the node-local seqlock commit ordinal.  ``origin`` and
    ``origin_ordinal`` identify the mutation in the *originating* node's
    log when the record was applied from a peer's apply stream; for a
    node's own primary commits they equal the local values.
    """

    ordinal: int
    origin: int
    origin_ordinal: int
    op: int
    key: bytes
    value: int
    #: MUT_* code, or None for a logged no-op (a software miss burned the
    #: ordinal without publishing a value; replicas skip the apply).
    result: Optional[int]
    commit_cycle: int


class CommitLog:
    """An ordered, gap-detecting log of one node's structure commits."""

    def __init__(self, node_id: int, *, baseline_ordinal: int = 0) -> None:
        self.node_id = node_id
        #: The structure's seqlock version at log creation (or at the last
        #: full resync).  A commit's ordinal is the *pre-commit* even
        #: version, so the first logged commit carries exactly this value
        #: and each later one advances by :data:`ORDINAL_STEP`.
        self.baseline_ordinal = baseline_ordinal
        self._ordinals: List[int] = []
        self._records: List[WalRecord] = []
        self.appends = 0
        self.truncated = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[WalRecord, ...]:
        return tuple(self._records)

    @property
    def last_ordinal(self) -> int:
        """Highest logged ordinal (one step below baseline when empty)."""
        if self._ordinals:
            return self._ordinals[-1]
        return self.baseline_ordinal - ORDINAL_STEP

    # ------------------------------------------------------------------ #

    def append(self, record: WalRecord) -> None:
        """Insert a commit by ordinal (completions may arrive reordered)."""
        index = bisect.bisect_left(self._ordinals, record.ordinal)
        if index < len(self._ordinals) and self._ordinals[index] == record.ordinal:
            return  # duplicate completion of the same commit
        self._ordinals.insert(index, record.ordinal)
        self._records.insert(index, record)
        self.appends += 1

    def gaps(self) -> Tuple[int, ...]:
        """Ordinals of commits the log is missing.

        The seqlock hands out ordinals in steps of two from the baseline,
        so every absent step between the baseline and the last logged
        record is a commit the log never captured.
        """
        missing: List[int] = []
        expected = self.baseline_ordinal
        for ordinal in self._ordinals:
            while expected < ordinal:
                missing.append(expected)
                expected += ORDINAL_STEP
            expected = ordinal + ORDINAL_STEP
        return tuple(missing)

    def has_gap(self, *, structure_version: Optional[int] = None) -> bool:
        """True when the log cannot explain the structure's commit count.

        With ``structure_version`` (the live seqlock version) the check
        also catches a truncated *suffix*: commits the structure performed
        past the last logged ordinal.
        """
        if self.gaps():
            return True
        if structure_version is not None:
            return structure_version > self.last_ordinal + ORDINAL_STEP
        return False

    def truncate_suffix(self, count: int) -> Tuple[WalRecord, ...]:
        """Drop the last ``count`` records (the LOG_TRUNCATE fault surface)."""
        count = max(0, min(count, len(self._records)))
        if not count:
            return ()
        lost = tuple(self._records[-count:])
        del self._records[-count:]
        del self._ordinals[-count:]
        self.truncated += count
        return lost

    def reset(self, baseline_ordinal: int) -> None:
        """Restart the log after a full resync: state, not history, moved."""
        self.baseline_ordinal = baseline_ordinal
        self._ordinals.clear()
        self._records.clear()


def apply_stream(
    records: Iterable[WalRecord],
    watermark: int,
    apply: Callable[[WalRecord], None],
) -> int:
    """Apply a delivered batch in origin-ordinal order; return new watermark.

    ``watermark`` is the highest origin ordinal already applied from this
    stream.  Records at or below it are duplicates from retransmission and
    are skipped, so replaying any prefix — or the same batch twice, or a
    shuffled delivery — converges to the same state.
    """
    for record in sorted(records, key=lambda r: r.origin_ordinal):
        if record.origin_ordinal <= watermark:
            continue
        apply(record)
        watermark = record.origin_ordinal
    return watermark


def replay(
    records: Sequence[WalRecord], apply: Callable[[WalRecord], None]
) -> int:
    """Replay a whole log prefix through ``apply`` (recovery helper)."""
    return apply_stream(records, -1, apply)
