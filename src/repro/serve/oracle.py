"""Shadow oracle for mixed read/write serving runs (docs/mutations.md).

With writes in flight the static ``workload.expected[]`` table can no longer
judge a read: the right answer depends on which committed writes the read
could have observed.  The oracle keeps, per key, the committed timeline of
``(store_window_start, commit_cycle, value)`` transitions plus the set of
still-open write windows, and accepts a read iff its value was plausibly
visible somewhere inside the read's own ``[dispatch, completion]`` interval:

* any value whose possible-visibility window ``[window_start, next_commit)``
  overlaps the read interval, or
* the candidate value of an open (uncommitted) write window that started
  before the read completed.

This is deliberately *permissive across ordering races* (two writers to one
key may commit in either order) but *tight against torn values*: a value
that was never written to that key — a half-published record, a stale
pointer mixing two writes — is never in the valid set.

``final_check`` is the lost/phantom-update audit: after the run drains, the
live structure must hold exactly the timeline tail for every touched key
and the build-time baseline for every untouched key.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from ..core.cfa import OP_DELETE
from ..core.mutations import MUT_DELETED, MUT_INSERTED, MUT_UPDATED

#: One committed transition:
#: (commit_seq, store_window_start, commit_cycle, value).  ``commit_seq``
#: is the seqlock ordinal the write was serialised under — the exact
#: structure-wide commit order, independent of completion-callback order.
_Entry = Tuple[int, int, int, Optional[int]]


class ShadowOracle:
    """Per-key write timelines + in-flight windows for read validation."""

    def __init__(self, workload, mutator) -> None:
        self.workload = workload
        self.mutator = mutator
        #: Build-time answer per key (first occurrence wins; duplicate query
        #: indices share the key and therefore the answer).
        self._baseline: Dict[bytes, Optional[int]] = {}
        for index, key in enumerate(workload.queries):
            self._baseline.setdefault(key, workload.expected[index])
        self._history: Dict[bytes, List[_Entry]] = {}
        #: token -> (key, window_start, candidate value if the write lands).
        self._open: Dict[int, Tuple[bytes, int, Optional[int]]] = {}
        self._next_token = 0
        self.reads_checked = 0
        self.wrong_reads = 0
        self.writes_tracked = 0

    # ------------------------------------------------------------------ #
    # Write windows
    # ------------------------------------------------------------------ #

    def _hist(self, key: bytes) -> List[_Entry]:
        hist = self._history.get(key)
        if hist is None:
            hist = [(-1, 0, 0, self._baseline.get(key))]
            self._history[key] = hist
        return hist

    def begin_write(self, op: int, key: bytes, value: int, now: int) -> int:
        """Open a window at dispatch; returns a token for the completion."""
        self._next_token += 1
        candidate = None if op == OP_DELETE else value
        self._open[self._next_token] = (key, now, candidate)
        return self._next_token

    def cancel_write(self, token: int) -> None:
        """A write abandoned before it applied: nothing could have landed."""
        self._open.pop(token, None)

    def end_write(
        self,
        token: int,
        result: Optional[int],
        *,
        commit_seq: Optional[int],
        commit_cycle: int,
    ) -> None:
        """Close a window with the write's MUT_* result (None = miss).

        ``commit_seq`` is the seqlock ordinal the commit held (from
        ``handle.commit_version`` or ``mutator.last_commit_version``):
        completions can resolve out of commit order — a software fallback
        applies *after* an accelerated store that resolves later — so the
        timeline inserts by ordinal, not arrival.
        """
        key, start, candidate = self._open.pop(token)
        self.writes_tracked += 1
        if result == MUT_DELETED:
            value: Optional[int] = None
        elif result in (MUT_UPDATED, MUT_INSERTED):
            value = candidate
        else:
            # A miss (UPDATE/DELETE of an absent key) commits nothing; the
            # timeline tail stands.
            return
        hist = self._hist(key)
        seq = commit_seq if commit_seq is not None else hist[-1][0] + 1
        bisect.insort(hist, (seq, start, commit_cycle, value))

    # ------------------------------------------------------------------ #
    # Read validation
    # ------------------------------------------------------------------ #

    def check_read(
        self,
        index: int,
        value: Optional[int],
        dispatch: int,
        completion: int,
    ) -> bool:
        """True iff ``value`` was plausibly visible during the read."""
        self.reads_checked += 1
        key = self.workload.key_for(index)
        hist = self._hist(key)
        for i, (_seq, start, _commit, committed) in enumerate(hist):
            next_commit = hist[i + 1][2] if i + 1 < len(hist) else None
            if next_commit is not None and next_commit < dispatch:
                continue  # overwritten before the read even dispatched
            if start > completion:
                continue  # could not have landed before the read finished
            if committed == value:
                return True
        for open_key, start, candidate in self._open.values():
            if open_key == key and start <= completion and candidate == value:
                return True
        self.wrong_reads += 1
        return False

    # ------------------------------------------------------------------ #
    # Lost/phantom audit
    # ------------------------------------------------------------------ #

    def final_check(self) -> List[str]:
        """Compare the drained structure against the oracle's final state.

        Returns one human-readable line per discrepancy: a *lost* update
        (timeline tail missing from the structure) or a *phantom* one (the
        structure changed under a key nothing wrote).
        """
        problems: List[str] = []
        if self._open:
            problems.append(
                f"{len(self._open)} write window(s) never closed"
            )
        for key in sorted(self._baseline):
            hist = self._history.get(key)
            want = hist[-1][3] if hist else self._baseline[key]
            got = self.mutator.current(key)
            if got != want:
                kind = "lost" if hist and len(hist) > 1 else "phantom"
                problems.append(
                    f"{kind} update on key {key.hex()}: structure holds "
                    f"{got!r}, oracle says {want!r}"
                )
        return problems
