"""Property-based tests on the commit log (``serve/cluster/wal.py``).

Over random logs: out-of-order appends sort by ordinal and stay gapless,
a missing ordinal is a detected gap, a truncated suffix is caught by the
live structure version, and a reset moves the baseline.  Replicas apply
shipped records through ``ReplicationManager._drain_applies``
(docs/recovery.md), which no property test covers yet.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cfa import OP_DELETE, OP_INSERT, OP_UPDATE
from repro.serve.cluster.wal import ORDINAL_STEP, CommitLog, WalRecord

SLOW = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_OPS = (OP_INSERT, OP_UPDATE, OP_DELETE)


def random_log(seed: int, length: int) -> list:
    """A contiguous log: ordinals step by two from zero, random payloads."""
    rng = random.Random(seed)
    records = []
    for i in range(length):
        op = _OPS[rng.randrange(3)]
        records.append(
            WalRecord(
                ordinal=i * ORDINAL_STEP,
                origin=0,
                origin_ordinal=i * ORDINAL_STEP,
                op=op,
                key=bytes([rng.randrange(8)]) * 4,
                value=rng.randrange(1_000_000),
                result=None if rng.random() < 0.1 else 1,
                commit_cycle=i * 7,
            )
        )
    return records


@given(seed=st.integers(0, 10_000), length=st.integers(1, 60))
@SLOW
def test_out_of_order_append_sorts_and_stays_gapless(seed, length):
    records = random_log(seed, length)
    rng = random.Random(seed + 2)
    shuffled = list(records)
    rng.shuffle(shuffled)
    log = CommitLog(0)
    for record in shuffled:
        log.append(record)
    assert [r.ordinal for r in log.records] == [
        i * ORDINAL_STEP for i in range(length)
    ]
    assert log.gaps() == ()
    assert not log.has_gap()
    assert log.last_ordinal == (length - 1) * ORDINAL_STEP


@given(
    seed=st.integers(0, 10_000),
    length=st.integers(2, 60),
    hole=st.integers(0, 58),
)
@SLOW
def test_missing_ordinal_is_a_detected_gap(seed, length, hole):
    records = random_log(seed, length)
    hole = min(hole, length - 2)  # keep the last record: gaps are interior
    log = CommitLog(0)
    for i, record in enumerate(records):
        if i != hole:
            log.append(record)
    assert log.gaps() == (hole * ORDINAL_STEP,)
    assert log.has_gap()


@given(
    seed=st.integers(0, 10_000),
    length=st.integers(1, 60),
    lost=st.integers(1, 60),
)
@SLOW
def test_truncated_suffix_is_caught_by_structure_version(seed, length, lost):
    records = random_log(seed, length)
    log = CommitLog(0)
    for record in records:
        log.append(record)
    structure_version = length * ORDINAL_STEP  # the live seqlock version
    assert not log.has_gap(structure_version=structure_version)
    dropped = log.truncate_suffix(lost)
    assert len(dropped) == min(lost, length)
    # An interior log stays step-contiguous, so only the structure version
    # can prove commits happened past the surviving suffix.
    assert not log.gaps()
    assert log.has_gap(structure_version=structure_version)


def test_reset_moves_the_baseline():
    log = CommitLog(3)
    for record in random_log(0, 4):
        log.append(record)
    assert log.last_ordinal == 3 * ORDINAL_STEP
    log.reset(10)
    assert len(log) == 0
    assert log.baseline_ordinal == 10
    assert log.last_ordinal == 10 - ORDINAL_STEP
    assert not log.has_gap(structure_version=10)
    # A log restarted at version 10 that then misses the first commit.
    late = random_log(0, 7)[6]
    log.append(late)
    assert log.gaps() == (10,)
