"""The frontier-window checker in lockstep with the bitmask search it replaced.

``tests/drill_histories.json`` freezes the client histories that two
drill seeds recorded (``run_recovery_chaos`` on cha-tlb, 400 requests,
6 nodes, R=2, W=2).  Seed 8 holds the drill's hardest key (about 40k
states); seed 6 holds a real lost-write violation.  On every key of both,
``HistoryRecorder._check_key`` must return exactly what the previous
search (``bitmask_check_key`` in ``tests/linearizability_reference.py``)
returns: the outcome, ``possible_finals`` and the states count.  The
frontier window only skips ops that the bitmask search tested and
rejected, so the two explore the same states.

The fixture also keeps the checker's detection of seed 6's violation
tested on a frozen history, independent of whether a fix to the cluster
later makes the live drill pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.faults.history import HistoryRecorder, _Op

from .linearizability_reference import bitmask_check_key, key_histories

FIXTURE = json.loads(Path(__file__).with_name("drill_histories.json").read_text())

#: The key whose acknowledged write seed 6's drill loses.
SEED6_VIOLATION = 16608118694158627991


def _recorder(seed: int) -> HistoryRecorder:
    """A recorder holding the frozen history of one drill seed."""
    frozen = FIXTURE["seeds"][str(seed)]
    recorder = HistoryRecorder(dict(frozen["baseline"]))
    for op_id, row in enumerate(frozen["ops"]):
        fields = dict(zip(FIXTURE["fields"], row))
        recorder._ops.append(_Op(op_id=op_id, **fields))
    return recorder


@pytest.mark.parametrize("seed", [6, 8])
def test_frontier_search_matches_bitmask_search_on_every_key(seed):
    recorder = _recorder(seed)
    keys = 0
    for key_pos, ops, initial in key_histories(recorder):
        assert recorder._check_key(ops, initial) == bitmask_check_key(
            ops, initial
        ), key_pos
        keys += 1
    assert keys == recorder.check().keys > 20


def test_seed6_fixture_keeps_its_one_violation():
    verdict = _recorder(6).check()
    assert verdict.ops == 400
    assert verdict.violations == [SEED6_VIOLATION]
    assert verdict.inconclusive == []
    assert not verdict.linearizable


def test_seed8_fixture_is_linearizable_with_its_hardest_key():
    verdict = _recorder(8).check()
    assert verdict.linearizable and verdict.inconclusive == []
    # states sums every key; max_states is the hardest key alone.
    assert verdict.max_states == 40_516
    assert verdict.max_states < verdict.states
