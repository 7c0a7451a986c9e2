"""Unit tests for the event-driven simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(10, lambda: order.append("b"))
    engine.schedule(5, lambda: order.append("a"))
    engine.schedule(20, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 20


def test_same_cycle_events_run_in_scheduling_order():
    engine = Engine()
    order = []
    engine.schedule(7, lambda: order.append(1))
    engine.schedule(7, lambda: order.append(2))
    engine.schedule(7, lambda: order.append(3))
    engine.run()
    assert order == [1, 2, 3]


def test_events_can_schedule_more_events():
    engine = Engine()
    seen = []

    def first():
        seen.append(engine.now)
        engine.schedule(3, lambda: seen.append(engine.now))

    engine.schedule(2, first)
    engine.run()
    assert seen == [2, 5]


def test_run_until_stops_before_future_events():
    engine = Engine()
    fired = []
    engine.schedule(100, lambda: fired.append(True))
    engine.run(until=50)
    assert not fired
    assert engine.now == 50
    engine.run()
    assert fired


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    event = engine.schedule(5, lambda: fired.append(True))
    engine.cancel(event)
    engine.run()
    assert not fired


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)


def test_max_events_guard():
    engine = Engine()

    def rearm():
        engine.schedule(1, rearm)

    engine.schedule(0, rearm)
    with pytest.raises(SimulationError):
        engine.run(max_events=100)


def test_advance_moves_time_even_with_empty_queue():
    engine = Engine()
    engine.advance(42)
    assert engine.now == 42


def test_step_returns_false_when_empty():
    engine = Engine()
    assert engine.step() is False
    engine.schedule(1, lambda: None)
    assert engine.step() is True
    assert engine.step() is False


def test_cancelled_events_are_compacted_out_of_the_heap():
    """Mass cancellation must shrink the queue, not leave tombstones forever."""
    engine = Engine()
    keep = [engine.schedule(1000 + i, lambda: None) for i in range(10)]
    doomed = [engine.schedule(i + 1, lambda: None) for i in range(500)]
    assert len(engine._queue) == 510
    for event in doomed:
        engine.cancel(event)
    # Compaction trips repeatedly as cancelled entries come to dominate the
    # heap; only a sub-threshold residue of tombstones may remain.
    assert len(engine._queue) < len(keep) + 2 * Engine.COMPACT_MIN_CANCELLED
    assert engine.pending() == len(keep)
    # The survivors still fire, in order, at the right times.
    fired = []
    for event in keep:
        event[2] = lambda t=event[0]: fired.append(t)
    engine.run()
    assert fired == sorted(e[0] for e in keep)


def test_small_cancel_counts_stay_lazy():
    """Below the compaction floor, cancels are tombstoned, not rebuilt."""
    engine = Engine()
    events = [engine.schedule(i + 1, lambda: None) for i in range(20)]
    engine.cancel(events[0])
    assert len(engine._queue) == 20  # tombstone left in place
    assert engine.pending() == 19
    engine.run()
    assert engine.events_processed == 19


def test_cancelled_count_resets_after_run():
    engine = Engine()
    hits = []
    for i in range(100):
        event = engine.schedule(i + 1, lambda i=i: hits.append(i))
        if i % 2:
            engine.cancel(event)
    engine.run()
    assert hits == list(range(0, 100, 2))
    assert engine.pending() == 0
    # A fresh burst of schedule/cancel still behaves after the drain.
    again = engine.schedule(105, lambda: hits.append(-1))
    engine.cancel(again)
    engine.run()
    assert -1 not in hits


def test_run_until_and_drain():
    engine = Engine()
    seen = []
    for t in (5, 10, 15):
        engine.schedule(t, lambda t=t: seen.append(t))
    assert engine.run_until(10) == 10
    assert seen == [5, 10]
    assert engine.now == 10
    assert engine.drain() == 15
    assert seen == [5, 10, 15]


def test_clear_drops_queued_events_and_keeps_time():
    engine = Engine()
    fired = []
    engine.schedule(5, lambda: fired.append(5))
    engine.cancel(engine.schedule(10, lambda: fired.append(10)))
    engine.run(until=7)
    engine.schedule(20, lambda: fired.append(20))
    engine.clear()
    assert engine.pending() == 0 and engine.peek_time() is None
    assert engine.now == 7
    engine.drain()
    assert fired == [5]
    engine.schedule(1, lambda: fired.append(8))
    engine.drain()
    assert fired == [5, 8]
