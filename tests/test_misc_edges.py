"""Remaining edge cases across small modules."""

import pytest

from repro.config import NocConfig
from repro.errors import SimulationError
from repro.noc import MeshNoc
from repro.sim import Engine


class TestEngineEdges:
    def test_cancel_then_reschedule(self):
        engine = Engine()
        fired = []
        event = engine.schedule(5, lambda: fired.append("a"))
        engine.cancel(event)
        engine.schedule(5, lambda: fired.append("b"))
        engine.run()
        assert fired == ["b"]

    def test_event_scheduled_during_callback_same_cycle(self):
        engine = Engine()
        order = []

        def outer():
            order.append("outer")
            engine.schedule(0, lambda: order.append("inner"))

        engine.schedule(3, outer)
        engine.run()
        assert order == ["outer", "inner"]
        assert engine.now == 3

    def test_pending_counts_only_live_events(self):
        engine = Engine()
        keep = engine.schedule(1, lambda: None)
        drop = engine.schedule(2, lambda: None)
        engine.cancel(drop)
        assert engine.pending() == 1
        engine.cancel(keep)
        assert engine.pending() == 0

    def test_run_is_not_reentrant(self):
        engine = Engine()

        def recurse():
            engine.run()

        engine.schedule(1, recurse)
        with pytest.raises(SimulationError):
            engine.run()


class TestMeshEdges:
    def make(self):
        return MeshNoc(NocConfig(width=4, height=3))

    def test_route_to_self_is_single_node(self):
        mesh = self.make()
        assert mesh.route(5, 5) == [5]
        assert mesh.latency(5, 5) == 0

    def test_route_pure_vertical(self):
        mesh = self.make()
        path = mesh.route(1, mesh.node_at(1, 2))
        assert path == [1, mesh.node_at(1, 1), mesh.node_at(1, 2)]

    def test_route_pure_horizontal_backwards(self):
        mesh = self.make()
        path = mesh.route(3, 0)
        assert path == [3, 2, 1, 0]

    def test_link_bytes_accumulate_across_sends(self):
        mesh = self.make()
        mesh.send(0, 1, 64)
        mesh.send(0, 1, 64)
        links = {u.link: u.bytes_carried for u in mesh.link_utilisations()}
        assert links[(0, 1)] == 128

    def test_hotspot_zero_without_traffic(self):
        mesh = self.make()
        assert mesh.hotspot_factor(100) == 0.0
        assert mesh.mean_link_utilisation(100) == 0.0
