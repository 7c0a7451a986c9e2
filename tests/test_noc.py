"""Unit tests for the mesh NoC model."""

import random
from collections import Counter

import pytest

from repro.config import NocConfig
from repro.errors import ConfigurationError
from repro.noc import MeshNoc
from repro.sim.stats import StatsRegistry


@pytest.fixture
def mesh():
    return MeshNoc(NocConfig(width=6, height=4))


def test_coords_roundtrip(mesh):
    for node in range(mesh.config.num_nodes):
        x, y = mesh.coords(node)
        assert mesh.node_at(x, y) == node


def test_coords_out_of_range(mesh):
    with pytest.raises(ConfigurationError):
        mesh.coords(24)


def test_xy_route_shape(mesh):
    # From (0,0) to (3,2): X first, then Y.
    path = mesh.route(0, mesh.node_at(3, 2))
    assert path[0] == 0
    assert path[-1] == mesh.node_at(3, 2)
    assert len(path) == 1 + 3 + 2
    xs = [mesh.coords(n)[0] for n in path]
    assert xs[:4] == [0, 1, 2, 3]  # X travelled first


def test_hops_manhattan(mesh):
    assert mesh.hops(0, 0) == 0
    assert mesh.hops(0, 5) == 5
    assert mesh.hops(0, mesh.node_at(5, 3)) == 8


def test_latency_scales_with_distance(mesh):
    near = mesh.latency(0, 1)
    far = mesh.latency(0, mesh.node_at(5, 3))
    assert far > near
    assert mesh.latency(3, 3) == 0


def test_send_accounts_link_bytes(mesh):
    mesh.send(0, 2, 64)
    links = {u.link: u.bytes_carried for u in mesh.link_utilisations()}
    assert links[(0, 1)] == 64
    assert links[(1, 2)] == 64


def test_hotspot_centralised_vs_distributed(mesh):
    # Centralised: every core sends to node 0 -> one hot link.
    for src in range(1, 24):
        mesh.send(src, 0, 64)
    hot_central = mesh.hotspot_factor(window_cycles=100)
    mesh.reset_traffic()
    # Distributed: each core sends to its own node's neighbour.
    for src in range(24):
        mesh.send(src, (src + 1) % 24, 64)
    hot_dist = mesh.hotspot_factor(window_cycles=100)
    assert hot_central > hot_dist


def test_large_message_serialization_latency(mesh):
    small = mesh.send(0, 1, 32)
    big = mesh.send(0, 1, 512)
    assert big > small


def test_mean_link_utilisation_bounded(mesh):
    mesh.send(0, 5, 64)
    util = mesh.mean_link_utilisation(window_cycles=10)
    assert 0 < util < 1


def test_reset_traffic(mesh):
    mesh.send(0, 3, 64)
    mesh.reset_traffic()
    assert mesh.hotspot_factor(100) == 0.0


def test_send_and_charge_interleave_with_reads():
    """Every message is batched; each read sees the per-link reference sum."""
    rng = random.Random(5)
    stats = StatsRegistry()
    mesh = MeshNoc(NocConfig(width=6, height=4), stats=stats)
    per_cycle = mesh.config.link_bytes_per_cycle
    expected = Counter()
    messages = total_bytes = 0
    for step in range(4000):
        src = rng.randrange(24)
        dst = rng.choice([src, rng.randrange(24)])
        nbytes = rng.choice([16, 64, 80, 512])
        if rng.random() < 0.5:
            latency = mesh.send(src, dst, nbytes, step)
            serialization = -(-nbytes // per_cycle)
            assert latency == mesh.latency(src, dst) + max(0, serialization - 1)
        else:
            assert mesh.charge(src, dst, nbytes, step) is None
        path = mesh.route(src, dst)
        expected.update({link: nbytes for link in zip(path, path[1:])})
        messages += 1
        total_bytes += nbytes
        read = rng.random()
        if read < 0.05:
            snapshot = stats.snapshot()
            assert snapshot["noc.messages"] == messages
            assert snapshot["noc.bytes"] == total_bytes
        elif read < 0.10:
            links = {u.link: u.bytes_carried for u in mesh.link_utilisations()}
            assert links == dict(expected)
        elif read < 0.12:
            window = rng.randrange(1, 5000)
            assert mesh.hotspot_factor(window) == (
                max(expected.values(), default=0) / (window * per_cycle)
                if expected else 0.0
            )
            assert mesh.mean_link_utilisation(window) == (
                sum(expected.values()) / (window * per_cycle * 2 * (5 * 4 + 3 * 6))
                if expected else 0.0
            )
        elif read < 0.125:
            # Counters keep the traffic; the per-link window restarts.
            mesh.reset_traffic()
            expected.clear()
    assert stats.snapshot()["noc.messages"] == messages
    assert {u.link: u.bytes_carried for u in mesh.link_utilisations()} == dict(expected)
