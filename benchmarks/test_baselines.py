"""Unit tests for the Table-1 baseline storage schemes."""

import numpy as np
import pytest

from baselines import ExplicitPathStorage, NextHopMatrix
from repro.network.errors import PathNotFound
from repro.network import SpatialNetwork, distance_matrix, grid_network, road_like_network
from repro.silc import SILCIndex


@pytest.fixture(scope="module")
def grid_net():
    """An 8x8 jittered grid network."""
    return grid_network(8, 8, jitter=0.2, weight_noise=0.2, seed=3)


@pytest.fixture(scope="module")
def grid_index(grid_net):
    return SILCIndex.build(grid_net)


@pytest.fixture(scope="module")
def grid_dist(grid_net):
    return distance_matrix(grid_net)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="module")
def small_net():
    return road_like_network(150, seed=9)


@pytest.fixture(scope="module")
def nh(grid_net):
    return NextHopMatrix.build(grid_net)


@pytest.fixture(scope="module")
def explicit(grid_net):
    return ExplicitPathStorage.build(grid_net)


class TestNextHopMatrix:
    def test_distances_match_matrix(self, nh, grid_dist, rng):
        n = grid_dist.shape[0]
        for _ in range(40):
            u, v = map(int, rng.integers(0, n, 2))
            assert nh.distance(u, v) == pytest.approx(grid_dist[u, v], rel=1e-12)

    def test_paths_are_shortest(self, nh, grid_net, grid_dist, rng):
        n = grid_dist.shape[0]
        for _ in range(20):
            u, v = map(int, rng.integers(0, n, 2))
            path = nh.path(u, v)
            assert path[0] == u and path[-1] == v
            total = sum(
                grid_net.edge_weight(a, b) for a, b in zip(path, path[1:])
            )
            assert total == pytest.approx(grid_dist[u, v], rel=1e-9, abs=1e-12)

    def test_storage_is_quadratic(self, nh, grid_net):
        n = grid_net.num_vertices
        assert nh.storage_bytes() == n * n * 4

    def test_requires_connectivity(self):
        net = SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 1, 1.0)])
        from repro.network.errors import DisconnectedNetwork

        with pytest.raises(DisconnectedNetwork):
            NextHopMatrix.build(net)

    def test_unreachable_raises(self, nh):
        # grid_net is strongly connected, so fabricate a matrix
        bad = NextHopMatrix(nh.network, nh.first_hops.copy(), nh.dist)
        bad.first_hops[0, 5] = -1
        with pytest.raises(PathNotFound):
            bad.next_hop(0, 5)


class TestExplicitStorage:
    def test_paths_match_next_hop(self, explicit, nh, rng):
        n = explicit.network.num_vertices
        for _ in range(25):
            u, v = map(int, rng.integers(0, n, 2))
            assert explicit.path(u, v) == nh.path(u, v)

    def test_trivial_path(self, explicit):
        assert explicit.path(4, 4) == [4]

    def test_distance(self, explicit, grid_dist):
        assert explicit.distance(0, 30) == pytest.approx(grid_dist[0, 30])

    def test_storage_is_cubic_scale(self, explicit, nh):
        """Explicit storage strictly dominates the next-hop matrix."""
        assert explicit.storage_bytes() > nh.storage_bytes()

    def test_size_guard(self, small_net):
        with pytest.raises(ValueError):
            ExplicitPathStorage.build(small_net, max_vertices=10)


class TestStorageOrdering:
    def test_silc_smaller_than_next_hop_for_moderate_networks(
        self, grid_net, grid_index, nh
    ):
        """The paper's storage hierarchy at this scale.

        SILC's O(N^1.5) wins over next-hop's O(N^2) asymptotically; on
        a 64-vertex toy grid constant factors can mask it, so compare
        record counts directly: blocks should be well below N^2.
        """
        n = grid_net.num_vertices
        assert grid_index.total_blocks() < n * n
