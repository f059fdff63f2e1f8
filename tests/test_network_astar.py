"""Unit tests for repro.network.astar."""

import numpy as np
import pytest

from repro.network.errors import PathNotFound
from repro.network import SpatialNetwork, astar_path, shortest_path


class TestAStarCorrectness:
    def test_matches_dijkstra_distance(self, small_net, small_dist, rng):
        for _ in range(40):
            u, v = map(int, rng.integers(0, small_net.num_vertices, 2))
            _, dist, _ = astar_path(small_net, u, v)
            assert dist == pytest.approx(small_dist[u, v], rel=1e-9)

    def test_path_weights_sum_to_distance(self, small_net):
        path, dist, _ = astar_path(small_net, 0, 120)
        total = sum(
            small_net.edge_weight(a, b) for a, b in zip(path, path[1:])
        )
        assert total == pytest.approx(dist, rel=1e-9)

    def test_source_equals_target(self, small_net):
        path, dist, _ = astar_path(small_net, 5, 5)
        assert path == [5]
        assert dist == 0.0

    def test_unreachable_raises(self):
        net = SpatialNetwork([0.0, 5.0], [0.0, 0.0], [(1, 0, 5.0)])
        with pytest.raises(PathNotFound):
            astar_path(net, 0, 1)

    def test_zero_heuristic_is_dijkstra(self, small_net, small_dist):
        _, dist, stats0 = astar_path(small_net, 0, 100, heuristic_scale=0.0)
        assert dist == pytest.approx(small_dist[0, 100], rel=1e-9)

    def test_negative_scale_rejected(self, small_net):
        with pytest.raises(ValueError):
            astar_path(small_net, 0, 1, heuristic_scale=-1.0)


class TestAStarEfficiency:
    def test_settles_no_more_than_dijkstra(self, small_net, rng):
        """The Euclidean heuristic must only focus the search."""
        worse = 0
        for _ in range(20):
            u, v = map(int, rng.integers(0, small_net.num_vertices, 2))
            if u == v:
                continue
            _, _, astar_stats = astar_path(small_net, u, v)
            _, _, dij_stats = shortest_path(small_net, u, v)
            if astar_stats.settled > dij_stats.settled:
                worse += 1
        # A* occasionally ties but should essentially never settle more.
        assert worse <= 1
