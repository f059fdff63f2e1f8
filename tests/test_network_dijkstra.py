"""Unit tests for repro.network.dijkstra."""

import numpy as np
import pytest

from repro.network.dijkstra import IncrementalDijkstra, shortest_path_tree
from repro.network.errors import PathNotFound
from repro.network import SpatialNetwork, distance_matrix, shortest_path


def line_net(n=5):
    """A path graph 0 - 1 - ... - n-1 with unit weights, both directions."""
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, 1.0))
        edges.append((i + 1, i, 1.0))
    return SpatialNetwork(list(range(n)), [0.0] * n, edges)


class TestShortestPathTree:
    def test_distances_on_line(self):
        tree = shortest_path_tree(line_net(), 0)
        assert tree.dist == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_path_reconstruction(self):
        tree = shortest_path_tree(line_net(), 0)
        assert tree.path_to(4) == [0, 1, 2, 3, 4]
        assert tree.path_to(0) == [0]

    def test_unreachable_raises(self):
        net = SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 1, 1.0)])
        tree = shortest_path_tree(net, 1)
        with pytest.raises(PathNotFound):
            tree.path_to(0)

    def test_matches_scipy_on_random_network(self, small_net, small_dist):
        for source in (0, 7, 42):
            tree = shortest_path_tree(small_net, source)
            np.testing.assert_allclose(tree.dist, small_dist[source], rtol=1e-12)

    def test_early_exit_settles_fewer(self, small_net):
        full = shortest_path_tree(small_net, 0)
        targeted = shortest_path_tree(small_net, 0, targets=[1])
        assert targeted.stats.settled <= full.stats.settled
        assert targeted.dist[1] == full.dist[1]

    def test_early_exit_multiple_targets(self, small_net, small_dist):
        targets = [3, 10, 99]
        tree = shortest_path_tree(small_net, 5, targets=targets)
        for t in targets:
            assert tree.dist[t] == pytest.approx(small_dist[5, t])

    def test_stats_counters_positive(self, small_net):
        tree = shortest_path_tree(small_net, 0)
        assert tree.stats.settled == small_net.num_vertices
        assert tree.stats.relaxed >= tree.stats.settled
        assert tree.stats.pushes >= tree.stats.settled


class TestPointToPoint:
    def test_path_and_distance(self):
        path, dist, _ = shortest_path(line_net(), 1, 4)
        assert path == [1, 2, 3, 4]
        assert dist == pytest.approx(3.0)

    def test_takes_cheaper_route(self):
        # Triangle where the direct edge is more expensive than detour.
        net = SpatialNetwork(
            [0.0, 1.0, 0.5],
            [0.0, 0.0, 1.0],
            [(0, 1, 10.0), (0, 2, 1.0), (2, 1, 1.0)],
        )
        path, dist, _ = shortest_path(net, 0, 1)
        assert path == [0, 2, 1]
        assert dist == pytest.approx(2.0)

    def test_unreachable(self):
        net = SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(1, 0, 1.0)])
        with pytest.raises(PathNotFound):
            shortest_path(net, 0, 1)


class TestIncremental:
    def test_settles_in_distance_order(self, small_net):
        inc = IncrementalDijkstra(small_net, 0)
        prev = -1.0
        while True:
            nxt = inc.settle_next()
            if nxt is None:
                break
            assert nxt[1] >= prev
            prev = nxt[1]

    def test_matches_full_dijkstra(self, small_net, small_dist):
        inc = IncrementalDijkstra(small_net, 3)
        while inc.settle_next() is not None:
            pass
        np.testing.assert_allclose(inc.dist, small_dist[3], rtol=1e-12)

    def test_exhausted(self):
        """Every reachable vertex settles once; then ``settle_next``
        keeps answering ``None``."""
        inc = IncrementalDijkstra(line_net(3), 0)
        count = 0
        while inc.settle_next() is not None:
            count += 1
        assert count == 3
        assert inc.settle_next() is None

    def test_seeds_multi_source(self):
        net = line_net(7)
        inc = IncrementalDijkstra(net, seeds=[(0, 0.0), (6, 0.0)])
        dists = {}
        while True:
            s = inc.settle_next()
            if s is None:
                break
            dists[s[0]] = s[1]
        assert dists[3] == pytest.approx(3.0)
        assert dists[5] == pytest.approx(1.0)

    def test_seeds_with_offsets(self):
        inc = IncrementalDijkstra(line_net(5), seeds=[(0, 2.5)])
        s = inc.settle_next()
        assert s == (0, 2.5)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            IncrementalDijkstra(line_net(3), seeds=[(0, -1.0)])
        with pytest.raises(ValueError):
            IncrementalDijkstra(line_net(3), 0, seeds=[(0, 0.0)])
        with pytest.raises(ValueError):
            IncrementalDijkstra(line_net(3))
