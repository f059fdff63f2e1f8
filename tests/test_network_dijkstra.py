"""Unit tests for repro.network.dijkstra: the counted search and its
Dijkstra / A* entry point, and the reference tree built on it."""

import math

import numpy as np
import pytest

from repro.network.dijkstra import Ball, DijkstraStats, expand
from repro.network.errors import PathNotFound, VertexNotFound
from repro.network import SpatialNetwork, distance_matrix, road_like_network, shortest_path
from reference import shortest_path_tree


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


def settle_all(network, seeds, dist=None):
    """Run :func:`expand` to exhaustion: ``(settled pairs, dist, stats)``."""
    dist = Ball() if dist is None else dist
    stats = DijkstraStats()
    return list(expand(network, seeds, dist, {}, stats)), dist, stats


class TestExpand:
    def test_settles_in_distance_order(self, small_net):
        settled, _, _ = settle_all(small_net, [(0, 0.0)])
        distances = [d for _, d in settled]
        assert distances == sorted(distances)

    def test_matches_full_dijkstra(self, small_net, small_dist):
        _, dist, _ = settle_all(small_net, [(3, 0.0)], [math.inf] * small_net.num_vertices)
        np.testing.assert_allclose(dist, small_dist[3], rtol=1e-12)

    def test_exhausted(self):
        """Every reachable vertex settles once; then the expansion
        stops."""
        expansion = expand(line_net(3), [(0, 0.0)], Ball(), {}, DijkstraStats())
        assert len(list(expansion)) == 3
        assert next(expansion, None) is None

    def test_seeds_multi_source(self):
        settled, _, _ = settle_all(line_net(7), [(0, 0.0), (6, 0.0)])
        dists = dict(settled)
        assert dists[3] == pytest.approx(3.0)
        assert dists[5] == pytest.approx(1.0)

    def test_seeds_with_offsets(self):
        expansion = expand(line_net(5), [(0, 2.5)], Ball(), {}, DijkstraStats())
        assert next(expansion) == (0, 2.5)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            settle_all(line_net(3), [(0, -1.0)])
        with pytest.raises(VertexNotFound):
            settle_all(line_net(3), [(3, 0.0)])


#: Twelve pairs on ``road_like_network(60, seed=11)``: the shortest
#: path, its distance's bits, and the (settled, relaxed, pushes) of
#: Dijkstra and of A* at ``heuristic_scale`` 1.0 -- the counts the
#: paper's motivation compares.
COUNTED_PAIRS = [
    ((40, 48), [40, 41, 49, 48], "0x1.43e9e87547a52p+2", (12, 35, 22), (5, 13, 11)),
    ((1, 48), [1, 0, 40, 41, 49, 48], "0x1.70e0f57692578p+3", (42, 119, 51), (20, 57, 33)),
    ((28, 30), [28, 29, 21, 30], "0x1.ef268a8b37999p+1", (11, 28, 18), (4, 8, 7)),
    ((37, 17), [37, 44, 52, 51, 43, 42, 34, 26, 25, 17], "0x1.8526790e4731bp+3",
     (59, 164, 63), (46, 131, 61)),
    ((58, 3), [58, 50, 49, 41, 40, 0, 3], "0x1.ce0edd4337b86p+3", (53, 150, 62), (39, 114, 50)),
    ((16, 23), [16, 8, 9, 10, 18, 19, 27, 28, 29, 21, 30, 22, 23], "0x1.0111edfe4cbfbp+4",
     (57, 161, 63), (41, 117, 55)),
    ((34, 24), [34, 26, 25, 24], "0x1.2bfaeea4c5d20p+2", (16, 45, 24), (6, 12, 9)),
    ((7, 2), [7, 14, 13, 4, 11, 2], "0x1.1e473aa9c39c7p+3", (16, 43, 23), (10, 26, 14)),
    ((0, 2), [0, 2], "0x1.2cfce1a4ae885p+1", (4, 9, 8), (2, 4, 5)),
    ((8, 59), [8, 17, 25, 26, 34, 42, 43, 51, 59], "0x1.79e1f8c7004a3p+3",
     (42, 124, 53), (26, 71, 34)),
    ((11, 39), [11, 4, 12, 20, 21, 30, 31, 38, 39], "0x1.69ad35ec0285ap+3",
     (46, 130, 55), (28, 78, 38)),
    ((45, 14), [45, 37, 29, 21, 20, 13, 14], "0x1.eff40b59eb6b3p+2", (33, 90, 39), (18, 51, 29)),
]


@pytest.mark.parametrize(("pair", "path", "bits", "dijkstra", "astar"), COUNTED_PAIRS)
def test_counted_pairs(pair, path, bits, dijkstra, astar):
    """Each pair's path, distance bits and counts, for both searches."""
    net = road_like_network(60, seed=11)
    for scale, counts in ((0.0, dijkstra), (1.0, astar)):
        got_path, dist, stats = shortest_path(net, *pair, heuristic_scale=scale)
        assert (got_path, dist.hex()) == (path, bits)
        assert (stats.settled, stats.relaxed, stats.pushes) == counts
