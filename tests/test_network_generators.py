"""Unit tests for repro.network.generators."""

import numpy as np
import pytest

from repro.network.errors import GraphConstructionError
from repro.network import grid_network, random_planar_network, road_like_network


class TestGridNetwork:
    def test_vertex_and_edge_counts(self):
        net = grid_network(3, 4)
        assert net.num_vertices == 12
        # undirected lattice edges: 3*3 horizontal + 2*4 vertical = 17,
        # stored directed in both orientations
        assert net.num_edges == 34

    def test_strongly_connected(self):
        grid_network(5, 5, jitter=0.3, seed=2).require_strongly_connected()

    def test_metric_weights(self):
        net = grid_network(4, 4, jitter=0.2, weight_noise=0.5, seed=1)
        assert net.min_euclidean_ratio() >= 1.0 - 1e-12

    def test_zero_noise_weights_equal_lengths(self):
        net = grid_network(3, 3)
        for u, v, w in net.iter_edges():
            assert w == pytest.approx(net.euclidean(u, v))

    def test_deterministic_under_seed(self):
        a = grid_network(4, 4, jitter=0.2, seed=7)
        b = grid_network(4, 4, jitter=0.2, seed=7)
        np.testing.assert_array_equal(a.xs, b.xs)
        assert list(a.iter_edges()) == list(b.iter_edges())

    def test_different_seeds_differ(self):
        a = grid_network(4, 4, jitter=0.2, seed=1)
        b = grid_network(4, 4, jitter=0.2, seed=2)
        assert not np.array_equal(a.xs, b.xs)

    def test_parameter_validation(self):
        with pytest.raises(GraphConstructionError):
            grid_network(1, 5)
        with pytest.raises(GraphConstructionError):
            grid_network(3, 3, jitter=1.5)
        with pytest.raises(GraphConstructionError):
            grid_network(3, 3, weight_noise=-0.1)


class TestRandomPlanarNetwork:
    def test_strongly_connected(self):
        random_planar_network(60, seed=0).require_strongly_connected()

    def test_metric_weights(self):
        net = random_planar_network(60, seed=1)
        assert net.min_euclidean_ratio() >= 1.0 - 1e-12

    def test_delaunay_degree_is_high(self):
        net = random_planar_network(200, seed=2)
        avg_degree = net.num_edges / net.num_vertices
        assert 4.0 < avg_degree < 7.0  # directed edges => ~2x undirected deg/2

    def test_too_few_points_rejected(self):
        with pytest.raises(GraphConstructionError):
            random_planar_network(2)

    def test_deterministic(self):
        a = random_planar_network(30, seed=3)
        b = random_planar_network(30, seed=3)
        assert list(a.iter_edges()) == list(b.iter_edges())


class TestRoadLikeNetwork:
    def test_strongly_connected_many_seeds(self):
        for seed in range(5):
            road_like_network(120, seed=seed).require_strongly_connected()

    def test_metric_weights(self):
        net = road_like_network(150, seed=4)
        assert net.min_euclidean_ratio() >= 1.0 - 1e-12

    def test_road_like_degree(self):
        """Average out-degree should resemble road networks (~2-3.5)."""
        net = road_like_network(400, seed=5)
        avg = net.num_edges / net.num_vertices
        assert 2.0 <= avg <= 4.0

    def test_sparser_than_delaunay(self):
        road = road_like_network(300, seed=6)
        dela = random_planar_network(300, seed=6)
        assert road.num_edges < dela.num_edges

    def test_arterials_are_cheaper_per_length(self):
        net = road_like_network(300, seed=7, arterial_fraction=0.2)
        ratios = sorted(
            w / net.euclidean(u, v) for u, v, w in net.iter_edges()
        )
        # two weight tiers must exist
        assert ratios[0] == pytest.approx(1.0, rel=1e-6)
        assert ratios[-1] > 1.3

    def test_bidirectional(self):
        net = road_like_network(100, seed=8)
        for u, v, w in net.iter_edges():
            assert net.edge_weight(v, u) == pytest.approx(w)

    def test_requested_size(self):
        assert road_like_network(137, seed=0).num_vertices == 137

    def test_parameter_validation(self):
        with pytest.raises(GraphConstructionError):
            road_like_network(2)
        with pytest.raises(GraphConstructionError):
            road_like_network(50, extra_edge_fraction=1.5)
        with pytest.raises(GraphConstructionError):
            road_like_network(50, arterial_fraction=-0.1)
        with pytest.raises(GraphConstructionError):
            road_like_network(50, local_penalty=0.5)

    def test_distinct_positions(self):
        """SILC requires distinct vertex cells; positions must be unique."""
        net = road_like_network(500, seed=9)
        coords = set(zip(net.xs.tolist(), net.ys.tolist()))
        assert len(coords) == 500
