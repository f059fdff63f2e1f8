"""Unit tests for repro.network.generators."""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.network.errors import GraphConstructionError
from repro.network import grid_network, random_planar_network, road_like_network
from repro.network.generators import _delaunay_edges, _in_circle, _kruskal, _orient


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


def _orient_det(ax, ay, bx, by, cx, cy):
    return (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)


def _in_circle_det(ax, ay, bx, by, cx, cy, dx, dy):
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def _sign(x):
    return (x > 0) - (x < 0)


class TestPredicates:
    """Near-degenerate inputs, where the plain float determinant gets
    the sign wrong: the filtered predicates agree with rationals."""

    def test_orient_on_points_a_few_ulps_off_a_line(self):
        ulp = 2.0**-53
        float_wrong = 0
        for i in range(64):
            for j in range(64):
                args = (0.5 + i * ulp, 0.5 + j * ulp, 12.0, 12.0, 24.0, 24.0)
                exact = _sign(_orient_det(*map(Fraction, args)))
                assert _orient(*args) == exact, args
                float_wrong += _sign(_orient_det(*args)) != exact
        assert float_wrong  # the inputs reach the rational fallback

    def test_in_circle_on_points_a_few_ulps_off_a_circle(self):
        cx, cy, radius = 0.3, 0.7, 1.1
        on = [(cx + radius * math.cos(t), cy + radius * math.sin(t)) for t in (0.1, 2.0, 4.0, 5.0)]
        (ax, ay), (bx, by), (qx, qy), (dx, dy) = on
        float_wrong = 0
        for i in range(-32, 32):
            for j in range(-32, 32):
                args = (ax, ay, bx, by, qx, qy, dx + i * 2.0**-52, dy + j * 2.0**-52)
                exact = _in_circle_det(*map(Fraction, args)) > 0
                assert _in_circle(*args) == exact, args
                float_wrong += (_in_circle_det(*args) > 0) != exact
        assert float_wrong


def _jittered_grid(n, seed):
    """The points :func:`road_like_network` triangulates."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n)))
    gy, gx = np.mgrid[0:side, 0:side]
    xs = gx.ravel().astype(float)[:n] + rng.uniform(-0.35, 0.35, n)
    ys = gy.ravel().astype(float)[:n] + rng.uniform(-0.35, 0.35, n)
    return xs, ys


def _uniform(n, seed):
    """The points :func:`random_planar_network` triangulates."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 100.0, n)


def _edge_set(pairs):
    """``{(min, max)}`` of an array of vertex pairs."""
    return set(map(tuple, np.sort(pairs, axis=1).tolist()))


def _scipy_delaunay_edges(xs, ys):
    from scipy.spatial import Delaunay

    simplices = Delaunay(np.column_stack([xs, ys])).simplices
    return _edge_set(np.concatenate([simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]))


def _scipy_mst(n, edges, lengths):
    from scipy import sparse
    from scipy.sparse import csgraph

    ends = np.array(edges)
    graph = sparse.csr_matrix((lengths, (ends[:, 0], ends[:, 1])), shape=(n, n))
    tree = csgraph.minimum_spanning_tree(graph).tocoo()
    return _edge_set(np.column_stack([tree.row, tree.col]))


class TestTriangulationAgainstScipy:
    """The generators' Bowyer-Watson triangulation and Kruskal tree
    against ``scipy.spatial.Delaunay`` and ``csgraph.minimum_spanning_tree``
    (SciPy is imported only here: generating a network never loads it)."""

    @pytest.mark.parametrize("family", [_jittered_grid, _uniform], ids=["jittered-grid", "uniform"])
    @pytest.mark.parametrize("n", [3, 4, 5, 10, 50, 200, 1000, 2000])
    def test_edge_sets_and_spanning_trees_equal_scipy(self, family, n):
        for seed in range(30):
            xs, ys = family(n, seed)
            edges = _delaunay_edges(xs, ys)
            assert edges == _scipy_delaunay_edges(xs, ys), (n, seed)
            ordered = sorted(edges)
            ends = np.array(ordered)
            lengths = np.hypot(xs[ends[:, 0]] - xs[ends[:, 1]], ys[ends[:, 0]] - ys[ends[:, 1]])
            assert _kruskal(n, ordered, lengths) == _scipy_mst(n, ordered, lengths), (n, seed)

    @pytest.mark.parametrize(
        "points",
        [
            # The first points along the curve are collinear: the
            # triangle that starts the insertion waits for the off-line one.
            [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (2.5, 1)],
            # A point lands inside a hull edge, which it splits.
            [(3, 0), (2, 1), (3, 3), (3, 2)],
            [(2, 0), (1, 4), (0, 3), (4, 2), (3, 1)],
        ],
        ids=["collinear-start", "on-a-hull-edge", "on-a-hull-edge-2"],
    )
    def test_points_on_a_line_match_scipy(self, points):
        xs, ys = np.array(points, dtype=float).T
        assert _delaunay_edges(xs, ys) == _scipy_delaunay_edges(xs, ys)

    def test_a_duplicate_point_joins_nothing(self):
        xs, ys = _uniform(50, 1)
        xs, ys = np.append(xs, xs[[7, 30]]), np.append(ys, ys[[7, 30]])
        edges = _delaunay_edges(xs, ys)
        assert edges == _scipy_delaunay_edges(xs, ys)
        assert not {50, 51} & {v for edge in edges for v in edge}

    def test_cocircular_lattice_is_triangulated_exactly(self):
        # Every unit square is four cocircular points and every hull
        # side a run of collinear ones: only exact predicates decide.
        side = 10
        gy, gx = np.mgrid[0:side, 0:side]
        xs, ys = gx.ravel().astype(float), gy.ravel().astype(float)
        edges = _delaunay_edges(xs, ys)
        n, hull = side * side, 4 * (side - 1)
        assert len(edges) == 3 * n - 3 - hull
        lattice = {(v, v + 1) for v in range(n) if (v + 1) % side} | {
            (v, v + side) for v in range(n - side)
        }
        assert lattice <= edges
        diagonals = edges - lattice
        assert len(diagonals) == (side - 1) ** 2
        assert all(abs(xs[u] - xs[v]) == 1.0 == abs(ys[u] - ys[v]) for u, v in diagonals)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 4.0, 6.0, 8.0]),
            ([1.5, 1.5, 1.5], [2.0, 2.0, 2.0]),
            ([0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]),
        ],
        ids=["collinear", "coincident", "coincident-pairs-on-a-line"],
    )
    def test_no_three_points_off_one_line_is_refused(self, xs, ys):
        with pytest.raises(GraphConstructionError, match="collinear"):
            _delaunay_edges(np.array(xs), np.array(ys))
