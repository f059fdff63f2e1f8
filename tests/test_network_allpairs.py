"""Unit tests for repro.network.allpairs (first-hop extraction)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.allpairs import all_pairs_rows, first_hops_from_predecessors, all_pairs_chunks
from repro.network import distance_matrix, grid_network, road_like_network
from reference import shortest_path_tree


def single_source_row(network, source):
    """The build's ``(dist, first_hop)`` rows for one source."""
    [(_, dist, first)] = all_pairs_chunks(network, 1, [source])
    return dist[0], first[0]


class TestFirstHops:
    def test_first_hop_matches_path(self, small_net):
        dist, first = single_source_row(small_net, 0)
        tree = shortest_path_tree(small_net, 0)
        for v in range(1, small_net.num_vertices):
            assert first[v] == tree.path_to(v)[1]

    def test_source_maps_to_itself(self, small_net):
        _, first = single_source_row(small_net, 17)
        assert first[17] == 17

    def test_first_hop_is_a_neighbor(self, small_net):
        _, first = single_source_row(small_net, 5)
        neighbors = {v for v, _ in small_net.neighbors(5)}
        for v in range(small_net.num_vertices):
            if v != 5:
                assert int(first[v]) in neighbors

    def test_distances_match_scipy(self, small_net, small_dist):
        dist, _ = single_source_row(small_net, 9)
        np.testing.assert_allclose(dist, small_dist[9], rtol=1e-12)

    def test_unreachable_marked(self):
        # One-way edge: from vertex 1 nothing is reachable.
        from repro.network import SpatialNetwork

        net = SpatialNetwork([0.0, 3.0], [0.0, 0.0], [(0, 1, 3.0)])
        _, first = single_source_row(net, 1)
        assert first[0] == -1
        assert first[1] == 1

    def test_predecessor_matrix_shape_validation(self):
        with pytest.raises(ValueError):
            first_hops_from_predecessors(np.zeros((2, 4), dtype=np.int32), [0])


class TestChunking:
    @pytest.mark.parametrize("chunk_size", [1, 3, 64, 1000])
    def test_chunk_size_does_not_change_results(self, chunk_size):
        net = grid_network(4, 4, jitter=0.1, seed=1)
        rows = {s: (d.copy(), f.copy()) for s, d, f in all_pairs_rows(net, chunk_size)}
        assert set(rows) == set(range(16))
        base = {s: (d.copy(), f.copy()) for s, d, f in all_pairs_rows(net, 16)}
        for s in rows:
            np.testing.assert_allclose(rows[s][0], base[s][0])
            np.testing.assert_array_equal(rows[s][1], base[s][1])

    def test_source_subset(self, small_net):
        rows = list(all_pairs_rows(small_net, chunk_size=8, sources=[2, 5, 7]))
        assert [r[0] for r in rows] == [2, 5, 7]

    def test_invalid_chunk_size(self, small_net):
        with pytest.raises(ValueError):
            list(all_pairs_rows(small_net, chunk_size=0))

    def test_distance_matrix_symmetric_for_symmetric_net(self):
        net = grid_network(4, 4, seed=0)
        D = distance_matrix(net)
        np.testing.assert_allclose(D, D.T, rtol=1e-12)


class TestFirstHopsProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_every_first_hop_starts_a_true_shortest_path(self, seed):
        """On random road networks: d(u,v) = w(u,f) + d(f,v) for f=first hop."""
        net = road_like_network(40, seed=seed)
        D = distance_matrix(net)
        source = seed % 40
        dist, first = single_source_row(net, source)
        for v in range(40):
            if v == source:
                continue
            f = int(first[v])
            w = net.edge_weight(source, f)
            assert w + D[f, v] == pytest.approx(D[source, v], rel=1e-9)
