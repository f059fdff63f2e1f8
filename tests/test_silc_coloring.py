"""Unit tests for shortest-path maps: the first hops of
``all_pairs_chunks`` and the distance ratios of ``SPQuadtreeBuilder``,
the rows the SILC build compresses."""

import numpy as np
import pytest

from repro.network.allpairs import all_pairs_chunks
from repro.silc.sp_quadtree import SPQuadtreeBuilder, choose_grid_order
from reference import shortest_path_tree


def builder_of(network):
    return SPQuadtreeBuilder(network, *choose_grid_order(network))


def shortest_path_map(network, source):
    """The build's row for ``source``: its ``colors`` (first hops),
    ``ratios`` and ``dist``."""
    [(chunk, dist, colors)] = all_pairs_chunks(network, sources=[source])
    ratios = builder_of(network).ratios(chunk, dist, np.inf)
    return colors[0], ratios[0], dist[0]


class TestShortestPathMap:
    def test_colors_are_first_hops(self, small_net):
        colors, _, _ = shortest_path_map(small_net, 0)
        tree = shortest_path_tree(small_net, 0)
        for v in range(1, small_net.num_vertices):
            assert colors[v] == tree.path_to(v)[1]

    def test_source_color_is_self(self, small_net):
        colors, _, _ = shortest_path_map(small_net, 42)
        assert colors[42] == 42

    def test_colors_are_neighbors_of_source(self, small_net):
        colors, _, _ = shortest_path_map(small_net, 10)
        neighbors = {v for v, _ in small_net.neighbors(10)}
        others = [c for v, c in enumerate(colors) if v != 10]
        assert set(others) <= neighbors

    def test_num_regions_bounded_by_degree(self, small_net):
        colors, _, _ = shortest_path_map(small_net, 10)
        # regions = used first hops (<= out degree) + the source itself
        assert np.unique(colors[colors >= 0]).size <= small_net.out_degree(10) + 1

    def test_ratios_at_least_one_for_metric_networks(self, small_net):
        """Network distance >= Euclidean distance on metric networks."""
        _, ratios, _ = shortest_path_map(small_net, 5)
        assert np.all(ratios >= 1.0 - 1e-9)

    def test_ratio_times_euclidean_is_distance(self, small_net, small_dist):
        _, ratios, _ = shortest_path_map(small_net, 7)
        for v in range(small_net.num_vertices):
            if v == 7:
                continue
            d_e = small_net.euclidean(7, v)
            assert ratios[v] * d_e == pytest.approx(
                small_dist[7, v], rel=1e-9
            )

    def test_dist_matches_matrix(self, small_net, small_dist):
        _, _, dist = shortest_path_map(small_net, 3)
        np.testing.assert_allclose(dist, small_dist[3], rtol=1e-12)


class TestStreaming:
    def test_streams_all_sources(self, small_net):
        chunks = list(all_pairs_chunks(small_net, chunk_size=32))
        sources = [s for chunk, *_ in chunks for s in chunk]
        assert sources == list(range(small_net.num_vertices))
        assert all(colors.shape == (len(chunk), small_net.num_vertices)
                   for chunk, _, colors in chunks)

    def test_subset_of_sources(self, small_net):
        [(chunk, _, colors)] = all_pairs_chunks(small_net, sources=[4, 8])
        assert chunk == [4, 8]
        assert colors[0][4] == 4 and colors[1][8] == 8

    def test_streamed_equals_single(self, small_net):
        [(chunk, dist, colors)] = all_pairs_chunks(small_net, sources=[2, 6], chunk_size=2)
        ratios = builder_of(small_net).ratios(chunk, dist, np.inf)
        single_colors, single_ratios, _ = shortest_path_map(small_net, 6)
        np.testing.assert_array_equal(colors[1], single_colors)
        np.testing.assert_allclose(ratios[1], single_ratios)


class TestPathCoherence:
    def test_neighboring_vertices_often_share_colors(self, small_net):
        """The spatial-contiguity property SILC compresses (p.12).

        For a planar road-like network, the overwhelming majority of
        adjacent vertex pairs must share their first hop from a distant
        source -- that is what makes the quadtree small.
        """
        colors, _, _ = shortest_path_map(small_net, 0)
        same = 0
        total = 0
        for u, v, _ in small_net.iter_edges():
            if u == 0 or v == 0:
                continue
            total += 1
            if colors[u] == colors[v]:
                same += 1
        assert same / total > 0.7
