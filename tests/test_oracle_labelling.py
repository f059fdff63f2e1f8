"""Property tests for the pruned-landmark labelling oracle.

The contract under test: label intersection answers *exactly* the
same point-to-point distances as Dijkstra on every network we can
throw at it -- including disconnected pairs (no common hub -> inf)
and directed asymmetry -- and the flat-column persistence round-trips
byte-identically, memory-mapped or not.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.network import SpatialNetwork, road_like_network
from repro.oracle import PrunedLabellingOracle
from repro.query.ier import dijkstra_anchored_distance, ier_knn
from repro.query.stats import QueryStats


def dijkstra_distance(net, u, v):
    """Vertex-to-vertex distance by IER's Dijkstra refinement."""
    return dijkstra_anchored_distance(net, [(u, 0.0)], [(v, 0.0)])


@pytest.fixture(scope="module")
def small_labelling(small_net):
    return PrunedLabellingOracle.build(small_net)


@pytest.fixture(scope="module")
def grid_labelling(grid_net):
    return PrunedLabellingOracle.build(grid_net)


class TestExactness:
    def test_matches_ground_truth_all_pairs_grid(self, grid_net, grid_dist,
                                                 grid_labelling):
        n = grid_net.num_vertices
        got = np.array(
            [[grid_labelling.distance(u, v) for v in range(n)] for u in range(n)]
        )
        np.testing.assert_allclose(got, grid_dist, rtol=1e-9, atol=1e-12)

    def test_matches_ground_truth_sampled_small(self, small_net, small_dist,
                                                small_labelling, rng):
        n = small_net.num_vertices
        for u, v in rng.integers(0, n, size=(300, 2)):
            assert small_labelling.distance(int(u), int(v)) == pytest.approx(
                float(small_dist[u, v]), rel=1e-9
            )

    @pytest.mark.parametrize("seed", [1, 17, 99])
    def test_matches_dijkstra_random_networks(self, seed):
        net = road_like_network(80, seed=seed)
        labels = PrunedLabellingOracle.build(net)
        rng = np.random.default_rng(seed)
        for u, v in rng.integers(0, net.num_vertices, size=(120, 2)):
            assert labels.distance(int(u), int(v)) == pytest.approx(
                dijkstra_distance(net, int(u), int(v)), rel=1e-9
            )

    def test_self_distance_zero(self, small_labelling):
        assert small_labelling.distance(42, 42) == 0.0

    @pytest.mark.parametrize("mmap", [False, True])
    def test_merge_equals_an_array_intersection_bit_for_bit(
        self, tmp_path, small_net, small_labelling, rng, mmap
    ):
        """The merge reads the columns through memoryviews; the answer
        is the one ``np.intersect1d`` over the same columns gives, as a
        native float (what the serve protocol's JSON encoder is fed),
        and a scan is still one step of the two-pointer walk."""
        small_labelling.save(tmp_path / "labels")
        labels = PrunedLabellingOracle.load(tmp_path / "labels", small_net, mmap=mmap)
        cols = labels.column_arrays()
        for u, v in rng.integers(0, small_net.num_vertices, size=(200, 2)):
            u, v = int(u), int(v)
            out = slice(cols["out_offsets"][u], cols["out_offsets"][u + 1])
            inn = slice(cols["in_offsets"][v], cols["in_offsets"][v + 1])
            _, i, j = np.intersect1d(
                cols["out_hubs"][out], cols["in_hubs"][inn], return_indices=True
            )
            expected = float(np.min(cols["out_dists"][out][i] + cols["in_dists"][inn][j]))
            got, scanned = labels._merge(u, v)
            assert type(got) is float and got == expected
            assert json.loads(json.dumps(got)) == got
            union = np.union1d(cols["out_hubs"][out], cols["in_hubs"][inn]).size
            assert len(i) <= scanned <= union

    def test_vertex_validation(self, small_net, small_labelling):
        with pytest.raises(Exception):
            small_labelling.distance(0, small_net.num_vertices + 5)


class TestDisconnectedAndDirected:
    def test_disconnected_pairs_are_inf(self):
        # Two strongly connected triangles with no edge between them.
        net = SpatialNetwork(
            [0.0, 1.0, 0.0, 10.0, 11.0, 10.0],
            [0.0, 0.0, 1.0, 10.0, 10.0, 11.0],
            [(0, 1, 1.5), (1, 2, 1.5), (2, 0, 1.5),
             (3, 4, 2.0), (4, 5, 2.0), (5, 3, 2.0)],
        )
        labels = PrunedLabellingOracle.build(net)
        for u in range(3):
            for v in range(3, 6):
                assert math.isinf(labels.distance(u, v))
                assert math.isinf(labels.distance(v, u))
        for u in range(6):
            for v in range(6):
                assert labels.distance(u, v) == pytest.approx(
                    dijkstra_distance(net, u, v), rel=1e-9
                )

    def test_directed_asymmetry(self):
        # One-way chain 0 -> 1 -> 2: reachable forward, inf backward.
        net = SpatialNetwork(
            [0.0, 1.0, 2.0],
            [0.0, 0.0, 0.0],
            [(0, 1, 1.0), (1, 2, 3.0)],
        )
        labels = PrunedLabellingOracle.build(net)
        assert labels.distance(0, 2) == pytest.approx(4.0)
        assert math.isinf(labels.distance(2, 0))


class TestAnchoredAndKNN:
    def test_anchored_distance_matches_dijkstra(self, small_net,
                                                small_labelling, rng):
        n = small_net.num_vertices
        for _ in range(40):
            s = [(int(rng.integers(n)), float(rng.uniform(0, 2)))
                 for _ in range(2)]
            t = [(int(rng.integers(n)), float(rng.uniform(0, 2)))
                 for _ in range(2)]
            stats = QueryStats()
            got = small_labelling.anchored_distance(s, t, stats=stats)
            want = dijkstra_anchored_distance(small_net, s, t, stats=QueryStats())
            assert got == pytest.approx(want, rel=1e-9)
            assert stats.label_scans > 0

    def test_ier_through_labelling_matches_default(self, small_object_index,
                                                   small_labelling):
        for q in (0, 23, 77):
            base = ier_knn(small_object_index, q, 5)
            via = ier_knn(small_object_index, q, 5, oracle=small_labelling)
            assert via.ids() == base.ids()
            np.testing.assert_allclose(
                via.distances(), base.distances(), rtol=1e-9
            )
            assert via.stats.label_scans > 0
            assert via.stats.settled == 0  # no Dijkstra ran

    def test_oracle_knn_requires_binding(self, small_labelling,
                                         small_object_index):
        with pytest.raises(RuntimeError, match="bind_objects"):
            PrunedLabellingOracle(
                small_labelling.network, small_labelling.column_arrays()
            ).knn(0, 3)
        bound = small_labelling.bind_objects(small_object_index)
        result = bound.knn(0, 3)
        assert len(result) == 3


class TestPersistence:
    def test_save_load_mmap_round_trip(self, tmp_path, small_net,
                                       small_labelling, rng):
        directory = tmp_path / "labels"
        assert not PrunedLabellingOracle.saved_at(directory)
        small_labelling.save(directory)
        assert PrunedLabellingOracle.saved_at(directory)
        for mmap in (False, True):
            loaded = PrunedLabellingOracle.load(directory, small_net, mmap=mmap)
            for name, original in small_labelling.column_arrays().items():
                restored = loaded.column_arrays()[name]
                assert restored.dtype == original.dtype
                # byte-identical, not merely allclose
                assert np.asarray(restored).tobytes() == original.tobytes()
            n = small_net.num_vertices
            for u, v in rng.integers(0, n, size=(25, 2)):
                assert loaded.distance(int(u), int(v)) == pytest.approx(
                    small_labelling.distance(int(u), int(v)), rel=1e-12
                )

    def test_load_rejects_wrong_network(self, tmp_path, small_labelling,
                                        grid_net):
        directory = tmp_path / "labels"
        small_labelling.save(directory)
        with pytest.raises(ValueError, match="offsets"):
            PrunedLabellingOracle.load(directory, grid_net)


class TestBuildStats:
    def test_build_stats_recorded(self, small_net, small_labelling):
        bs = small_labelling.build_stats
        assert bs is not None
        assert bs.entries_out > 0 and bs.entries_in > 0
        assert bs.mean_out == pytest.approx(
            bs.entries_out / small_net.num_vertices
        )
        assert small_labelling.mean_label_size() == pytest.approx(
            bs.mean_out + bs.mean_in
        )

    def test_labels_sorted_by_rank(self, small_labelling):
        # The merge relies on per-vertex hub lists sorted by rank.
        for u in range(small_labelling.network.num_vertices):
            for offs, hubs in (
                (small_labelling.out_offsets, small_labelling.out_hubs),
                (small_labelling.in_offsets, small_labelling.in_hubs),
            ):
                row = hubs[int(offs[u]):int(offs[u + 1])]
                assert np.all(np.diff(row) > 0)
