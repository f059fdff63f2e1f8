"""Property tests for the pruned-landmark labelling oracle.

The contract under test: label intersection answers *exactly* the
same point-to-point distances as Dijkstra on every network we can
throw at it -- including disconnected pairs (no common hub -> inf)
and directed asymmetry -- and the flat-column persistence round-trips
byte-identically, memory-mapped or not.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.network import SpatialNetwork, grid_network, random_planar_network, road_like_network
from repro.oracle import PrunedLabellingOracle
from repro.query.ier import dijkstra_anchored_distance, ier_knn
from repro.oracle.labelling import LABEL_COLUMNS
from repro.query.stats import QueryStats
from test_properties import one_way


def dijkstra_distance(net, u, v):
    """Vertex-to-vertex distance by IER's Dijkstra refinement."""
    return dijkstra_anchored_distance(net, [(u, 0.0)], [(v, 0.0)])


def label_columns(oracle) -> dict[str, np.ndarray]:
    """All six columns, the ones a symmetric labelling aliases included."""
    return {name: getattr(oracle, name) for name in LABEL_COLUMNS}


def two_pass_build(net) -> PrunedLabellingOracle:
    """``net``'s labelling built as if it were directed: both searches
    per hub, six columns."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(net, "symmetric", False)
        return PrunedLabellingOracle.build(net)


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
        cols = label_columns(labels)
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


class TestOnePassOnASymmetricNetwork:
    """Where every edge's reverse has the same weight, the backward
    search of each hub repeats its forward one: the build runs the
    forward search alone and never builds ``in_edges``."""

    @pytest.mark.parametrize("make", [
        lambda: road_like_network(90, seed=4),
        lambda: random_planar_network(90, seed=4),
        lambda: grid_network(8, 9),  # unit weights: exact ties
    ], ids=["road", "planar", "grid"])
    def test_one_pass_equals_both_passes(self, make):
        net = make()
        assert net.symmetric
        one_pass = PrunedLabellingOracle.build(net)
        assert net._in_edges is None  # read by no one
        both = two_pass_build(net)
        for name, column in label_columns(one_pass).items():
            other = label_columns(both)[name]
            assert column.dtype == other.dtype, name
            assert column.tobytes() == other.tobytes(), name

    def test_a_one_way_network_runs_both_passes(self):
        net = one_way(road_like_network(70, seed=5), 5)
        assert not net.symmetric
        labels = PrunedLabellingOracle.build(net)
        assert net._in_edges is not None
        assert labels.in_hubs.tobytes() != labels.out_hubs.tobytes()
        for u in range(0, net.num_vertices, 7):
            for v in range(0, net.num_vertices, 5):
                assert labels.distance(u, v) == pytest.approx(
                    dijkstra_distance(net, u, v), rel=1e-9
                )


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

    def test_a_one_way_labelling_round_trips_six_columns(self, tmp_path, rng):
        net = one_way(road_like_network(70, seed=5), 5)
        labels = PrunedLabellingOracle.build(net)
        labels.save(tmp_path / "labels")
        assert {p.name for p in (tmp_path / "labels").iterdir()} == {
            "MANIFEST.json", *(f"{name}.npy" for name in LABEL_COLUMNS)
        }
        for mmap in (False, True):
            loaded = PrunedLabellingOracle.load(tmp_path / "labels", net, mmap=mmap)
            for name, original in label_columns(labels).items():
                restored = getattr(loaded, name)
                assert restored.dtype == original.dtype
                assert np.asarray(restored).tobytes() == original.tobytes(), name
            for u, v in rng.integers(0, net.num_vertices, size=(25, 2)):
                assert loaded.distance(int(u), int(v)) == labels.distance(int(u), int(v))

    def test_load_rejects_wrong_network(self, tmp_path, small_labelling,
                                        grid_net):
        directory = tmp_path / "labels"
        small_labelling.save(directory)
        with pytest.raises(ValueError, match="offsets"):
            PrunedLabellingOracle.load(directory, grid_net)


class TestOneStoredLabelSet:
    """A symmetric network's labelling stores its out-labels alone and
    reads them from both sides: the saved bytes are the two-pass
    build's out-columns, and every answer and count is the two-pass
    build's, eager or mapped."""

    @pytest.fixture(scope="class")
    def both(self, small_net):
        return two_pass_build(small_net)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory, small_labelling):
        directory = tmp_path_factory.mktemp("one-set") / "labels"
        small_labelling.save(directory)
        return directory

    def test_the_out_columns_are_the_two_pass_bytes_and_no_in_column_is_saved(
        self, tmp_path, small_net, both, saved
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(small_net, "symmetric", False)
            both.save(tmp_path / "both")
        assert {p.name for p in saved.iterdir()} == {
            "MANIFEST.json", "out_offsets.npy", "out_hubs.npy", "out_dists.npy"
        }
        for name in LABEL_COLUMNS[:3]:
            assert (saved / f"{name}.npy").read_bytes() == (
                tmp_path / "both" / f"{name}.npy"
            ).read_bytes(), name

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_answers_are_bit_identical_to_the_builds(
        self, small_net, small_object_index, small_labelling, both, saved, rng, mmap
    ):
        loaded = PrunedLabellingOracle.load(saved, small_net, mmap=mmap)
        assert loaded.in_hubs is loaded.out_hubs
        oracles = (both, small_labelling, loaded)
        n = small_net.num_vertices
        for u, v in rng.integers(0, n, size=(200, 2)):
            u, v = int(u), int(v)
            assert len({o.distance(u, v) for o in oracles}) == 1
            assert len({o._merge(u, v) for o in oracles}) == 1
        for _ in range(20):
            s = [(int(rng.integers(n)), float(rng.uniform(0, 2))) for _ in range(2)]
            t = [(int(rng.integers(n)), float(rng.uniform(0, 2))) for _ in range(2)]
            answers = set()
            for oracle in oracles:
                stats = QueryStats()
                answers.add((oracle.anchored_distance(s, t, stats=stats), stats.label_scans))
            assert len(answers) == 1
        for q in (0, 23, 77, 140):
            results = [o.bind_objects(small_object_index).knn(q, 6) for o in oracles]
            assert len({(tuple(r.ids()), tuple(r.distances())) for r in results}) == 1
            assert len({r.stats.label_scans for r in results}) == 1

    def test_the_planner_reads_the_two_pass_sizes(self, small_labelling, both, saved, small_net):
        loaded = PrunedLabellingOracle.load(saved, small_net)
        assert small_labelling.mean_label_size() == both.mean_label_size()
        assert loaded.mean_label_size() == both.mean_label_size()
        assert dataclasses.replace(small_labelling.build_stats, build_seconds=0.0) == (
            dataclasses.replace(both.build_stats, build_seconds=0.0)
        )


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
