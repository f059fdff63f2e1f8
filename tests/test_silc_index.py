"""Unit tests for the SILC index: paths, intervals, bounds, persistence."""

import math

import numpy as np
import pytest

from repro.geometry.morton import block_cells, morton_encode
from repro.network.errors import DisconnectedNetwork, VertexNotFound
from repro.network import SpatialNetwork
from repro.quadtree.blocks import COLUMN_DTYPES
from repro.silc.store import FlatStore, empty_columns
from repro.silc import SILCIndex


class TestBuild:
    def test_requires_strong_connectivity(self):
        net = SpatialNetwork([0.0, 1.0], [0.0, 0.0], [(0, 1, 1.0)])
        with pytest.raises(DisconnectedNetwork):
            SILCIndex.build(net)

    def test_one_table_per_vertex(self, small_net, small_index):
        assert len(small_index.tables) == small_net.num_vertices

    def test_tables_nonempty(self, small_index):
        assert all(len(t) > 0 for t in small_index.tables)

    def test_progress_callback(self, grid_net):
        calls = []
        SILCIndex.build(grid_net, progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (grid_net.num_vertices, grid_net.num_vertices)
        assert len(calls) == grid_net.num_vertices

    def test_partial_build(self, grid_net):
        idx = SILCIndex.build(grid_net, sources=[0, 5])
        assert len(idx.tables[0]) > 0
        assert len(idx.tables[5]) > 0
        assert len(idx.tables[1]) == 0

    def test_table_count_mismatch_rejected(self, small_net, small_index):
        with pytest.raises(ValueError):
            SILCIndex(
                small_net,
                small_index.embedding,
                small_index.vertex_codes,
                FlatStore(
                    np.zeros(small_net.num_vertices, dtype=np.int64),
                    **empty_columns(),
                    dtypes=COLUMN_DTYPES,
                ),
            )


class TestNextHopAndPaths:
    def test_next_hop_matches_dijkstra(self, small_net, small_index, small_dist):
        from reference import shortest_path_tree

        tree = shortest_path_tree(small_net, 0)
        for v in range(1, small_net.num_vertices):
            assert small_index.next_hop(0, v) == tree.path_to(v)[1]

    def test_next_hop_to_self(self, small_index):
        assert small_index.next_hop(4, 4) == 4

    def test_path_endpoints(self, small_index):
        path = small_index.path(3, 50)
        assert path[0] == 3 and path[-1] == 50

    def test_path_edges_exist_and_sum_to_distance(
        self, small_net, small_index, small_dist
    ):
        path = small_index.path(3, 50)
        total = sum(small_net.edge_weight(a, b) for a, b in zip(path, path[1:]))
        assert total == pytest.approx(small_dist[3, 50], rel=1e-9)

    def test_trivial_path(self, small_index):
        assert small_index.path(9, 9) == [9]

    def test_distance_matches_matrix(self, small_index, small_dist, rng):
        n = small_dist.shape[0]
        for _ in range(60):
            u, v = map(int, rng.integers(0, n, 2))
            assert small_index.distance(u, v) == pytest.approx(
                small_dist[u, v], rel=1e-9, abs=1e-12
            )

    def test_vertex_validation(self, small_index):
        with pytest.raises(VertexNotFound):
            small_index.next_hop(0, 10_000)


class TestIntervals:
    def test_interval_contains_true_distance(self, small_index, small_dist, rng):
        n = small_dist.shape[0]
        for _ in range(100):
            u, v = map(int, rng.integers(0, n, 2))
            _, lo, hi = small_index.hop_and_interval(u, v)
            assert lo <= small_dist[u, v] <= hi

    def test_interval_to_self_is_zero(self, small_index):
        _, lo, hi = small_index.hop_and_interval(8, 8)
        assert lo == hi == 0.0

    def test_interval_lower_bound_at_least_euclidean(
        self, small_net, small_index, rng
    ):
        """On metric networks, lambda_min >= 1."""
        n = small_net.num_vertices
        for _ in range(50):
            u, v = map(int, rng.integers(0, n, 2))
            if u == v:
                continue
            _, _, hi = small_index.hop_and_interval(u, v)
            assert hi >= small_net.euclidean(u, v) * (1 - 1e-9)


class TestBlockBounds:
    def test_block_bound_lower_bounds_all_vertices(
        self, small_net, small_index, small_dist
    ):
        """For any block, bound <= d(u, v) for every vertex v inside."""
        emb = small_index.embedding
        codes = small_index.vertex_codes
        for level in (2, 4):
            cells = block_cells(level)
            for u in (0, 33, 77):
                for v in range(small_net.num_vertices):
                    code = int(codes[v]) - int(codes[v]) % cells
                    bound = small_index.block_lower_bound(u, code, level)
                    assert bound <= small_dist[u, v] + 1e-9

    def test_block_bound_of_empty_region_is_inf(self, small_index):
        # The far corner of the (padded square) grid is empty of
        # vertices for this network; craft a cell there.
        emb = small_index.embedding
        top = emb.cells_per_side - 1
        code = morton_encode(top, top)
        bound = small_index.block_lower_bound(0, code, 0)
        # either inf (empty) or a real bound if a vertex occupies it
        if small_index.tables[0].lookup(code) is None:
            assert math.isinf(bound)


class TestStorageStats:
    def test_total_blocks_consistent(self, small_index):
        assert small_index.total_blocks() == sum(
            len(t) for t in small_index.tables
        )
        assert small_index.blocks_per_vertex().sum() == small_index.total_blocks()

    def test_storage_bytes(self, small_index):
        assert small_index.storage_bytes(16) == small_index.total_blocks() * 16

    def test_storage_bytes_are_the_column_bytes(self, small_index):
        """One record size: the default is what the columns hold, 8 B
        on a grid of order <= 8 (uint16 codes)."""
        assert small_index.embedding.order <= 8
        assert small_index.storage_bytes() == small_index.store.nbytes()
        assert small_index.store.nbytes() == 8 * small_index.total_blocks()
        assert small_index.record_bytes == 8

    def test_attach_storage_validates_layout(self, small_index, grid_index):
        sim = grid_index.make_storage()
        with pytest.raises(ValueError):
            small_index.attach_storage(sim)

    def test_page_accounting_on_queries(self, small_index):
        sim = small_index.make_storage(cache_fraction=0.05)
        small_index.attach_storage(sim)
        try:
            before = sim.stats.accesses
            small_index.distance(0, 100)
            assert sim.stats.accesses > before
        finally:
            small_index.detach_storage()

    def test_detach_stops_accounting(self, small_index):
        sim = small_index.make_storage()
        small_index.attach_storage(sim)
        small_index.detach_storage()
        before = sim.stats.accesses
        small_index.distance(0, 50)
        assert sim.stats.accesses == before


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, small_net, small_index, rng):
        path = tmp_path / "index"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net)
        assert loaded.total_blocks() == small_index.total_blocks()
        n = small_net.num_vertices
        for _ in range(30):
            u, v = map(int, rng.integers(0, n, 2))
            assert loaded.next_hop(u, v) == small_index.next_hop(u, v)
            assert loaded.distance(u, v) == pytest.approx(
                small_index.distance(u, v), rel=1e-12
            )

    def test_loaded_embedding_identical(self, tmp_path, small_net, small_index):
        path = tmp_path / "index"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net)
        assert loaded.embedding.order == small_index.embedding.order
        assert loaded.embedding.bounds == small_index.embedding.bounds


class TestAWideHub:
    """A hub with 200 out-edges: its ranks do not fit int8, so the
    network gives the index int16 colours (9-byte blocks)."""

    @pytest.fixture(scope="class")
    def hub(self):
        spokes = 200
        angles = np.linspace(0.0, 2.0 * np.pi, spokes, endpoint=False)
        xs = np.concatenate([[0.0], 10.0 * np.cos(angles)])
        ys = np.concatenate([[0.0], 10.0 * np.sin(angles)])
        edges = []
        for i in range(1, spokes + 1):
            j = i % spokes + 1  # the next vertex round the rim
            rim = math.hypot(xs[i] - xs[j], ys[i] - ys[j])
            spoke = 10.0 * (1.0 + 0.01 * (i % 7))  # no two spokes tie
            edges += [(0, i, spoke), (i, 0, spoke), (i, j, rim), (j, i, rim)]
        net = SpatialNetwork(xs, ys, edges)
        assert net.max_out_degree == spokes
        return net, SILCIndex.build(net)

    def test_int16_colours_and_9_byte_blocks(self, hub):
        net, index = hub
        assert index.store.colors.dtype == np.int16
        assert index.store.colors.max() == net.max_out_degree - 1  # the hub's last spoke
        assert index.store.codes.dtype == np.uint16  # a grid of order <= 8
        assert index.record_bytes == 9
        assert index.storage_bytes() == index.store.nbytes() == 9 * index.total_blocks()
        assert index.make_storage().layout.records_per_page == 4096 // 9

    def test_every_distance_and_path_is_dijkstra(self, hub):
        from repro.network import distance_matrix

        net, index = hub
        D = distance_matrix(net)
        for s in net.vertices():
            for t in range(0, net.num_vertices, 3):
                path, d = index.route(s, t)
                assert d == pytest.approx(D[s, t], rel=1e-12)
                assert path[0] == s and path[-1] == t
                assert sum(net.edge_weight(u, v) for u, v in zip(path, path[1:])) == (
                    pytest.approx(d, rel=1e-12)
                )

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    def test_a_saved_hub_index_loads_and_a_narrowed_one_is_refused(
        self, hub, tmp_path, mmap
    ):
        from repro.errors import CorruptIndexError
        from repro.integrity import write_manifest

        net, index = hub
        index.save(tmp_path / "index")
        loaded = SILCIndex.load(tmp_path / "index", net, mmap=mmap)
        assert loaded.distance(1, 101) == index.distance(1, 101)
        colors = tmp_path / "index" / "colors.npy"
        np.save(colors, np.load(colors).astype(np.int8))
        write_manifest(tmp_path / "index")
        with pytest.raises(CorruptIndexError) as exc:
            SILCIndex.load(tmp_path / "index", net, mmap=mmap)
        assert exc.value.column == "colors"
        assert "column 'colors' holds |i1 items, expected <i2" in str(exc.value)
