"""The flat columnar store: views, the pooled build, persistence, mmap."""

import numpy as np
import pytest

from repro.errors import CorruptIndexError
from repro.quadtree import BlockTable
from repro.silc import FlatStore, SILCIndex

TABLE_COLUMNS = ("codes", "levels", "colors", "lam_min", "lam_max")


def assert_identical(a: SILCIndex, b: SILCIndex) -> None:
    assert a.embedding.order == b.embedding.order
    assert a.embedding.bounds == b.embedding.bounds
    assert np.array_equal(a.vertex_codes, b.vertex_codes)
    assert len(a.tables) == len(b.tables)
    for ta, tb in zip(a.tables, b.tables):
        for col in TABLE_COLUMNS:
            ca, cb = getattr(ta, col), getattr(tb, col)
            assert ca.dtype == cb.dtype
            assert np.array_equal(ca, cb)


class TestFlatStore:
    def test_tables_are_views_of_the_columns(self, small_index):
        store = small_index.store
        for v in (0, 7, len(small_index.tables) - 1):
            table = small_index.tables[v]
            lo = int(store.offsets[v])
            assert np.shares_memory(table.codes, store.codes)
            assert table.codes[0] == store.codes[lo]

    def test_sizes_match_tables(self, small_index):
        store = small_index.store
        assert store.sizes.tolist() == [len(t) for t in small_index.tables]
        assert store.total_blocks == small_index.total_blocks()
        assert store.num_tables == small_index.network.num_vertices

    def test_empty_store(self):
        store = FlatStore.empty(5)
        assert store.num_tables == 5
        assert store.total_blocks == 0
        assert all(len(t) == 0 for t in store.views())

    def test_view_tables_answer_like_owned_tables(self, small_index):
        table = small_index.tables[3]
        owned = BlockTable(
            table.codes.copy(), table.levels.copy(), table.colors.copy(),
            table.lam_min.copy(), table.lam_max.copy(),
        )
        for code in table.codes[:10]:
            assert table.lookup(int(code)) == owned.lookup(int(code))
        assert table.total_cells() == owned.total_cells()


class TestPooledBuild:
    def test_pool_matches_serial(self, small_net, small_index):
        """Same columns, dtypes included, whatever order chunks finish
        in (``tests/test_cli.py`` checks the saved bytes, file by file)."""
        pooled = SILCIndex.build(small_net, workers=2, chunk_size=32)
        assert_identical(small_index, pooled)


class TestPersistenceLayouts:
    def test_directory_round_trip_identical(self, tmp_path, small_net, small_index):
        path = tmp_path / "index.silc"
        small_index.save(path)
        assert_identical(small_index, SILCIndex.load(path, small_net))

    def test_directory_round_trip_mmap(self, tmp_path, small_net, small_index):
        path = tmp_path / "index.silc"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net, mmap=True)
        assert isinstance(loaded.store.codes, np.memmap)
        assert_identical(small_index, loaded)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_a_file_is_not_an_index(self, tmp_path, small_net, mmap):
        """One error for anything that is not a directory, whatever its
        name; a path that is not there stays FileNotFoundError."""
        path = tmp_path / "index"
        with pytest.raises(FileNotFoundError):
            SILCIndex.load(path, small_net, mmap=mmap)
        path.write_bytes(b"PK\x03\x04 once an archive")
        with pytest.raises(CorruptIndexError, match="no longer read"):
            SILCIndex.load(path, small_net, mmap=mmap)

    def test_mmap_queries_with_storage(self, tmp_path, small_net, small_index, small_dist, rng):
        path = tmp_path / "index.silc"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net, mmap=True)
        sim = loaded.make_storage(cache_fraction=0.05)
        loaded.attach_storage(sim)
        try:
            n = small_net.num_vertices
            for _ in range(20):
                u, v = map(int, rng.integers(0, n, 2))
                assert loaded.distance(u, v) == pytest.approx(
                    small_dist[u, v], rel=1e-9
                )
            assert sim.stats.accesses > 0
        finally:
            loaded.detach_storage()

    def test_corrupt_file_rejected_at_load(self, tmp_path, small_net, small_index):
        """A scrambled column must fail loudly.  The checksum manifest
        now catches it before the per-table validating constructors
        even see the bytes, and names the bad column."""
        path = tmp_path / "index.silc"
        small_index.save(path)
        codes = np.load(path / "codes.npy")
        codes[: len(codes) // 2] = codes[: len(codes) // 2][::-1]
        np.save(path / "codes.npy", codes)
        with pytest.raises(CorruptIndexError, match="codes"):
            SILCIndex.load(path, small_net)

    def test_mmap_knn_matches_in_memory(self, tmp_path, small_net, small_index, small_object_index):
        from repro.query import knn

        path = tmp_path / "index.silc"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net, mmap=True)
        for q in (0, 31, 88):
            a = knn(small_index, small_object_index, q, 5, exact=True)
            b = knn(loaded, small_object_index, q, 5, exact=True)
            assert a.ids() == b.ids()
