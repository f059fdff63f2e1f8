"""Sharded store layout: save_shard/load_shard and the stitched store."""

import numpy as np
import pytest

from repro import SILCIndex, road_like_network
from repro.shard import ShardMap
from repro.silc.store import (
    COLUMNS,
    FlatStore,
    ShardedFlatStore,
    shard_dirname,
)


@pytest.fixture(scope="module")
def built():
    net = road_like_network(100, seed=9)
    index = SILCIndex.build(net)
    return net, index


def tables_equal(a, b) -> bool:
    return (
        np.array_equal(a.codes, b.codes)
        and np.array_equal(a.levels, b.levels)
        and np.array_equal(a.colors, b.colors)
        and np.array_equal(a.lam_min, b.lam_min)
        and np.array_equal(a.lam_max, b.lam_max)
    )


class TestShardSlices:
    def test_save_load_round_trip(self, built, tmp_path):
        _, index = built
        smap = ShardMap.from_index(index, 3)
        for shard in range(3):
            members = smap.vertices(shard)
            index.store.save_shard(tmp_path, shard, members)
            vertices, fragment = FlatStore.load_shard(tmp_path, shard)
            assert np.array_equal(vertices, members)
            for i, v in enumerate(vertices):
                assert tables_equal(fragment.table(i), index.store.table(int(v)))

    def test_mmap_load_is_memmap_backed(self, built, tmp_path):
        _, index = built
        smap = ShardMap.from_index(index, 2)
        index.store.save_shard(tmp_path, 0, smap.vertices(0))
        _, fragment = FlatStore.load_shard(tmp_path, 0, mmap=True)
        for name in COLUMNS:
            assert isinstance(getattr(fragment, name), np.memmap)

    def test_shard_dirname(self):
        assert shard_dirname(3) == "shard_0003"
        with pytest.raises(ValueError):
            shard_dirname(-1)


class TestShardedIndex:
    def test_sharded_round_trip_all_tables(self, built, tmp_path):
        net, index = built
        smap = ShardMap.from_index(index, 4)
        index.save_sharded(tmp_path, smap)
        loaded = SILCIndex.load_sharded(tmp_path, net, mmap=False)
        assert isinstance(loaded.store, ShardedFlatStore)
        assert np.array_equal(loaded.vertex_codes, index.vertex_codes)
        assert loaded.store.total_blocks == index.store.total_blocks
        for v in range(net.num_vertices):
            assert tables_equal(loaded.store.table(v), index.store.table(v))

    def test_primary_resident_others_mapped(self, built, tmp_path):
        net, index = built
        smap = ShardMap.from_index(index, 3)
        index.save_sharded(tmp_path, smap)
        loaded = SILCIndex.load_sharded(tmp_path, net, primary=1, mmap=True)
        fragments = loaded.store.shards
        assert not isinstance(fragments[1].codes, np.memmap)
        assert isinstance(fragments[0].codes, np.memmap)
        assert isinstance(fragments[2].codes, np.memmap)
        # ... asserted on the fragment's attribute; what a probe reads
        # is a view of that same buffer, mapped or resident.
        for v in range(net.num_vertices):
            owner = fragments[loaded.store.shard_of[v]]
            assert loaded.tables[v].columns[0].obj is owner.codes

    def test_column_arrays_reconstruct_global_order(self, built, tmp_path):
        net, index = built
        smap = ShardMap.from_index(index, 4)
        index.save_sharded(tmp_path, smap)
        loaded = SILCIndex.load_sharded(tmp_path, net, mmap=False)
        rebuilt = loaded.store.column_arrays()
        original = index.store.column_arrays()
        for name in COLUMNS:
            assert np.array_equal(rebuilt[name], original[name])

    def test_queries_identical_through_sharded_store(self, built, tmp_path):
        net, index = built
        smap = ShardMap.from_index(index, 4)
        index.save_sharded(tmp_path, smap)
        loaded = SILCIndex.load_sharded(tmp_path, net, primary=0)
        for s, t in [(0, 57), (13, 92), (44, 3)]:
            assert loaded.distance(s, t) == pytest.approx(index.distance(s, t))
            assert loaded.path(s, t) == index.path(s, t)

    def test_bad_primary_rejected(self, built, tmp_path):
        net, index = built
        smap = ShardMap.from_index(index, 2)
        index.save_sharded(tmp_path, smap)
        with pytest.raises(ValueError, match="out of range"):
            SILCIndex.load_sharded(tmp_path, net, primary=5)

    def test_misaligned_fragments_rejected(self, built):
        _, index = built
        store = index.store
        # One fragment holding every table, but an assignment claiming
        # two shards: table counts cannot match.
        n = store.num_tables
        with pytest.raises(ValueError, match="tables for"):
            ShardedFlatStore(
                [store],
                np.array([0] * (n - 1) + [1]),
                np.arange(n),
            )
