"""The Morton-range shard map kept for bench/'s layer ladder."""

import numpy as np
import pytest

from repro import SILCIndex, road_like_network
from repro.shard import ShardMap


@pytest.fixture(scope="module")
def built():
    net = road_like_network(120, seed=3)
    index = SILCIndex.build(net)
    return net, index


def shards_of_vertices(smap, index):
    return np.array([smap.shard_of_code(int(code)) for code in index.vertex_codes])


class TestShardMap:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_boundaries_span_grid_strictly_increasing(self, built, num_shards):
        _, index = built
        smap = ShardMap.from_index(index, num_shards)
        b = smap.boundaries
        assert b[0] == 0 and b[-1] == 4**smap.order
        assert (np.diff(b) > 0).all()
        assert b.size == num_shards + 1

    def test_assignment_matches_code_ranges(self, built):
        _, index = built
        smap = ShardMap.from_index(index, 4)
        for code, s in zip(index.vertex_codes, shards_of_vertices(smap, index)):
            assert 0 <= s < 4
            assert smap.boundaries[s] <= code < smap.boundaries[s + 1]

    def test_near_equal_population(self, built):
        net, index = built
        smap = ShardMap.from_index(index, 4)
        sizes = np.bincount(shards_of_vertices(smap, index), minlength=4)
        # Equal-population cuts: no shard dominated by duplicates here,
        # so every shard lands within a loose factor of the mean.
        assert sizes.min() >= 1
        assert sizes.max() <= 2 * net.num_vertices / 4 + 1

    def test_single_shard_owns_everything(self, built):
        _, index = built
        smap = ShardMap.from_index(index, 1)
        assert (shards_of_vertices(smap, index) == 0).all()

    def test_more_shards_than_distinct_codes_degrades_gracefully(self):
        codes = np.array([5, 5, 5, 5], dtype=np.int64)
        smap = ShardMap.from_codes(codes, 3, order=2)
        assert smap.boundaries.size == 4
        assert (np.diff(smap.boundaries) > 0).all()

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ShardMap(np.array([0, 8, 8, 16]), order=2)
        with pytest.raises(ValueError, match="span"):
            ShardMap(np.array([1, 16]), order=2)
