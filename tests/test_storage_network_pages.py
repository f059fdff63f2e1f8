"""Unit tests for the network-side disk page model."""

import pytest

from repro.storage import NetworkStorageModel


class TestNetworkStorageModel:
    def test_total_pages_positive(self, small_net):
        model = NetworkStorageModel(small_net)
        assert model.total_pages >= 1

    def test_touch_counts_accesses(self, small_net):
        model = NetworkStorageModel(small_net)
        before = model.stats.accesses
        model.touch_vertex(0)
        model.touch_vertex(1)
        assert model.stats.accesses == before + 2

    def test_spatial_locality_of_layout(self, small_net):
        """Near vertices should often share a page (Morton packing)."""
        model = NetworkStorageModel(small_net, page_size=4096)
        shared = 0
        total = 0
        for u, v, _ in small_net.iter_edges():
            total += 1
            if model._page_of_vertex[u] == model._page_of_vertex[v]:
                shared += 1
        # with ~70 vertices/page on a 150-vertex network most
        # neighbors share
        assert shared / total > 0.3

    def test_repeat_touch_hits(self, small_net):
        model = NetworkStorageModel(small_net)
        model.touch_vertex(3)
        before_misses = model.stats.misses
        model.touch_vertex(3)
        assert model.stats.misses == before_misses

    def test_io_accounting(self, small_net):
        model = NetworkStorageModel(small_net, cache_fraction=0.05)
        snap = model.stats
        for v in range(small_net.num_vertices):
            model.touch_vertex(v)
        assert model.io_time_since(snap) > 0

    def test_warm_up_resets_residency(self, small_net):
        model = NetworkStorageModel(small_net)
        model.touch_vertex(0)
        model.warm_up()
        misses = model.stats.misses
        model.touch_vertex(0)
        assert model.stats.misses == misses + 1

    def test_parameter_validation(self, small_net):
        with pytest.raises(ValueError):
            NetworkStorageModel(small_net, page_size=0)
        with pytest.raises(ValueError):
            NetworkStorageModel(small_net, cache_fraction=0.0)

    def test_small_page_means_more_pages(self, small_net):
        big = NetworkStorageModel(small_net, page_size=8192)
        small = NetworkStorageModel(small_net, page_size=512)
        assert small.total_pages > big.total_pages
