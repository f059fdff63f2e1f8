"""Unit tests for the page layout."""

import pytest

from repro.quadtree.blocks import RECORD_BYTES
from repro.storage import PageLayout, StorageLayout


class TestPageLayout:
    def test_records_per_page(self):
        assert PageLayout(page_size=4096, record_bytes=16).records_per_page == 256

    def test_the_default_record_is_the_saved_block(self):
        """Simulated pages hold the 17 bytes a block takes in the columns."""
        assert PageLayout().record_bytes == RECORD_BYTES == 17
        assert PageLayout().records_per_page == 240

    def test_validation(self):
        with pytest.raises(ValueError):
            PageLayout(page_size=0)
        with pytest.raises(ValueError):
            PageLayout(record_bytes=0)
        with pytest.raises(ValueError):
            PageLayout(page_size=8, record_bytes=16)


class TestStorageLayout:
    def test_single_table(self):
        layout = StorageLayout([300], PageLayout(4096, 16))
        assert layout.pages_per_table == [2]  # 256 + 44
        assert layout.total_pages == 2
        assert layout.page_of(0, 0) == 0
        assert layout.page_of(0, 255) == 0
        assert layout.page_of(0, 256) == 1

    def test_tables_start_on_fresh_pages(self):
        layout = StorageLayout([10, 10], PageLayout(4096, 16))
        assert layout.page_of(0, 0) != layout.page_of(1, 0)

    def test_empty_table_occupies_one_page(self):
        layout = StorageLayout([0, 5], PageLayout(4096, 16))
        assert layout.pages_per_table[0] == 1
        assert layout.total_pages == 2

    def test_total_bytes(self):
        layout = StorageLayout([300], PageLayout(4096, 16))
        assert layout.total_bytes == 2 * 4096

    def test_record_bounds_checked(self):
        layout = StorageLayout([10])
        with pytest.raises(IndexError):
            layout.page_of(0, 10)
        with pytest.raises(IndexError):
            layout.page_of(1, 0)
        with pytest.raises(IndexError):
            layout.page_of(0, -1)

    def test_layout_is_contiguous(self):
        sizes = [100, 256, 1, 700]
        layout = StorageLayout(sizes, PageLayout(4096, 16))
        seen = []
        for t, size in enumerate(sizes):
            seen.append(layout.page_of(t, 0))
        assert seen == sorted(seen)
        assert layout.total_pages == sum(layout.pages_per_table)
