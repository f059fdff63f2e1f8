"""Unit tests for the page layout."""

import pytest

from repro.quadtree.blocks import RECORD_BYTES
from repro.storage.pages import PageLayout, StorageLayout


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
        assert layout.records_per_page == 256
        assert layout.page_offsets == [0, 2]

    def test_tables_start_on_fresh_pages(self):
        layout = StorageLayout([10, 10], PageLayout(4096, 16))
        assert layout.page_offsets == [0, 1, 2]

    def test_empty_table_occupies_one_page(self):
        layout = StorageLayout([0, 5], PageLayout(4096, 16))
        assert layout.pages_per_table[0] == 1
        assert layout.total_pages == 2

    def test_layout_is_contiguous(self):
        sizes = [100, 256, 1, 700]
        layout = StorageLayout(sizes, PageLayout(4096, 16))
        starts = layout.page_offsets[:-1]
        assert starts == sorted(starts) and len(starts) == len(sizes)
        assert layout.total_pages == sum(layout.pages_per_table)
