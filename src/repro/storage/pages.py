"""Disk-page layout of a SILC index.

The paper's experiments run the index off disk through an LRU buffer
holding 5% of the pages, and report I/O time separately from CPU time
(p.38: "I/O time dominates... each refinement may lead to a disk
access").  We reproduce that cost model explicitly: every per-vertex
block table is serialized into fixed-size pages, and each block-table
probe at query time touches the page holding the probed record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.quadtree.blocks import RECORD_BYTES


@dataclass(frozen=True)
class PageLayout:
    """Physical parameters of the simulated disk layout.

    ``record_bytes`` is the serialized size of one Morton block (code +
    level + color + two lambdas): by default ``RECORD_BYTES``, 10.
    ``SILCIndex.make_storage`` passes its index's own: 8 on a grid of
    order <= 8 (uint16 codes), 10 past it, plus one with int16 colours,
    so simulated pages and mapped bytes describe one record.  The paper quotes 8 bytes for the code-only layout, 16 with
    the lambda annotations.
    """

    page_size: int = 4096
    record_bytes: int = RECORD_BYTES

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.record_bytes <= 0:
            raise ValueError("page_size and record_bytes must be positive")
        if self.record_bytes > self.page_size:
            raise ValueError("a record must fit in a page")

    @property
    def records_per_page(self) -> int:
        return self.page_size // self.record_bytes


class StorageLayout:
    """Maps (table, record) coordinates to global page ids.

    Tables are laid out back to back, each starting on a fresh page
    (tables are read independently, so sharing pages across tables
    would fabricate locality that a real system would not have).
    """

    def __init__(self, table_sizes: list[int], layout: PageLayout | None = None) -> None:
        self.layout = layout or PageLayout()
        self.table_sizes = list(table_sizes)
        rpp = self.records_per_page = self.layout.records_per_page
        pages = [max(1, -(-size // rpp)) for size in self.table_sizes]
        self.pages_per_table = pages
        #: First global page id of each table (plus the total as a
        #: sentinel): a plain list, indexed once per probe.
        self.page_offsets: list[int] = [0, *itertools.accumulate(pages)]

    @property
    def total_pages(self) -> int:
        return self.page_offsets[-1]
