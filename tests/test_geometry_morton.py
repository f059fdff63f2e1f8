"""Unit tests for repro.geometry.morton."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    MAX_ORDER,
    block_cells,
    block_contains,
    block_rect,
    blocks_overlap,
    child_blocks,
    morton_decode,
    morton_encode,
    parent_block,
)
from repro.geometry.morton import (
    _decode_table,
    common_block,
    is_aligned,
    morton_decode_array,
    morton_encode_array,
)

coords = st.integers(min_value=0, max_value=(1 << MAX_ORDER) - 1)
levels = st.integers(min_value=0, max_value=MAX_ORDER)


class TestEncoding:
    def test_origin_is_zero(self):
        assert morton_encode(0, 0) == 0

    def test_unit_steps(self):
        # x occupies even bits, y odd bits.
        assert morton_encode(1, 0) == 1
        assert morton_encode(0, 1) == 2
        assert morton_encode(1, 1) == 3

    def test_z_order_of_2x2(self):
        codes = [morton_encode(x, y) for y in (0, 1) for x in (0, 1)]
        assert codes == [0, 1, 2, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            morton_encode(1 << MAX_ORDER, 0)
        with pytest.raises(ValueError):
            morton_encode(-1, 0)

    def test_decode_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            morton_decode(-1)
        with pytest.raises(ValueError):
            morton_decode(1 << (2 * MAX_ORDER))

    @given(coords, coords)
    def test_round_trip(self, x, y):
        assert morton_decode(morton_encode(x, y)) == (x, y)

    @given(coords, coords)
    def test_locality_within_rows(self, x, y):
        # Same cell encodes identically; different cells differ.
        assert morton_encode(x, y) == morton_encode(x, y)

    def test_distinct_cells_distinct_codes(self):
        codes = {morton_encode(x, y) for x in range(16) for y in range(16)}
        assert len(codes) == 256

    def test_array_encoding_matches_scalar(self):
        xs = np.array([0, 1, 5, 100, 30000])
        ys = np.array([0, 1, 7, 200, 12345])
        got = morton_encode_array(xs, ys)
        expected = [morton_encode(int(x), int(y)) for x, y in zip(xs, ys)]
        assert got.tolist() == expected

    def test_array_encoding_range_check(self):
        with pytest.raises(ValueError):
            morton_encode_array(np.array([1 << MAX_ORDER]), np.array([0]))


class TestTableDecoding:
    """``morton_decode_array`` reads two 16-bit halves through two
    ``uint8`` tables per coordinate; the scalar bit-compaction is the
    reference."""

    @staticmethod
    def _assert_matches_scalar(codes, column=None):
        xs, ys = morton_decode_array(codes if column is None else column)
        assert xs.dtype == ys.dtype == np.int64
        assert list(zip(xs.tolist(), ys.tolist())) == [
            morton_decode(c) for c in codes.tolist()
        ]

    def test_every_16_bit_code(self):
        self._assert_matches_scalar(np.arange(1 << 16, dtype=np.int64))

    def test_seeded_32_bit_codes(self):
        rng = np.random.default_rng(25)
        codes = rng.integers(0, 1 << (2 * MAX_ORDER), size=100_000, dtype=np.int64)
        codes[:2] = 0, (1 << (2 * MAX_ORDER)) - 1  # both ends of the range
        self._assert_matches_scalar(codes)

    def test_decodes_a_column_view_and_unsigned_codes(self):
        codes = np.array([0, 3, 1 << 20, (1 << 32) - 1], dtype=np.int64)
        for column in (memoryview(codes), codes.astype(np.uint64)):
            self._assert_matches_scalar(codes, column)

    def test_tables_are_built_without_wide_temporaries(self):
        """Building both tables allocates little beyond their 128 KiB:
        no 64-bit (512 KiB) intermediate over all 2**16 entries."""
        tracemalloc.start()
        try:
            tables = _decode_table(0), _decode_table(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(t.dtype == np.uint8 and t.shape == (1 << 16,) for t in tables)
        assert peak <= 256 * 1024


class TestBlockAlgebra:
    def test_block_cells(self):
        assert block_cells(0) == 1
        assert block_cells(1) == 4
        assert block_cells(3) == 64

    def test_block_cells_range(self):
        with pytest.raises(ValueError):
            block_cells(-1)
        with pytest.raises(ValueError):
            block_cells(MAX_ORDER + 1)

    def test_alignment(self):
        assert is_aligned(0, 2)
        assert is_aligned(16, 2)
        assert not is_aligned(4, 2)

    def test_containment(self):
        # Block (0, 1) covers codes 0..3.
        assert block_contains(0, 1, 3)
        assert not block_contains(0, 1, 4)

    def test_parent_child_round_trip(self):
        children = child_blocks(16, 2)
        assert len(children) == 4
        for code, level in children:
            assert parent_block(code, level) == (16, 2)

    def test_children_partition_parent(self):
        total = sum(block_cells(lv) for _, lv in child_blocks(0, 3))
        assert total == block_cells(3)

    def test_parent_of_root_rejected(self):
        with pytest.raises(ValueError):
            parent_block(0, MAX_ORDER)

    def test_split_of_cell_rejected(self):
        with pytest.raises(ValueError):
            child_blocks(0, 0)

    def test_overlap_nested(self):
        assert blocks_overlap(0, 2, 4, 1)
        assert blocks_overlap(4, 1, 0, 2)

    def test_overlap_disjoint(self):
        assert not blocks_overlap(0, 1, 4, 1)

    def test_block_rect_of_cell(self):
        r = block_rect(morton_encode(3, 5), 0)
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (3.0, 5.0, 4.0, 6.0)

    def test_block_rect_of_level(self):
        r = block_rect(0, 2)
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.0, 0.0, 4.0, 4.0)

    def test_common_block_of_identical(self):
        assert common_block(7, 7) == (7, 0)

    def test_common_block_of_siblings(self):
        assert common_block(0, 3) == (0, 1)

    @given(coords, coords)
    def test_common_block_contains_both(self, x, y):
        a = morton_encode(x, y)
        b = morton_encode(y % (1 << MAX_ORDER), x % (1 << MAX_ORDER))
        code, level = common_block(a, b)
        assert block_contains(code, level, a)
        assert block_contains(code, level, b)

    @given(st.integers(0, (1 << (2 * MAX_ORDER)) - 1), levels)
    def test_block_rect_is_square_with_level_side(self, code, level):
        aligned = code - (code % block_cells(level))
        r = block_rect(aligned, level)
        assert r.width == r.height == (1 << level)

    @given(st.integers(0, (1 << (2 * MAX_ORDER)) - 1), st.integers(1, MAX_ORDER))
    def test_children_tile_in_z_order(self, code, level):
        aligned = code - (code % block_cells(level))
        children = child_blocks(aligned, level)
        starts = [c for c, _ in children]
        assert starts == sorted(starts)
        assert starts[0] == aligned
        # contiguous: each child starts where the previous ends
        for (c1, l1), (c2, _) in zip(children, children[1:]):
            assert c1 + block_cells(l1) == c2
