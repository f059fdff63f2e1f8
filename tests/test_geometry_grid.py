"""Unit tests for repro.geometry.grid."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import GridEmbedding, Point, Rect
from repro.geometry.morton import MAX_ORDER, morton_encode


class TestEmbeddingConstruction:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            GridEmbedding(Rect(0, 0, 1, 1), 0)
        with pytest.raises(ValueError):
            GridEmbedding(Rect(0, 0, 1, 1), MAX_ORDER + 1)

    def test_rejects_zero_area(self):
        with pytest.raises(ValueError):
            GridEmbedding(Rect(0, 0, 0, 1), 4)

    def test_for_points_encloses_everything(self):
        xs = np.array([1.0, 5.0, -2.0])
        ys = np.array([0.0, 3.0, 7.0])
        emb = GridEmbedding.for_points(xs, ys, order=6)
        for x, y in zip(xs, ys):
            assert emb.bounds.contains_xy(x, y)

    def test_for_points_needs_points(self):
        with pytest.raises(ValueError):
            GridEmbedding.for_points(np.array([]), np.array([]), order=4)

    def test_for_points_square_bounds(self):
        emb = GridEmbedding.for_points(
            np.array([0.0, 10.0]), np.array([0.0, 1.0]), order=4
        )
        assert emb.bounds.width == pytest.approx(emb.bounds.height)


class TestCellMapping:
    def test_cells_per_side(self):
        emb = GridEmbedding(Rect(0, 0, 16, 16), 4)
        assert emb.cells_per_side == 16
        assert emb.cell_width == 1.0

    def test_cell_of_interior_point(self):
        emb = GridEmbedding(Rect(0, 0, 16, 16), 4)
        assert emb.cell_of(Point(3.5, 7.2)) == (3, 7)

    def test_cell_of_clamps_boundary(self):
        emb = GridEmbedding(Rect(0, 0, 16, 16), 4)
        assert emb.cell_of(Point(16.0, 16.0)) == (15, 15)
        assert emb.cell_of(Point(-5.0, 20.0)) == (0, 15)

    def test_array_matches_scalar(self):
        emb = GridEmbedding(Rect(0, 0, 10, 10), 5)
        xs = np.array([0.1, 3.7, 9.99])
        ys = np.array([5.5, 0.0, 2.4])
        cx, cy = emb.cells_of_array(xs, ys)
        for i in range(3):
            assert (cx[i], cy[i]) == emb.cell_of(Point(xs[i], ys[i]))

    def test_morton_of_array(self):
        emb = GridEmbedding(Rect(0, 0, 8, 8), 3)
        codes = emb.morton_of_array(np.array([1.5]), np.array([2.5]))
        assert codes[0] == morton_encode(1, 2)


class TestBlockRects:
    def test_root_block_is_whole_grid(self):
        emb = GridEmbedding(Rect(0, 0, 32, 32), 5)
        assert emb.block_world_rect(0, 5) == Rect(0, 0, 32, 32)

    def test_cell_block_rect(self):
        emb = GridEmbedding(Rect(0, 0, 8, 8), 3)
        r = emb.block_world_rect(morton_encode(2, 3), 0)
        assert r == Rect(2, 3, 3, 4)

    @given(
        st.integers(0, 7),
        st.integers(0, 7),
    )
    def test_point_in_its_cell_rect(self, cx, cy):
        emb = GridEmbedding(Rect(0, 0, 8, 8), 3)
        p = Point(cx + 0.5, cy + 0.5)
        code = morton_encode(*emb.cell_of(p))
        assert emb.block_world_rect(code, 0).contains_point(p)

    def test_bounds_array_is_the_scalar_rect_bit_for_bit(self):
        """Aligned blocks at every level of a full-order grid over
        awkward world bounds: the vectorised bounds (what a query's
        bound column is built from) equal ``block_world_rect`` row for
        row."""
        emb = GridEmbedding(Rect(-3.7, 1.3e-3, 911.1, 914.5), MAX_ORDER)
        rng = np.random.default_rng(25)
        levels = rng.integers(0, MAX_ORDER + 1, size=5000)
        cells = rng.integers(0, 1 << (2 * MAX_ORDER), size=5000, dtype=np.int64)
        codes = cells >> (2 * levels) << (2 * levels)
        arrays = emb.block_world_bounds_array(codes, levels.astype(np.int8))
        for i, (code, level) in enumerate(zip(codes.tolist(), levels.tolist())):
            rect = emb.block_world_rect(code, level)
            assert [float(a[i]).hex() for a in arrays] == [
                v.hex() for v in (rect.xmin, rect.ymin, rect.xmax, rect.ymax)
            ], (code, level)
