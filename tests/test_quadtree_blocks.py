"""Unit tests for repro.quadtree.blocks (the validating constructor,
``overlapping``, ``ends`` and ``storage_bytes`` live in tests/reference.py)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.morton import MAX_ORDER, block_cells
from repro.quadtree.blocks import COLUMN_DTYPES, COLUMNS, narrow_lambda
from reference import BlockTable


def make_table():
    """Blocks: [0,4) level1, [4,5) level0, [8,12) level1 -- gap at [5,8).

    The lambdas are exact in float32, so they come back as written."""
    return BlockTable(
        codes=np.array([0, 4, 8]),
        levels=np.array([1, 0, 1]),
        colors=np.array([10, 20, 30]),
        lam_min=np.array([1.0, 1.125, 1.25]),
        lam_max=np.array([2.0, 1.125, 1.875]),
    )


class TestConstruction:
    def test_length(self):
        assert len(make_table()) == 3

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BlockTable(
                np.array([0, 4]),
                np.array([1]),
                np.array([1, 2]),
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
            )

    def test_unsorted_codes_rejected(self):
        with pytest.raises(ValueError):
            BlockTable(
                np.array([4, 0]),
                np.array([0, 0]),
                np.array([1, 2]),
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
            )

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ValueError):
            BlockTable(
                np.array([0, 2]),  # level-1 block [0,4) overlaps [2,3)
                np.array([1, 0]),
                np.array([1, 2]),
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
            )

    def test_empty_table(self):
        t = BlockTable(
            np.empty(0), np.empty(0), np.empty(0), np.empty(0), np.empty(0)
        )
        assert len(t) == 0
        assert t.lookup(5) is None

    def test_columns_take_the_canonical_dtypes(self):
        table = make_table()
        assert {c: getattr(table, c).dtype for c in COLUMNS} == {
            c: np.dtype(dt) for c, dt in COLUMN_DTYPES.items()
        }

    def test_lambdas_not_exact_in_float32_are_rounded_outward(self):
        t = BlockTable(
            np.array([0]), np.array([0]), np.array([1]), np.array([1.2]), np.array([1.2])
        )
        _, lam_lo, lam_hi, _ = t.lookup(0)
        assert lam_lo < 1.2 < lam_hi
        assert np.nextafter(np.float32(lam_lo), np.float32(2)) == np.float32(lam_hi)

    @pytest.mark.parametrize("code", [-4, block_cells(MAX_ORDER)])
    def test_codes_outside_the_largest_grid_rejected(self, code):
        """A uint32 cast would wrap them into the grid."""
        with pytest.raises(ValueError, match="inside the largest grid"):
            BlockTable(
                np.array([code]), np.array([0]), np.array([1]),
                np.array([1.0]), np.array([1.0]),
            )

    def test_order_is_checked_before_the_narrow_cast(self):
        """``[4, 0]`` is unsorted; its uint32 difference would wrap positive."""
        with pytest.raises(ValueError, match="strictly increasing"):
            BlockTable(
                np.array([4, 0]), np.array([0, 0]), np.array([1, 2]),
                np.array([1.0, 1.0]), np.array([1.0, 1.0]),
            )


F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)

#: What lambdas look like at the edges of float32: zero, float64 values
#: below float32's subnormals and among them, values exact in float32,
#: ordinary ratios, values beyond float32's range, and infinity.
lambdas = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-300),
    st.floats(0.0, 1e3 * F32_TINY),
    st.floats(width=32, min_value=0.0, allow_infinity=False),
    st.floats(0.5, 100.0),
    st.floats(F32_MAX, 1e300),
    st.just(float("inf")),
)


class TestNarrowLambda:
    @given(st.lists(lambdas, min_size=1, max_size=8), st.booleans())
    def test_outward_within_one_ulp_and_exact_when_representable(self, xs, negate):
        x = -np.array(xs) if negate else np.array(xs)
        lo, hi = narrow_lambda(x, x)
        assert lo.dtype == hi.dtype == np.float32
        assert (lo.astype(float) <= x).all() and (x <= hi.astype(float)).all()
        with np.errstate(over="ignore"):  # finite past float32's range -> inf
            exact = x.astype(np.float32).astype(float) == x
            # Not exact: lo and hi are neighbours, one float32 ulp apart.
            neighbours = np.nextafter(lo[~exact], np.float32(np.inf)) == hi[~exact]
        assert (lo[exact] == x[exact]).all() and (hi[exact] == x[exact]).all()
        assert neighbours.all()

    def test_nan_stays_nan(self):
        lo, hi = narrow_lambda(np.array([np.nan]), np.array([np.nan]))
        assert np.isnan(lo).all() and np.isnan(hi).all()


class TestLocate:
    def test_hit_inside_block(self):
        t = make_table()
        assert [t.lookup(cell)[3] for cell in (0, 3, 4, 9)] == [0, 0, 1, 2]

    def test_miss_in_gap(self):
        assert make_table().lookup(6) is None

    def test_miss_past_end(self):
        assert make_table().lookup(12) is None

    def test_lookup_returns_scalars(self):
        t = make_table()
        color, lam_lo, lam_hi, row = t.lookup(9)
        assert (color, lam_lo, lam_hi, row) == (30, 1.25, 1.875, 2)
        assert isinstance(color, int)
        assert isinstance(lam_lo, float)

    def test_lookup_miss(self):
        assert make_table().lookup(7) is None


class TestOverlapping:
    def test_full_range(self):
        assert list(make_table().overlapping(0, 16)) == [0, 1, 2]

    def test_partial_overlap_from_left(self):
        # [3, 5) clips block 0 and block 1
        assert list(make_table().overlapping(3, 5)) == [0, 1]

    def test_gap_only(self):
        assert list(make_table().overlapping(5, 8)) == []

    def test_empty_range(self):
        assert list(make_table().overlapping(5, 5)) == []

    def test_range_starting_inside_block(self):
        assert list(make_table().overlapping(9, 10)) == [2]


class TestInspection:
    def test_block_decode(self):
        t = make_table()
        assert (t.codes[0], t.levels[0], t.colors[0]) == (0, 1, 10)
        assert t.ends[0] - t.codes[0] == 4

    def test_iter_blocks(self):
        t = make_table()
        assert list(t.colors) == [10, 20, 30]

    def test_total_cells(self):
        t = make_table()
        assert int((t.ends - t.codes).sum()) == 4 + 1 + 4

    def test_storage_bytes(self):
        assert make_table().storage_bytes(record_bytes=16) == 48


class TestColumnsAreRead:
    """A table is views of its columns: probes read them, no copy is kept."""

    def test_probes_return_native_scalars_from_any_buffer(self):
        owned = make_table()
        viewed = BlockTable.view(*(getattr(owned, c).copy() for c in COLUMNS))
        for table in (owned, viewed):
            hit = table.lookup(9)
            assert hit == (30, 1.25, 1.875, 2)
            assert [type(x) for x in hit] == [int, float, float, int]
            assert table.ends.tolist() == [4, 5, 12]

    def test_column_arrays_share_the_views_memory(self):
        table = make_table()
        for name, view in zip(COLUMNS, table.columns):
            assert np.shares_memory(getattr(table, name), np.asarray(view))

    def test_a_write_is_seen_by_the_next_probe(self):
        table = make_table()
        assert table.lookup(9) == (30, 1.25, 1.875, 2)  # probed once already
        table.colors[2] = 77
        table.lam_min[2] = 0.5
        assert table.lookup(9) == (77, 0.5, 1.875, 2)
        # Shrinking a block moves its end code with it.
        table.levels[2] = 0
        assert table.lookup(9) is None
        assert list(table.overlapping(9, 12)) == []
        assert list(table.overlapping(8, 9)) == [2]
