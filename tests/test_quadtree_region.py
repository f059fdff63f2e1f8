"""Unit tests for the region-quadtree builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.morton import MAX_ORDER, block_cells, morton_encode
from repro.quadtree.blocks import narrow_lambda
from repro.quadtree.region import region_block_columns, split_levels
from repro.silc.proximal import ProximalSILCIndex
from repro.silc import SILCIndex
from repro.network.allpairs import all_pairs_chunks
from repro.silc.sp_quadtree import SPQuadtreeBuilder
from reference import BlockTable, build_region_blocks, ranked, table_view


def build_from_cells(cells, colors, values, order=3):
    """Helper: cells as (x, y) pairs -> sorted build inputs."""
    codes = np.array([morton_encode(x, y) for x, y in cells], dtype=np.int64)
    perm = np.argsort(codes)
    return build_region_blocks(
        codes[perm],
        np.asarray(colors)[perm],
        np.asarray(values, dtype=float)[perm],
        order,
    )


class TestBuilder:
    def test_single_point_gives_root_block(self):
        t = build_from_cells([(3, 3)], [1], [1.5], order=3)
        assert len(t) == 1
        code, level, color = (column[0] for column in t.columns[:3])
        assert level == 3 and code == 0 and color == 1
        assert t.lookup(0)[1:3] == (1.5, 1.5)

    def test_uniform_colors_collapse_to_root(self):
        cells = [(x, y) for x in range(4) for y in range(4)]
        t = build_from_cells(cells, [9] * 16, list(range(16)), order=2)
        assert len(t) == 1
        assert t.lam_min[0] == 0.0
        assert t.lam_max[0] == 15.0

    def test_quadrant_colors_split_once(self):
        # Color by quadrant of a 4x4 grid -> exactly 4 level-1 blocks.
        cells = [(x, y) for x in range(4) for y in range(4)]
        colors = [(x // 2) + 2 * (y // 2) for x, y in cells]
        t = build_from_cells(cells, colors, [1.0] * 16, order=2)
        assert len(t) == 4
        assert sorted(t.levels.tolist()) == [1, 1, 1, 1]

    def test_blocks_cover_every_point(self):
        rng = np.random.default_rng(0)
        cells = [(int(x), int(y)) for x, y in rng.integers(0, 16, (40, 2))]
        cells = list(dict.fromkeys(cells))
        colors = [int(c) for c in rng.integers(0, 3, len(cells))]
        t = build_from_cells(cells, colors, [1.0] * len(cells), order=4)
        for (x, y), color in zip(cells, colors):
            assert t.lookup(morton_encode(x, y))[0] == color

    def test_lambda_annotations_are_slice_extrema(self):
        cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
        t = build_from_cells(cells, [5, 5, 5, 5], [3.0, 1.0, 4.0, 2.0], order=1)
        assert len(t) == 1
        assert t.lam_min[0] == 1.0
        assert t.lam_max[0] == 4.0

    def test_rejects_duplicate_codes(self):
        codes = np.array([3, 3])
        with pytest.raises(ValueError, match=r"^codes must be strictly increasing \(one point per cell\)$"):
            build_region_blocks(codes, np.array([1, 2]), np.array([1.0, 1.0]), 2)

    def test_rejects_code_outside_grid(self):
        codes = np.array([block_cells(2)])  # = 16, outside a 4x4 grid
        with pytest.raises(ValueError, match=r"^a code lies outside the root block$"):
            build_region_blocks(codes, np.array([1]), np.array([1.0]), 2)

    def test_rejects_misaligned_inputs(self):
        with pytest.raises(ValueError, match=r"^codes, colors and values must be aligned$"):
            build_region_blocks(
                np.array([0, 1]), np.array([1]), np.array([1.0, 2.0]), 2
            )

    @pytest.mark.parametrize("order", [0, MAX_ORDER + 1])
    def test_rejects_grid_order(self, order):
        with pytest.raises(ValueError, match=rf"^grid_order must be in \(0, {MAX_ORDER}\]$"):
            build_region_blocks(np.array([0]), np.array([1]), np.array([1.0]), order)

    def test_empty_input(self):
        colors = np.empty(0, dtype=np.int8)  # a stored colour's dtype
        t = build_region_blocks(np.empty(0), colors, np.empty(0), 3)
        assert len(t) == 0
        assert column_bytes(t) == column_bytes(
            stack_walk_blocks(np.empty(0), colors, np.empty(0), 3)
        )


@st.composite
def colored_grids(draw):
    order = draw(st.integers(2, 4))
    side = 1 << order
    n = draw(st.integers(1, min(30, side * side)))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, side - 1), st.integers(0, side - 1)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    colors = draw(
        st.lists(st.integers(0, 4), min_size=len(cells), max_size=len(cells))
    )
    values = draw(
        st.lists(
            st.floats(0.5, 10, allow_nan=False),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    return order, cells, colors, values


class TestBuilderProperties:
    @settings(max_examples=60, deadline=None)
    @given(colored_grids())
    def test_invariants(self, data):
        """Coverage, purity, disjointness, and lambda containment."""
        order, cells, colors, values = data
        codes = np.array([morton_encode(x, y) for x, y in cells], dtype=np.int64)
        perm = np.argsort(codes)
        table = build_region_blocks(
            codes[perm],
            np.asarray(colors)[perm],
            np.asarray(values)[perm],
            order,
        )
        # every point is covered by a block of its color, with its
        # value inside the lambda interval
        for (x, y), color, value in zip(cells, colors, values):
            row = table.lookup(morton_encode(x, y))[3]
            assert table.colors[row] == color
            assert table.lam_min[row] <= value <= table.lam_max[row]
        # blocks are disjoint and sorted (enforced by BlockTable) and
        # every block contains at least one point (no empty blocks)
        covered = 0
        code_set = set(codes.tolist())
        for code, end in zip(table.codes.tolist(), table.ends.tolist()):
            assert any(code <= c < end for c in code_set)
            covered += 1
        assert covered == len(table)


def _next_different(labels):
    labels = np.asarray(labels)
    n = labels.size
    nd = np.empty(n, dtype=np.int64)
    if n == 0:
        return nd
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    boundaries = np.concatenate([change, [n]])
    starts = np.concatenate([[0], change])
    for s, b in zip(starts, boundaries, strict=True):
        nd[s:b] = b
    return nd


def stack_walk_blocks(sorted_codes, colors, values, grid_order):
    """The per-block stack walk this kernel replaced (PR 4 .. PR 15),
    kept verbatim as the parity reference."""
    codes = np.asarray(sorted_codes, dtype=np.int64)
    colors = np.asarray(colors)
    values = np.asarray(values, dtype=np.float64)
    n = codes.size
    if colors.size != n or values.size != n:
        raise ValueError("codes, colors and values must be aligned")
    if not (0 < grid_order <= MAX_ORDER):
        raise ValueError(f"grid_order must be in (0, {MAX_ORDER}]")
    if n == 0:
        empty = np.empty(0)
        return BlockTable(empty, empty, empty, empty, empty)
    if n > 1 and not np.all(np.diff(codes) > 0):
        raise ValueError("codes must be strictly increasing (one point per cell)")
    root_cells = block_cells(grid_order)
    if int(codes[-1]) >= root_cells:
        raise ValueError("a code lies outside the root block")

    nd = _next_different(colors)

    out_codes: list[int] = []
    out_levels: list[int] = []
    out_colors: list[int] = []
    out_lmin: list[float] = []
    out_lmax: list[float] = []

    # Stack entries: (block_code, level, lo, hi) with points[lo:hi]
    # inside the block.  Children are pushed in reverse Z order so the
    # emitted blocks come out already sorted by code.
    stack: list[tuple[int, int, int, int]] = [(0, grid_order, 0, n)]
    while stack:
        code, level, lo, hi = stack.pop()
        if hi <= lo:
            continue
        if nd[lo] >= hi:
            seg = values[lo:hi]
            out_codes.append(code)
            out_levels.append(level)
            out_colors.append(int(colors[lo]))
            out_lmin.append(float(seg.min()))
            out_lmax.append(float(seg.max()))
            continue
        # Mixed colors: split.  level > 0 is guaranteed because a
        # single cell holds exactly one point (strictly increasing
        # codes), which is trivially pure.
        step = block_cells(level - 1)
        cut1 = lo + int(np.searchsorted(codes[lo:hi], code + step))
        cut2 = lo + int(np.searchsorted(codes[lo:hi], code + 2 * step))
        cut3 = lo + int(np.searchsorted(codes[lo:hi], code + 3 * step))
        stack.append((code + 3 * step, level - 1, cut3, hi))
        stack.append((code + 2 * step, level - 1, cut2, cut3))
        stack.append((code + step, level - 1, cut1, cut2))
        stack.append((code, level - 1, lo, cut1))

    # The changes since: the lambdas go through the same outward
    # narrowing as the kernel's, the codes are stored as uint32, and the
    # colours keep the dtype they came in.
    return table_view(
        np.array(out_codes, dtype=np.uint32),
        np.array(out_levels, dtype=np.int8),
        np.array(out_colors, dtype=colors.dtype),
        *narrow_lambda(np.array(out_lmin), np.array(out_lmax)),
    )


COLUMNS = ("codes", "levels", "colors", "lam_min", "lam_max")


def column_bytes(table):
    return [(c, getattr(table, c).dtype.str, getattr(table, c).tobytes()) for c in COLUMNS]


def random_codes(rng, order, n):
    """``n`` distinct sorted codes, half the time packed at the top of
    the root (long common prefixes, high bits set)."""
    cells = block_cells(order)
    span = min(cells, 4096)
    codes = np.sort(rng.choice(span, size=min(n, span), replace=False)).astype(np.int64)
    mode = rng.integers(3)
    if mode == 0:
        return codes + (cells - span)
    if mode == 1:
        return np.unique(rng.integers(0, cells, n)).astype(np.int64)
    return codes


def random_coloring(rng, n):
    colors = rng.integers(-1, rng.integers(1, 6), n).astype(np.int32)
    mode = rng.integers(6)
    if mode == 0:
        colors[:] = 3  # one color: the root block
    elif mode == 1:
        colors = np.arange(n, dtype=np.int32)  # all distinct
    elif mode == 2:
        colors = np.sort(colors)  # long runs, -1 (horizon) first
    values = rng.uniform(0.5, 3.0, n)
    for special in (np.nan, np.inf):
        if rng.random() < 0.2:
            values[rng.integers(0, n)] = special
    return colors, values


class TestKernelParity:
    """The array-pass kernel emits the stack walk's columns, to the byte."""

    @pytest.mark.parametrize("seed", range(8))
    def test_single_row_matches_stack_walk(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            order = int(rng.integers(1, MAX_ORDER + 1))
            codes = random_codes(rng, order, int(rng.integers(1, 60)))
            colors, values = random_coloring(rng, codes.size)
            assert column_bytes(
                build_region_blocks(codes, colors, values, order)
            ) == column_bytes(stack_walk_blocks(codes, colors, values, order))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_inputs_every_coloring(self, n):
        top = block_cells(MAX_ORDER) - 1
        for codes in ([0, 1, 2][:n], [top - 2, top - 1, top][-n:], [0, 5, top][:n]):
            codes = np.array(codes, dtype=np.int64)
            for pattern in np.ndindex(*(2,) * n):
                colors = np.array(pattern, dtype=np.int32) - 1
                values = np.arange(n, 0, -1, dtype=float)
                assert column_bytes(
                    build_region_blocks(codes, colors, values, MAX_ORDER)
                ) == column_bytes(stack_walk_blocks(codes, colors, values, MAX_ORDER))

    def test_bit_length_exact_at_top_of_range(self):
        # Neighbors whose xor is 2**k - 1 or 2**k for every k up to 32:
        # a float exponent off by one would shift a split level.
        top = block_cells(MAX_ORDER) - 1
        for k in range(1, 2 * MAX_ORDER + 1):
            for a, b in ((top - (1 << k) + 1, top), (top - (1 << (k - 1)), top)):
                a = max(a, 0)
                expected = -(-(int(a ^ b).bit_length()) // 2)
                assert split_levels(np.array([a, b]), MAX_ORDER).tolist() == [
                    MAX_ORDER + 1, expected,
                ]

    @pytest.mark.parametrize("m", [1, 7, 128])
    def test_chunk_rows_equal_their_own_single_call(self, m):
        rng = np.random.default_rng(m)
        order = 6
        codes = random_codes(rng, order, 300)
        rows = [random_coloring(rng, codes.size) for _ in range(m)]
        colors = np.stack([c for c, _ in rows])
        values = np.stack([v for _, v in rows])
        sizes, columns = region_block_columns(
            codes, split_levels(codes, order), colors, values
        )
        assert sizes.shape == (m,)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for i in range(m):
            single = build_region_blocks(codes, colors[i], values[i], order)
            chunk_row = table_view(
                *(columns[c][offsets[i] : offsets[i + 1]] for c in COLUMNS)
            )
            assert column_bytes(chunk_row) == column_bytes(single)
            assert column_bytes(single) == column_bytes(
                stack_walk_blocks(codes, colors[i], values[i], order)
            )

    def test_chunk_rejects_misaligned_matrices(self):
        codes = np.array([0, 1, 2])
        splits = split_levels(codes, 2)
        with pytest.raises(ValueError, match="^codes, colors and values must be aligned$"):
            region_block_columns(codes, splits, np.zeros((2, 3), int), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="^codes, colors and values must be aligned$"):
            region_block_columns(codes, splits, np.zeros((2, 4), int), np.zeros((2, 4)))


class TestIndexParity:
    """Whole indexes, every build route: each table is the stack walk's."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("radius", [np.inf, 4.0], ids=["full", "proximal"])
    def test_every_table_matches_stack_walk(self, small_net, radius, workers):
        if np.isfinite(radius):
            index = ProximalSILCIndex.build(
                small_net, radius, chunk_size=40, workers=workers
            )
            assert (index.store.colors == -1).any()  # the horizon is in there
        else:
            index = SILCIndex.build(small_net, chunk_size=40, workers=workers)
        # The walk writes uint32 codes; this grid's index stores uint16.
        assert index.store.codes.dtype == np.uint16
        order = np.argsort(index.vertex_codes)
        builder = SPQuadtreeBuilder(small_net, index.embedding, index.vertex_codes)
        for chunk, dist, colors in all_pairs_chunks(small_net, limit=radius):
            ratios = builder.ratios(chunk, dist, radius)
            for source, row_colors, row_ratios in zip(chunk, colors, ratios):
                walk = stack_walk_blocks(
                    index.vertex_codes[order],
                    ranked(small_net, source, row_colors, index.store.colors.dtype)[order],
                    row_ratios[order],
                    index.embedding.order,
                )
                codes = walk.codes.astype(np.uint16)
                assert np.array_equal(codes, walk.codes)
                assert column_bytes(index.tables[source]) == column_bytes(
                    table_view(codes, walk.levels, walk.colors, walk.lam_min, walk.lam_max)
                )
