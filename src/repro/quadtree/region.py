"""Region-quadtree construction over colored grid points.

This is the paper's core compression step: given every vertex's grid
cell, a *color* per vertex (its first hop from some source) and a
*value* per vertex (its network/Euclidean distance ratio), produce the
maximal aligned Morton blocks in which all vertices share one color --
the shortest-path quadtree, annotated with min/max values per block.

The builder never materializes a tree and never visits a block.
Points are presorted by Morton code once per network, and so are the
*split levels*: the level of the smallest aligned block holding both
point ``j - 1`` and point ``j``.  The smallest block holding any two
points is the maximum of the split levels between them, so the largest
single-color block around point ``j`` is one level below the smaller of
two running maxima of split levels: back to the nearest differently
colored point, and forward to the next one.  Both are segmented array
scans over a whole chunk of sources: ``O(m * n)`` for ``m`` sources,
whatever the number of blocks ("Build path" in docs/ARCHITECTURE.md
has the argument in full).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.morton import MAX_ORDER, block_cells
from repro.quadtree.blocks import narrow_lambda

#: Segment keys are ``segment * _KEY + level``: levels (at most
#: ``MAX_ORDER + 1``) stay below it, int32 keys hold 2**26 segments.
_KEY = 32


def split_levels(sorted_codes: np.ndarray, grid_order: int) -> np.ndarray:
    """Per-network half of the build: split level before each point.

    ``out[j]`` is the level of the smallest aligned block containing
    ``sorted_codes[j - 1]`` and ``sorted_codes[j]``, ``ceil(bit_length(a
    ^ b) / 2)``; ``out[0]`` is ``grid_order + 1``, the "split" between
    the first point and everything outside the root.  The bit length is
    the float64 exponent, exact while codes stay below ``4**MAX_ORDER =
    2**32 < 2**53``.  Validates what every source shares: codes
    **strictly increasing** (one point per cell) and inside the root.
    """
    codes = np.asarray(sorted_codes, dtype=np.int64)
    if not (0 < grid_order <= MAX_ORDER):
        raise ValueError(f"grid_order must be in (0, {MAX_ORDER}]")
    out = np.empty(codes.size, dtype=np.int8)
    if codes.size == 0:
        return out
    if codes.size > 1 and not np.all(np.diff(codes) > 0):
        raise ValueError("codes must be strictly increasing (one point per cell)")
    if int(codes[-1]) >= block_cells(grid_order):
        raise ValueError("a code lies outside the root block")
    out[0] = grid_order + 1
    bit_length = np.frexp((codes[1:] ^ codes[:-1]).astype(np.float64))[1]
    out[1:] = (bit_length + 1) >> 1
    return out


def _running_max(levels: np.ndarray, restart: np.ndarray) -> np.ndarray:
    """Row-wise running max of ``levels``, restarted where ``restart``.

    ``levels`` is ``(n,)`` int8, ``restart`` ``(m, n)`` bool, column 0
    all true.  A cumsum numbers the segments; ``maximum.accumulate``
    over ``segment * _KEY + level`` carries the max (a later segment's
    keys exceed every earlier one's); the low bits are the answer.
    """
    keys = np.cumsum(restart, axis=1, dtype=np.int32)
    keys *= _KEY
    keys += levels
    np.maximum.accumulate(keys, axis=1, out=keys)
    keys &= _KEY - 1
    return keys.astype(np.int8)


def region_block_columns(
    sorted_codes: np.ndarray,
    splits: np.ndarray,
    colors: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The maximal single-color Morton blocks of ``m`` colorings at once.

    ``sorted_codes`` (int64) and their :func:`split_levels` describe
    the ``n`` points; ``colors`` and ``values`` (float64) are ``(m, n)``,
    one row per source, C-contiguous or copied.  Returns ``(sizes, columns)``:
    blocks per row, and the five block columns (canonical dtypes, the
    colours in the dtype they arrive in, the lambdas rounded outward by
    :func:`narrow_lambda`) of all rows back
    to back -- the :class:`~repro.silc.store.FlatStore` layout.  Row ``i``'s blocks are the maximal single-color
    blocks of row ``i``: disjoint, sorted, covering every point, and
    *maximal* (the four children of any coarser aligned block would mix
    colors, or the block is the root).

    Peak memory beyond inputs and output is ``8 * m * n`` bytes: one
    int32 key matrix at a time (segments fit int32), two int8 level
    matrices (levels fit int8) and two bool masks.
    """
    if colors.shape != values.shape or colors.shape[1:] != splits.shape:
        raise ValueError("codes, colors and values must be aligned")
    # change[:, j]: point j starts a color run (column 0 always does).
    change = np.ones(colors.shape, dtype=bool)
    np.not_equal(colors[:, 1:], colors[:, :-1], out=change[:, 1:])
    # Smallest block reaching a differently colored point (or leaving
    # the root) on the left of j, then on the right: the same scan over
    # the mirrored arrays, where the split *after* j is splits[j + 1]
    # and a run ends where the next one starts.
    level = _running_max(splits, change)
    right = _running_max(
        np.roll(splits, -1)[::-1], np.roll(change, -1, axis=1)[:, ::-1]
    )
    np.minimum(level, right[:, ::-1], out=level)
    level -= 1
    # Point j opens a block unless its left neighbor shares it, which
    # is when their split level fits inside j's block.
    opens = splits > level
    first = np.flatnonzero(opens)
    levels = level.ravel()[first]
    shift = 2 * levels.astype(np.int64)
    codes = sorted_codes[first % splits.size]
    lam_min, lam_max = narrow_lambda(
        np.minimum.reduceat(values.ravel(), first),
        np.maximum.reduceat(values.ravel(), first),
    )
    return np.count_nonzero(opens, axis=1), {
        "codes": (codes >> shift << shift).astype(np.uint32),
        "levels": levels,
        "colors": colors.ravel()[first],
        "lam_min": lam_min,
        "lam_max": lam_max,
    }

