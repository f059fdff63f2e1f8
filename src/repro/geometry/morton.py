"""Morton (Z-order) codes and the Morton-block algebra.

The shortest-path quadtree of the paper is stored not as a pointer tree
but as a flat, sorted collection of *Morton blocks*: aligned square
regions of the ``2^q x 2^q`` grid identified by the Z-order code of
their lower-left cell plus a level (the block spans ``2^level`` cells on
a side).  Storing blocks this way gives the paper its
dimension-reducing ``O(perimeter)`` representation and lets vertex
lookup run as a binary search over sorted codes.

Bit layout: the x coordinate occupies the even bit positions and y the
odd ones, so a block at ``level`` covers exactly the codes in
``[code, code + 4**level)`` -- the contiguous-range property every
algorithm here relies on.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect

#: Maximum supported grid order: the grid has ``2**MAX_ORDER`` cells per
#: side.  16 gives a 65536 x 65536 grid -- ample resolution for every
#: network size this reproduction runs while keeping codes in 32 bits.
MAX_ORDER = 16

_MASKS_SPREAD = (
    0x0000FFFF,
    0x00FF00FF,
    0x0F0F0F0F,
    0x33333333,
    0x55555555,
)


def _spread_bits(v: int) -> int:
    """Spread the low 16 bits of ``v`` into the even bit positions."""
    v &= _MASKS_SPREAD[0]
    v = (v | (v << 8)) & _MASKS_SPREAD[1]
    v = (v | (v << 4)) & _MASKS_SPREAD[2]
    v = (v | (v << 2)) & _MASKS_SPREAD[3]
    v = (v | (v << 1)) & _MASKS_SPREAD[4]
    return v


def _compact_bits(v: int) -> int:
    """Inverse of :func:`_spread_bits`: gather even bits into the low 16."""
    v &= _MASKS_SPREAD[4]
    v = (v | (v >> 1)) & _MASKS_SPREAD[3]
    v = (v | (v >> 2)) & _MASKS_SPREAD[2]
    v = (v | (v >> 4)) & _MASKS_SPREAD[1]
    v = (v | (v >> 8)) & _MASKS_SPREAD[0]
    return v


def morton_encode(x: int, y: int) -> int:
    """Interleave the bits of ``(x, y)`` into a Z-order code.

    ``x`` lands on even bit positions, ``y`` on odd ones.  Coordinates
    must fit in ``MAX_ORDER`` bits.
    """
    if not (0 <= x < (1 << MAX_ORDER) and 0 <= y < (1 << MAX_ORDER)):
        raise ValueError(f"grid coordinate out of range: ({x}, {y})")
    return _spread_bits(x) | (_spread_bits(y) << 1)


def morton_decode(code: int) -> tuple[int, int]:
    """Recover the ``(x, y)`` cell coordinates from a Z-order code."""
    if code < 0 or code >= (1 << (2 * MAX_ORDER)):
        raise ValueError(f"Morton code out of range: {code}")
    return _compact_bits(code), _compact_bits(code >> 1)


def morton_encode_array(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`morton_encode` for bulk quadtree construction.

    Accepts integer arrays; returns ``uint64`` codes.  The SILC build
    encodes every vertex once per network, so this path must be fast.
    """
    x = np.asarray(xs, dtype=np.uint64)
    y = np.asarray(ys, dtype=np.uint64)
    if x.size and (int(x.max()) >= (1 << MAX_ORDER) or int(y.max()) >= (1 << MAX_ORDER)):
        raise ValueError("grid coordinate out of range for Morton encoding")

    def spread(v: np.ndarray) -> np.ndarray:
        v = v & np.uint64(_MASKS_SPREAD[0])
        v = (v | (v << np.uint64(8))) & np.uint64(_MASKS_SPREAD[1])
        v = (v | (v << np.uint64(4))) & np.uint64(_MASKS_SPREAD[2])
        v = (v | (v << np.uint64(2))) & np.uint64(_MASKS_SPREAD[3])
        v = (v | (v << np.uint64(1))) & np.uint64(_MASKS_SPREAD[4])
        return v

    return spread(x) | (spread(y) << np.uint64(1))


def _decode_table(shift: int) -> np.ndarray:
    """``table[v]``, for every 16-bit ``v``: the bits of ``v >> shift`` at
    even positions, gathered (0: x, 1: y).  Built as 64 KiB of ``bytes``
    from 16 distinct rows: no wide temporary, no numpy loop."""
    nibbles = [_compact_bits(b >> shift) for b in range(256)]
    rows = {high: bytes(high << 4 | low for low in nibbles) for high in set(nibbles)}
    return np.frombuffer(b"".join(rows[high] for high in nibbles), dtype=np.uint8)


#: ``MAX_ORDER`` 16 keeps codes under 2**32: two 16-bit halves per code.
_DECODE_X = _decode_table(0)
_DECODE_Y = _decode_table(1)


def morton_decode_array(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`morton_decode` for bulk block geometry.

    Accepts an integer array of Z-order codes in ``[0, 2**32)``;
    returns ``(xs, ys)`` cell-coordinate arrays as ``int64``, two table
    lookups per coordinate.  A query's bound column decodes every row
    of an anchor's table at once through this.
    """
    v = np.asarray(codes, dtype=np.int64)
    low = v & 0xFFFF
    high = v >> 16
    xs = _DECODE_X[high].astype(np.int64) << 8 | _DECODE_X[low]
    ys = _DECODE_Y[high].astype(np.int64) << 8 | _DECODE_Y[low]
    return xs, ys


# ----------------------------------------------------------------------
# Block algebra.  A block is the pair (code, level): the aligned square
# of side 2**level cells whose lower-left cell has Z-order code ``code``.
# Alignment means code % 4**level == 0, and the block covers the code
# range [code, code + 4**level).
# ----------------------------------------------------------------------


def block_cells(level: int) -> int:
    """Number of grid cells covered by a block of the given level."""
    if level < 0 or level > MAX_ORDER:
        raise ValueError(f"block level out of range: {level}")
    return 1 << (2 * level)


def is_aligned(code: int, level: int) -> bool:
    """Whether ``code`` can start a block of ``level`` (alignment check)."""
    return code % block_cells(level) == 0


def block_contains(code: int, level: int, cell_code: int) -> bool:
    """Whether the block ``(code, level)`` contains the grid cell."""
    return code <= cell_code < code + block_cells(level)


def blocks_overlap(code_a: int, level_a: int, code_b: int, level_b: int) -> bool:
    """Whether two aligned blocks overlap.

    Aligned quadtree blocks either nest or are disjoint, so overlap
    reduces to containment of the smaller range in the larger.
    """
    end_a = code_a + block_cells(level_a)
    end_b = code_b + block_cells(level_b)
    return code_a < end_b and code_b < end_a


def parent_block(code: int, level: int) -> tuple[int, int]:
    """The enclosing block one level up."""
    if level >= MAX_ORDER:
        raise ValueError("block already spans the whole grid")
    cells = block_cells(level + 1)
    return (code - (code % cells), level + 1)


def child_blocks(code: int, level: int) -> tuple[tuple[int, int], ...]:
    """The four children of a block, in Z order (SW, SE, NW, NE)."""
    if level <= 0:
        raise ValueError("cannot split a single-cell block")
    step = block_cells(level - 1)
    return tuple((code + i * step, level - 1) for i in range(4))


def block_rect(code: int, level: int) -> Rect:
    """The grid-coordinate rectangle covered by a block.

    Returned in *cell units*: the block of a single cell ``(x, y)`` maps
    to ``[x, x+1] x [y, y+1]``.  Use a
    :class:`~repro.geometry.grid.GridEmbedding` to convert back to world
    coordinates.
    """
    x, y = morton_decode(code)
    side = 1 << level
    return Rect(float(x), float(y), float(x + side), float(y + side))


def range_blocks(lo: int, hi: int) -> list[tuple[int, int]]:
    """Greedy decomposition of a Morton-code range into aligned blocks.

    Returns the minimal list of ``(code, level)`` blocks that exactly
    tile the half-open code range ``[lo, hi)``: each block is the
    largest aligned block that starts at the current position and does
    not overrun ``hi``.  A range of ``4**q`` codes decomposes into at
    most ``~4 * q`` blocks, so a shard's Morton-key range can always be
    summarized by a handful of quadtree blocks -- the cover the
    partition router intersects with shortest-path quadtrees when it
    prunes shards by distance bound.
    """
    if lo < 0 or hi > (1 << (2 * MAX_ORDER)):
        raise ValueError(f"code range out of grid: [{lo}, {hi})")
    if lo > hi:
        raise ValueError(f"empty-range bounds reversed: [{lo}, {hi})")
    out: list[tuple[int, int]] = []
    code = lo
    while code < hi:
        level = 0
        while level < MAX_ORDER:
            cells = block_cells(level + 1)
            if code % cells or code + cells > hi:
                break
            level += 1
        out.append((code, level))
        code += block_cells(level)
    return out


def common_block(code_a: int, code_b: int) -> tuple[int, int]:
    """The smallest aligned block containing both cells.

    Used when constructing compressed quadtrees: the split level of two
    Z-order runs is the level of their lowest common block.
    """
    level = 0
    cells = 1
    while code_a - (code_a % cells) != code_b - (code_b % cells):
        level += 1
        cells <<= 2
        if level > MAX_ORDER:
            raise ValueError("cells do not share a grid")
    return (code_a - (code_a % cells), level)
