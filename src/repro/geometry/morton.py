"""Morton (Z-order) codes and Morton blocks.

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

from functools import lru_cache

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


@lru_cache(maxsize=None)
def _high_decode_tables(order: int) -> tuple[np.ndarray, np.ndarray]:
    """``(x_high, y_high)`` as ``uint16``, sized to the bits above the
    low 16 of a ``2**order`` grid's codes and shifted into place (one
    zero row at order <= 8, at most 2 x 128 KiB at order 16).  The low
    half goes through the module's uint8 tables in place."""
    high = 1 << max(0, 2 * order - 16)
    tables = (
        _DECODE_X[:high].astype(np.uint16) << 8,
        _DECODE_Y[:high].astype(np.uint16) << 8,
    )
    for table in tables:  # shared by every caller: read-only
        table.flags.writeable = False
    return tables


def morton_decode_array(
    codes: np.ndarray, order: int = MAX_ORDER
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`morton_decode` for bulk block geometry.

    Accepts an integer array of Z-order codes of a ``2**order`` grid
    (in ``[0, 4**order)``); returns ``(xs, ys)`` cell-coordinate arrays
    as ``int64``, two table lookups per coordinate.  A query's bound
    column decodes every row of an anchor's table at once through this.
    """
    v = np.asarray(codes, dtype=np.int64)
    x_high, y_high = _high_decode_tables(order)
    low = v & 0xFFFF
    high = v >> 16
    return (
        (x_high[high] | _DECODE_X[low]).astype(np.int64),
        (y_high[high] | _DECODE_Y[low]).astype(np.int64),
    )


# ----------------------------------------------------------------------
# Blocks.  A block is the pair (code, level): the aligned square
# of side 2**level cells whose lower-left cell has Z-order code ``code``.
# Alignment means code % 4**level == 0, and the block covers the code
# range [code, code + 4**level).
# ----------------------------------------------------------------------


def block_cells(level: int) -> int:
    """Number of grid cells covered by a block of the given level."""
    if level < 0 or level > MAX_ORDER:
        raise ValueError(f"block level out of range: {level}")
    return 1 << (2 * level)


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
