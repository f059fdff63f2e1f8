"""Network-distance intervals.

The SILC framework never has to produce an exact network distance to
answer a query: it works with *intervals* ``[delta_minus, delta_plus]``
guaranteed to contain the true distance, refining them only while the
query outcome is ambiguous (the "Is Munich closer to Mainz than
Bremen?" example, p.18).  This module is the small algebra those
intervals obey.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Relative padding applied to interval bounds so that float round-off
#: in the ratio arithmetic can never expel the true distance.
REL_PAD = 1e-11

#: Two bounds that both contain the true distance miss each other only
#: by round-off (ulps per link); a wider relative gap is a corrupt index.
MAX_REL_GAP = 1e3 * REL_PAD


def invalid_bounds(lo: float, hi: float) -> ValueError:
    """The error for bounds failing ``0.0 <= lo <= hi``.

    That one chained comparison is the whole validity check (it is
    false for NaN, inverted and negative bounds alike); the refinement
    states apply it inline to their scalar bounds and come here only
    to name the failure -- also when clamping to the previous bounds
    left ``lo`` above ``hi`` by more than :data:`MAX_REL_GAP`.
    """
    if math.isnan(lo) or math.isnan(hi):
        return ValueError("interval bounds must not be NaN")
    if lo > hi:
        return ValueError(f"inverted interval [{lo}, {hi}]")
    return ValueError(f"negative distance bound {lo}")


def checked_bounds(
    lo: float, hi: float, prev_lo: float = 0.0, prev_hi: float = math.inf
) -> tuple[float, float]:
    """Validate fresh scalar bounds and, unless exact, clamp them to the
    previous ones (:meth:`DistanceInterval.intersection` on floats).

    Disjoint by rounding, they collapse to the midpoint; by more, one
    of them excluded the true distance: ``ValueError``.  For the
    once-per-object paths; the two per-step ``refine`` methods carry
    the same lines inline to stay within the frame budget.
    """
    if not (0.0 <= lo <= hi):
        raise invalid_bounds(lo, hi)
    if lo != hi:
        lo = max(lo, prev_lo)
        hi = min(hi, prev_hi)
        if lo > hi:
            if lo - hi > MAX_REL_GAP * lo:
                raise invalid_bounds(lo, hi)
            lo = hi = (lo + hi) / 2.0
    return lo, hi


@dataclass(frozen=True, slots=True)
class DistanceInterval:
    """A closed interval certain to contain a network distance."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi):
            raise invalid_bounds(self.lo, self.hi)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def intersects(self, other: DistanceInterval) -> bool:
        """The paper's *collision* test between two intervals."""
        return self.lo <= other.hi and other.lo <= self.hi

    def strictly_before(self, other: DistanceInterval) -> bool:
        """Whether every value here is <= every value of ``other``.

        When true, the ordering between the two underlying distances
        is already decided and no refinement is needed.
        """
        return self.hi <= other.lo

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def shifted(self, offset: float) -> DistanceInterval:
        """The interval of ``offset + d`` for ``d`` in this interval."""
        if offset < 0 and self.lo + offset < 0:
            return DistanceInterval(0.0, max(self.hi + offset, 0.0))
        return DistanceInterval(self.lo + offset, self.hi + offset)

    def intersection(self, other: DistanceInterval) -> DistanceInterval:
        """Tightest interval consistent with both operands.

        Both operands must contain the true distance, so their overlap
        does too; refinement uses this to enforce monotonicity in the
        presence of floating-point jitter.
        """
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            # Disjoint inputs can only arise from accumulated float
            # error; collapse to the midpoint of the gap.
            mid = (lo + hi) / 2.0
            return DistanceInterval(mid, mid)
        return DistanceInterval(lo, hi)

    def union_min(self, other: DistanceInterval) -> DistanceInterval:
        """Interval of ``min(a, b)`` for ``a`` here and ``b`` in other.

        Needed for objects reachable through either endpoint of an
        edge: the true distance is the minimum over the alternatives.
        """
        return DistanceInterval(min(self.lo, other.lo), min(self.hi, other.hi))

    @staticmethod
    def exact(value: float) -> DistanceInterval:
        return DistanceInterval(value, value)

    @staticmethod
    def unbounded(lo: float = 0.0) -> DistanceInterval:
        return DistanceInterval(lo, math.inf)
