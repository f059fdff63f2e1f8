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
    previous ones: both contain the true distance, so their overlap
    does too.

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


@dataclass(frozen=True, slots=True, init=False)
class DistanceInterval:
    """A closed interval certain to contain a network distance."""

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        # The check and the fields in one frame (a generated __init__
        # would call a __post_init__ for the check: one frame more per
        # reported neighbour).
        if not (0.0 <= lo <= hi):
            raise invalid_bounds(lo, hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def intersects(self, other: DistanceInterval) -> bool:
        """The paper's *collision* test between two intervals."""
        return self.lo <= other.hi and other.lo <= self.hi
