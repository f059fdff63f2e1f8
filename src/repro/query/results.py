"""Result types shared by every k-nearest-neighbor algorithm."""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.stats import QueryStats
from repro.silc.intervals import DistanceInterval


@dataclass(frozen=True, slots=True)
class Neighbor:
    """One reported neighbor.

    ``interval`` always contains the true network distance.
    ``distance`` is the exact value when the algorithm resolved it
    (baselines always do; SILC algorithms only when asked, or when the
    interval happens to collapse during search).
    """

    oid: int
    interval: DistanceInterval
    distance: float | None = None

    @classmethod
    def from_state(cls, state) -> Neighbor:
        """Report a search state (anything with ``oid``/``lo``/``hi``).

        The output boundary of the SILC kernels: their states carry
        plain float bounds, and the one :class:`DistanceInterval` per
        reported neighbor is built here.
        """
        return cls(
            state.oid,
            DistanceInterval(state.lo, state.hi),
            state.lo if state.lo == state.hi else None,
        )

    @property
    def best_estimate(self) -> float:
        """The exact distance if known, else the interval midpoint."""
        if self.distance is not None:
            return self.distance
        return (self.interval.lo + self.interval.hi) / 2.0


@dataclass(frozen=True)
class KNNResult:
    """The answer to one k-nearest-neighbor query.

    ``ordered`` is False for kNN-M, whose KMINDIST fast path trades
    the sortedness of the output for fewer refinements (p.36).
    """

    neighbors: list[Neighbor]
    stats: QueryStats
    ordered: bool = True

    def __len__(self) -> int:
        return len(self.neighbors)

    def ids(self) -> list[int]:
        return [n.oid for n in self.neighbors]

    def distances(self) -> list[float]:
        """Best-estimate distances, in reported order."""
        return [n.best_estimate for n in self.neighbors]
