"""Result types shared by every k-nearest-neighbor algorithm."""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.stats import QueryStats, counted_clock
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

    ``ordered`` promises the neighbours come in increasing distance.  It
    is False for kNN-M, whose KMINDIST fast path trades the sortedness
    of the output for fewer refinements (p.36), and for ``range_query``,
    which decides membership by bounds and refines no hit to order it.
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
        return [n.best_estimate if n.distance is None else n.distance for n in self.neighbors]


def exact_result(
    ranked, stats: QueryStats, t_start: float, storage=None, io_before=None
) -> KNNResult:
    """A baseline's answer from its ``(distance, oid)`` ranking, every
    distance exact; ``stats`` gets the page traffic since ``io_before``
    (when ``storage`` counted it), the elapsed time and ``dk_final``."""
    neighbors = [Neighbor(oid, DistanceInterval(d, d), d) for d, oid in ranked]
    if io_before is not None:
        delta = storage.stats.delta_since(io_before)
        stats.io_accesses = delta.accesses
        stats.io_misses = delta.misses
        stats.io_time = delta.io_time(storage.miss_latency)
    stats.elapsed = counted_clock() - t_start
    if neighbors:
        stats.dk_final = neighbors[-1].distance
    return KNNResult(neighbors=neighbors, stats=stats, ordered=True)
