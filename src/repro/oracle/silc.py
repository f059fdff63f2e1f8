"""The paper's backends behind the :class:`DistanceOracle` interface.

:class:`SILCOracle` wraps a built :class:`~repro.silc.SILCIndex` plus
the best-first kNN search -- the exact code path ``QueryEngine`` has
always run, extracted behind the shared interface so the planner can
weigh it against other backends.  :class:`INEOracle` wraps the paper's
Incremental Network Expansion baseline: no precomputed state, kNN by a
growing Dijkstra ball, distances by point-to-point Dijkstra.
"""

from __future__ import annotations

from repro.objects.index import ObjectIndex
from repro.oracle.base import DijkstraOracle, DistanceOracle, OracleInfo
from repro.query.bestfirst import best_first_knn
from repro.query.ine import ine_knn
from repro.query.results import KNNResult
from repro.silc.index import SILCIndex


class SILCOracle(DistanceOracle):
    """SILC browsing: shortest-path quadtrees + best-first refinement.

    Behavior-preserving extraction of the historical
    ``best_first_knn``/``SILCIndex.distance`` path: every parameter
    (``variant``, ``exact``, ``time_budget``) threads through
    untouched, and the attached storage simulator keeps accounting page
    traffic exactly as before.
    """

    info = OracleInfo(
        name="silc",
        exact=True,
        op_unit="refinements",
        incremental=True,
        precomputed=True,
    )

    def __init__(self, index: SILCIndex, object_index: ObjectIndex) -> None:
        self.index = index
        self.object_index = object_index

    def distance(self, source: int, target: int) -> float:
        return self.index.distance(source, target)

    def knn(self, query, k: int, **kwargs) -> KNNResult:
        return best_first_knn(self.index, self.object_index, query, k, **kwargs)

    def save(self, path) -> None:
        self.index.save(path)


class INEOracle(DijkstraOracle):
    """Incremental Network Expansion: Dijkstra as a kNN backend.

    No precomputed state -- its selling point (always available,
    always exact) and its per-query cost (visits every edge closer
    than the k-th neighbor).  The planner picks it when the expected
    Dijkstra ball is small: high object density, small k.  Distances
    are :class:`DijkstraOracle`'s.
    """

    info = OracleInfo(
        name="ine",
        exact=True,
        op_unit="settled",
        incremental=True,
        precomputed=False,
    )

    def __init__(self, object_index: ObjectIndex, storage=None) -> None:
        super().__init__(object_index.network)
        self.object_index = object_index
        self.storage = storage

    def knn(self, query, k: int, **kwargs) -> KNNResult:
        # ``variant``/``exact``/``time_budget`` are SILC knobs: INE is
        # always exact, has no variants and stops at the k-th
        # neighbor's ball, so they are accepted and ignored.
        return ine_knn(self.object_index, query, k, storage=self.storage)
