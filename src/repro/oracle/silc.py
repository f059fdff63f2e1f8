"""The paper's two kNN backends, bound to the engine's index and objects.

:class:`SILCOracle` wraps a built :class:`~repro.silc.SILCIndex` plus
the best-first kNN search -- the exact code path ``QueryEngine`` has
always run.  :class:`INEOracle` wraps the paper's Incremental Network
Expansion baseline: no precomputed state, kNN by a growing Dijkstra
ball.  Callers reach either by name, ``engine.oracles[name].knn``.
"""

from __future__ import annotations

from repro.objects.index import ObjectIndex
from repro.query.bestfirst import best_first_knn
from repro.query.ine import ine_knn
from repro.query.results import KNNResult
from repro.silc.index import SILCIndex


class SILCOracle:
    """SILC browsing: shortest-path quadtrees + best-first refinement.

    Every parameter (``variant``, ``exact``, ``time_budget``) threads
    through to :func:`~repro.query.bestfirst.best_first_knn` untouched,
    and the attached storage simulator keeps accounting page traffic.
    """

    def __init__(self, index: SILCIndex, object_index: ObjectIndex) -> None:
        self.index = index
        self.object_index = object_index

    def knn(self, query, k: int, **kwargs) -> KNNResult:
        return best_first_knn(self.index, self.object_index, query, k, **kwargs)


class INEOracle:
    """Incremental Network Expansion: Dijkstra as a kNN backend.

    No precomputed state -- its selling point (always available,
    always exact) and its per-query cost (visits every edge closer
    than the k-th neighbor).  The planner picks it when the expected
    Dijkstra ball is small: high object density, small k.
    """

    def __init__(self, object_index: ObjectIndex) -> None:
        self.object_index = object_index

    def knn(self, query, k: int, **kwargs) -> KNNResult:
        # ``variant``/``exact``/``time_budget`` are SILC knobs: INE is
        # always exact, has no variants and stops at the k-th
        # neighbor's ball, so they are accepted and ignored.
        return ine_knn(self.object_index, query, k)
