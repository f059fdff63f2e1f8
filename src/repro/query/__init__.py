"""Query processing: the paper's kNN algorithm, variants and baselines.

Public entry points (all return a :class:`KNNResult`):

* :func:`knn`    -- the non-incremental best-first algorithm (p.23),
* :func:`inn`    -- the incremental variant,
* :func:`knn_i`  -- pruning with the one-shot estimate ``D0k``,
* :func:`knn_m`  -- refinement-minimizing variant (unsorted output),
* :func:`ine_knn` -- Incremental Network Expansion baseline,
* :func:`ier_knn` -- Incremental Euclidean Restriction baseline.
"""

from repro.objects.model import target_anchors
from repro.query.bestfirst import VARIANTS, best_first_knn
from repro.query.browsing import (
    aggregate_nn,
    approximate_knn,
    browse,
    distance_join,
    range_query,
)
from repro.query.distances import ObjectDistanceState, QueryHandle
from repro.query.ier import ier_knn
from repro.query.ine import ine_knn
from repro.query.location import (
    resolve_location,
    same_edge_direct,
    source_anchors,
)
from repro.query.results import KNNResult, Neighbor
from repro.query.stats import QueryStats


def knn(index, object_index, query, k, exact=False):
    """k nearest neighbors with the paper's base kNN algorithm."""
    return best_first_knn(index, object_index, query, k, variant="knn", exact=exact)


def inn(index, object_index, query, k, exact=False):
    """k nearest neighbors with the incremental (INN) variant."""
    return best_first_knn(index, object_index, query, k, variant="inn", exact=exact)


def knn_i(index, object_index, query, k, exact=False):
    """k nearest neighbors with the D0k-pruned (kNN-I) variant."""
    return best_first_knn(index, object_index, query, k, variant="knn_i", exact=exact)


def knn_m(index, object_index, query, k, exact=False):
    """k nearest neighbors with the KMINDIST (kNN-M) variant.

    Output membership is exact but unsorted (``result.ordered`` is
    False) -- the cost of skipping total-ordering refinements.
    """
    return best_first_knn(index, object_index, query, k, variant="knn_m", exact=exact)


#: Name -> callable map used by the benchmark harness.
SILC_ALGORITHMS = {
    "knn": knn,
    "inn": inn,
    "knn_i": knn_i,
    "knn_m": knn_m,
}

__all__ = [
    "knn",
    "inn",
    "knn_i",
    "knn_m",
    "ine_knn",
    "ier_knn",
    "best_first_knn",
    "browse",
    "range_query",
    "approximate_knn",
    "aggregate_nn",
    "distance_join",
    "VARIANTS",
    "SILC_ALGORITHMS",
    "KNNResult",
    "Neighbor",
    "QueryStats",
    "QueryHandle",
    "ObjectDistanceState",
    "resolve_location",
    "source_anchors",
    "target_anchors",
    "same_edge_direct",
]
