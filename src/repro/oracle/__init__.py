"""Multi-backend distance oracles and the cost-based query planner.

The package turns "which algorithm answers this query" from a
hard-wired choice into a per-query decision:

* :class:`DistanceOracle` -- the interface every backend implements
  (``distance``, ``anchored_distance``, ``knn``, capability info,
  ``save``/``load``);
* :class:`SILCOracle` -- the paper's browsing path (shortest-path
  quadtrees + best-first refinement), extracted behavior-preserving;
* :class:`PrunedLabellingOracle` -- 2-hop pruned landmark labels:
  microsecond exact point-to-point distances, higher build cost;
* :class:`INEOracle` -- incremental network expansion, no precompute;
* :class:`DijkstraOracle` -- the reference backend property tests
  compare against, and the default engine of IER refinement;
* :class:`QueryPlanner` -- routes each query to the backend the
  calibrated cost model expects to answer cheapest, with a
  forced-backend override and its decisions counted in a metrics
  registry.
"""

from repro.oracle.base import ORACLE_CHOICES
from repro.oracle.labelling import LABELS_SUBDIR, PrunedLabellingOracle
from repro.oracle.planner import PLANNABLE, CostConstants, QueryPlanner, counted_ops

__all__ = [
    "ORACLE_CHOICES",
    "PLANNABLE",
    "LABELS_SUBDIR",
    "PrunedLabellingOracle",
    "QueryPlanner",
    "CostConstants",
    "counted_ops",
]
