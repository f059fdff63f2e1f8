"""Distance-oracle backends and the cost-based query planner.

The package turns "which algorithm answers this query" from a
hard-wired choice into a per-query decision.  A backend is an object
with ``knn(query, k, **kwargs)``, reached by name
(``engine.oracles[name]``, one of :data:`PLANNABLE`):

* :class:`SILCOracle` (``silc``) -- the paper's browsing path
  (shortest-path quadtrees + best-first refinement);
* :class:`PrunedLabellingOracle` (``labels``) -- 2-hop pruned landmark
  labels: microsecond exact point-to-point distances, higher build cost;
* :class:`INEOracle` (``ine``) -- incremental network expansion, no
  precompute;
* :class:`QueryPlanner` -- routes each ``auto`` query to the backend the
  calibrated cost model expects to answer cheapest, with its decisions
  counted in a metrics registry.  A caller forces a backend by naming
  it (``oracle=``), which bypasses the planner.
"""

from repro.oracle.labelling import LABELS_SUBDIR, PrunedLabellingOracle
from repro.oracle.planner import CostConstants, QueryPlanner, counted_ops
from repro.options import PLANNABLE

__all__ = [
    "PLANNABLE",
    "LABELS_SUBDIR",
    "PrunedLabellingOracle",
    "QueryPlanner",
    "CostConstants",
    "counted_ops",
]
