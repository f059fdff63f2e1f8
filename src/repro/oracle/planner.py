"""Cost-based query planning across distance-oracle backends.

Per query, the planner picks the backend expected to answer cheapest.
The model is the classic "measured constants x analytical shape"
split (a database optimizer in miniature):

* **Measured constants** -- seconds per counted unit of work (SILC:
  one refinement; labels: one label-entry scan; INE: one settled
  vertex) plus a fixed per-query term (set-up, block bounds, result
  assembly -- what a two-refinement k=1 search mostly pays for),
  fitted by :meth:`QueryPlanner.calibrate` from real sample queries
  against the live index, object set and storage simulator (if any),
  persistable as JSON alongside the labelling columns.
* **Analytical query-shape terms** -- a per-backend linear counted-op
  model ``ops(k) = base + per_k * k`` fitted at calibration time.
  Object density enters through the fit (calibration runs against the
  serving object index, so the constants absorb the density the
  backend actually faces); ``k`` enters per query.
* **Cache state** -- when the engine's storage simulator is attached
  (a library caller's ``storage=``; ``repro serve`` runs without one),
  SILC's predicted cost is scaled by the excess of the current miss
  rate over the calibration-time miss rate, so a cold page cache
  pushes the planner toward the backends that never touch index pages.

Every decision is counted in the planner's
:class:`~repro.obs.registry.MetricsRegistry` (per-backend picks, forced
overrides, calibration cost), the same counted-first methodology as
the rest of the benchmark suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.errors import CorruptIndexError
from repro.integrity import atomic_write_text
from repro.obs.registry import MetricsRegistry
from repro.oracle.base import DistanceOracle
from repro.query.stats import QueryStats

#: File name the calibrated constants persist under (inside the
#: ``labels/`` subdirectory of an index).
COST_MODEL_FILE = "cost_model.json"

#: Deterministic tie-break / iteration order of plannable backends.
PLANNABLE = ("silc", "labels", "ine")

#: Calibration k values the linear ops(k) model is fitted through.
CALIBRATION_KS = (1, 8)


def counted_ops(backend: str, stats: QueryStats) -> int:
    """The backend's counted unit of work accumulated in ``stats``.

    SILC counts refinement steps (including exactness
    post-refinements); labels count label-entry scans; INE counts
    settled vertices.  These are the units the per-op calibration
    constants are measured in.
    """
    if backend == "silc":
        return stats.refinements + stats.extras.get("post_refinements", 0)
    if backend == "labels":
        return stats.label_scans
    if backend == "ine":
        return stats.settled
    raise ValueError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class CostConstants:
    """The calibrated model: per-backend op counts and op seconds.

    ``op_model[b] = (base, per_k)`` predicts counted ops for one
    query at ``k``; a query doing ``ops`` of them costs
    ``query_seconds[b] + ops * op_seconds[b]`` of measured wall-clock
    (including simulated I/O time, when a storage simulator was
    attached during calibration).
    """

    op_model: dict[str, tuple[float, float]]
    op_seconds: dict[str, float]
    miss_rate: float = 0.0
    query_seconds: dict[str, float] = field(default_factory=dict)

    def predicted_ops(self, backend: str, k: int) -> float:
        base, per_k = self.op_model[backend]
        return base + per_k * k

    def seconds_for(self, backend: str, ops: float) -> float:
        """Modelled seconds of one query doing ``ops`` counted ops."""
        return self.query_seconds.get(backend, 0.0) + ops * self.op_seconds[backend]

    def predicted_cost(self, backend: str, k: int) -> float:
        return self.seconds_for(backend, self.predicted_ops(backend, k))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        payload = {
            "op_model": {b: list(v) for b, v in self.op_model.items()},
            "op_seconds": self.op_seconds,
            "query_seconds": self.query_seconds,
            "miss_rate": self.miss_rate,
        }
        path = Path(directory) / COST_MODEL_FILE
        atomic_write_text(
            path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, directory) -> CostConstants | None:
        """The cost model :meth:`save` wrote there, or None without one.

        A file that exists but cannot be read back whole -- truncated,
        not JSON, a key :meth:`save` writes missing -- raises
        :class:`~repro.errors.CorruptIndexError` naming it, like every
        other persisted artifact (``repro build-labels`` rewrites it).
        """
        path = Path(directory) / COST_MODEL_FILE
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            return cls(
                op_model={b: tuple(v) for b, v in payload["op_model"].items()},
                op_seconds=dict(payload["op_seconds"]),
                miss_rate=float(payload["miss_rate"]),
                query_seconds=dict(payload["query_seconds"]),
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorruptIndexError(
                f"corrupt cost model {path}: {exc!r}"
            ) from exc


def fit_line(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares ``y = base + slope * x`` as ``(base, slope)``.

    Both terms are clamped non-negative (a cost model must not predict
    negative work), and points that all share one ``x`` give a flat line.
    """
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    spread = sum((x - mean_x) ** 2 for x, _ in points)
    covar = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = max(0.0, covar / spread) if spread else 0.0
    return max(0.0, mean_y - slope * mean_x), slope


class QueryPlanner:
    """Pick a kNN backend per query from the calibrated cost model.

    Parameters
    ----------
    oracles:
        Backend name -> bound :class:`DistanceOracle`.  Only names in
        :data:`PLANNABLE` participate; at least one is required.
    constants:
        A previously calibrated :class:`CostConstants` (e.g. loaded
        from the labelling directory).  When omitted, the planner
        calibrates itself lazily on the first ``choose`` call.
    force:
        Forced-backend override: every ``choose`` returns this name
        and counts ``planner_forced_total`` only.  The operational
        escape hatch when the model misjudges a workload.
    storage:
        The engine's storage simulator, read for the cache-state term.
    calibration_queries:
        Sample query vertices for lazy calibration (defaults to a
        deterministic spread of the network's vertices).
    """

    def __init__(
        self,
        oracles: dict[str, DistanceOracle],
        constants: CostConstants | None = None,
        force: str | None = None,
        storage=None,
        calibration_queries=None,
    ) -> None:
        self.oracles = {
            name: oracles[name] for name in PLANNABLE if name in oracles
        }
        if not self.oracles:
            raise ValueError(
                f"no plannable backend given; expected one of {PLANNABLE}"
            )
        if force is not None and force not in self.oracles:
            raise ValueError(
                f"cannot force unavailable backend {force!r}; "
                f"have {tuple(self.oracles)}"
            )
        self.constants = constants
        self.force = force
        self.storage = storage
        self.registry = MetricsRegistry()
        self._calibration_queries = calibration_queries
        #: Per-k picks at a cache no colder than calibration saw, and
        #: the constants they were priced with.
        self._warm_picks: dict[int, str] = {}
        self._warm_for: CostConstants | None = None

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def _default_queries(self, samples: int = 4) -> list[int]:
        some = next(iter(self.oracles.values()))
        network = getattr(some, "network", None)
        if network is None:
            network = some.object_index.network
        n = network.num_vertices
        step = max(1, n // samples)
        return [(i * step + step // 3) % n for i in range(samples)]

    def calibrate(self, queries=None, ks=CALIBRATION_KS) -> CostConstants:
        """Measure per-op constants and fit the ops(k) model.

        Runs ``len(queries) * len(ks)`` real queries per backend, twice
        each, against the live index/object set (exact answers, so every
        backend does comparable work) and fits, per backend, one
        :func:`fit_line` through the (k, counted ops) samples and one
        through the (counted ops, seconds) samples.  The calibration
        queries warm the storage simulator exactly as real traffic
        would; the observed miss rate is recorded for the cache-state
        term.
        """
        if queries is None:
            queries = self._calibration_queries or self._default_queries()
        queries = list(queries)
        op_model: dict[str, tuple[float, float]] = {}
        op_seconds: dict[str, float] = {}
        query_seconds: dict[str, float] = {}
        for backend, oracle in self.oracles.items():
            ops_at_k: list[tuple[float, float]] = []
            seconds_at_ops: list[tuple[float, float]] = []
            for k in ks:
                for q in queries:
                    # Best of two: the first run pays one-off warm-up
                    # (cold pages, the location cache) steady traffic won't.
                    seconds = math.inf
                    for _ in range(2):
                        t0 = perf_counter()
                        result = oracle.knn(q, k, exact=True)
                        elapsed = perf_counter() - t0 + result.stats.io_time
                        seconds = min(seconds, elapsed)
                    ops = counted_ops(backend, result.stats)
                    ops_at_k.append((k, ops))
                    seconds_at_ops.append((ops, seconds))
            op_model[backend] = fit_line(ops_at_k)
            query_seconds[backend], op_seconds[backend] = fit_line(seconds_at_ops)
        self.constants = CostConstants(
            op_model=op_model,
            op_seconds=op_seconds,
            miss_rate=self._miss_rate(),
            query_seconds=query_seconds,
        )
        self.registry.inc("planner_calibrations_total", stage="plan")
        self.registry.inc(
            "planner_calibration_queries_total",
            2 * len(queries) * len(ks) * len(self.oracles),
            stage="plan",
        )
        return self.constants

    def _miss_rate(self) -> float:
        if self.storage is None:
            return 0.0
        stats = self.storage.stats
        accesses = getattr(stats, "accesses", 0)
        if not accesses:
            return 0.0
        return getattr(stats, "misses", 0) / accesses

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def predicted_costs(self, k: int) -> dict[str, float]:
        """Per-backend predicted seconds for one query at ``k``."""
        if self.constants is None:
            self.calibrate()
        costs: dict[str, float] = {}
        cold_excess = max(0.0, self._miss_rate() - self.constants.miss_rate)
        for backend in self.oracles:
            cost = self.constants.predicted_cost(backend, k)
            if backend == "silc" and cold_excess > 0.0:
                # Colder cache than calibration saw: each SILC op pays
                # proportionally more simulated I/O.
                cost *= 1.0 + cold_excess
            costs[backend] = cost
        return costs

    def choose(self, query, k: int) -> str:
        """The backend name this query should run on."""
        if self.force is not None:
            self.registry.inc("planner_forced_total", stage="plan")
            return self.force
        if self.constants is None:
            self.calibrate()
        if self._miss_rate() > self.constants.miss_rate:
            best = _cheapest(self.predicted_costs(k))  # colder: SILC re-priced
        else:
            # No colder than at calibration: the costs depend on k
            # alone, so the pick for this k is the one made last time.
            if self._warm_for is not self.constants:
                self._warm_picks, self._warm_for = {}, self.constants
            best = self._warm_picks.get(k)
            if best is None:
                best = self._warm_picks[k] = _cheapest(self.predicted_costs(k))
        self.registry.inc("planner_decisions_total", stage="plan", oracle=best)
        return best

    def explain(self, k: int) -> str:
        """One-line decision trace for logs and the runbook."""
        costs = self.predicted_costs(k)
        parts = ", ".join(
            f"{b}={c * 1e6:.1f}us" for b, c in sorted(costs.items())
        )
        return f"k={k}: {parts} -> {_cheapest(costs)}"


def _cheapest(costs: dict[str, float]) -> str:
    """The lowest predicted cost, ties to the earlier in :data:`PLANNABLE`."""
    return min(costs, key=lambda b: (costs[b], PLANNABLE.index(b)))
