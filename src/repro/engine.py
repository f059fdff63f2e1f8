"""Batched query serving: the :class:`QueryEngine` facade.

A long-lived service answering network-distance queries holds one
built :class:`~repro.silc.SILCIndex`, one object index, and (in the
paper's disk-resident setting) one page buffer -- and then answers
*many* queries against them.  :class:`QueryEngine` packages exactly
that serving state:

* resolved query locations are cached, so repeated queries from the
  same vertex/position skip :func:`~repro.query.location.resolve_location`
  (for free-point queries that is an O(N) nearest-vertex scan);
* optionally, one :class:`~repro.storage.StorageSimulator` is
  attached for the whole lifetime of the engine, so the paper's
  simulated LRU buffer stays warm across queries and counts page
  misses (the library model behind the paper's figures; ``repro
  serve`` runs without it, on the OS page cache of a mapped index);
* per-query :class:`~repro.query.stats.QueryStats` are aggregated into
  a single batch-level stats object.

Example::

    engine = QueryEngine(index, object_index)
    batch = engine.knn_batch(range(100), k=5, variant="knn_m")
    print(len(batch), "queries,", batch.stats.refinements, "refinements")
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from time import perf_counter
from collections.abc import Iterable, Iterator

from repro.errors import DeadlineExceeded
from repro.objects.index import ObjectIndex
from repro.objects.model import NetworkPosition
from repro.oracle.labelling import PrunedLabellingOracle
from repro.options import DEFAULT_MAX_LOCATIONS, ORACLE_CHOICES
from repro.oracle.planner import QueryPlanner
from repro.oracle.silc import INEOracle, SILCOracle
from repro.query.bestfirst import VARIANTS
from repro.query.browsing import approximate_knn
from repro.query.location import resolve_location
from repro.query.results import KNNResult
from repro.query.stats import QueryStats
from repro.silc.index import SILCIndex
from repro.storage.simulator import StorageSimulator


@dataclass(frozen=True)
class BatchResult:
    """The answers to one batch of k-nearest-neighbor queries.

    ``results`` is in query order; ``stats`` is the sum of every
    per-query counter (see :meth:`QueryStats.add`); ``elapsed`` is
    the wall-clock time of the whole batch including location
    resolution.
    """

    results: list[KNNResult]
    stats: QueryStats
    elapsed: float

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[KNNResult]:
        return iter(self.results)

    def __getitem__(self, i: int) -> KNNResult:
        return self.results[i]


def run_batch(queries: Iterable, answer, time_cap: float | None = None) -> BatchResult:
    """Answer ``queries`` one at a time inside one whole-batch budget.

    ``answer(query, budget)`` returns one :class:`KNNResult`; ``budget``
    is what remains of ``time_cap`` (seconds) when the query starts,
    ``None`` without a cap.  The one place a batch counts its budget
    down, shared by the engine and the shard router.
    """
    t_start = perf_counter()
    results: list[KNNResult] = []
    for query in queries:
        budget = None
        if time_cap is not None:
            budget = time_cap - (perf_counter() - t_start)
            if budget <= 0:
                raise DeadlineExceeded(
                    f"batch exceeded its {time_cap:.4f}s budget "
                    f"after {len(results)} of its queries"
                )
        results.append(answer(query, budget))
    stats = reduce(QueryStats.add, (r.stats for r in results), QueryStats())
    return BatchResult(
        results=results, stats=stats, elapsed=perf_counter() - t_start
    )


class QueryEngine:
    """Many queries against one index: the serving-side facade.

    Parameters
    ----------
    index:
        A built SILC index.
    object_index:
        The spatial index over the object set queries run against.
    storage:
        An existing simulator to account page traffic through; stays
        attached for every query the engine runs (warm server cache).
    cache_fraction:
        Convenience alternative to ``storage``: build a simulator
        sized to this fraction of the index pages.  Mutually exclusive
        with ``storage``; omit both to run without I/O accounting.
    max_locations:
        Bound on the resolved-location cache (LRU eviction past it),
        so a long-lived server's memory stays flat no matter how many
        distinct query locations it sees.  ``None`` disables the
        bound.  (:class:`repro.storage.lru.LRUCache` tracks page-id
        *membership* only, so the value cache here keeps its own
        ``OrderedDict`` recency order instead of reusing it.)
    labelling:
        A built/loaded :class:`~repro.oracle.PrunedLabellingOracle`
        over the same network, enabling the ``labels`` backend (and
        giving ``auto`` a third choice).  Bound to this engine's
        object index.
    oracle:
        Default kNN backend for queries that do not name one:
        ``"silc"`` (the historical path, unchanged), ``"labels"``
        (labelling-backed IER), ``"ine"`` (incremental network
        expansion) or ``"auto"`` (per-query cost-based planning).

    ``planner`` starts as ``None``: the first ``auto`` query builds and
    calibrates a :class:`~repro.oracle.QueryPlanner` over the engine's
    backends (:meth:`ensure_planner`).  A caller holding calibrated
    constants assigns ``engine.planner`` itself.
    """

    def __init__(
        self,
        index: SILCIndex,
        object_index: ObjectIndex,
        storage: StorageSimulator | None = None,
        cache_fraction: float | None = None,
        max_locations: int | None = DEFAULT_MAX_LOCATIONS,
        labelling: PrunedLabellingOracle | None = None,
        oracle: str = "silc",
    ) -> None:
        if storage is not None and cache_fraction is not None:
            raise ValueError("pass either storage or cache_fraction, not both")
        if cache_fraction is not None:
            storage = index.make_storage(cache_fraction=cache_fraction)
        elif storage is not None:
            # Checked here, once: the per-query swap in _attached()
            # trusts it.
            index.check_storage(storage)
        if max_locations is not None and max_locations < 1:
            raise ValueError("max_locations must be at least 1 (or None)")
        if oracle not in ORACLE_CHOICES:
            raise ValueError(
                f"unknown oracle {oracle!r}; expected one of {ORACLE_CHOICES}"
            )
        self.index = index
        self.object_index = object_index
        self.storage = storage
        self.max_locations = max_locations
        self.oracle = oracle
        self.labelling = (
            labelling.bind_objects(object_index) if labelling is not None else None
        )
        #: Backend name -> bound oracle.  ``silc`` is the historical
        #: best-first path; ``labels`` appears when a labelling is
        #: given; ``ine`` is always available (no precomputed state).
        self.oracles = {
            "silc": SILCOracle(index, object_index),
            # The engine's simulator models SILC *index* pages, which
            # INE never reads, so INE runs unaccounted here.
            "ine": INEOracle(object_index),
        }
        if self.labelling is not None:
            self.oracles["labels"] = self.labelling
        self.planner: QueryPlanner | None = None
        self._positions: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    # Locations
    # ------------------------------------------------------------------
    def resolve(self, query) -> NetworkPosition:
        """Resolve a query location, caching hashable query forms.

        The cache is LRU-bounded by ``max_locations``: the engine can
        serve an unbounded stream of distinct locations at flat
        memory, at the price of re-resolving ones evicted since their
        last use.
        """
        try:
            cached = self._positions.get(query)
        except TypeError:  # unhashable query form: resolve every time
            return resolve_location(self.index.network, query)
        if cached is not None:
            self._positions.move_to_end(query)
            return cached
        cached = self._positions[query] = resolve_location(self.index.network, query)
        if self.max_locations is not None and len(self._positions) > self.max_locations:
            self._positions.popitem(last=False)
        return cached

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------
    def ensure_planner(self) -> QueryPlanner:
        """The engine's planner, built (and calibrated) on first use.

        Calibration runs its sample queries with the engine's storage
        simulator attached, so the measured per-op constants include
        the simulated I/O each backend would actually pay.
        """
        if self.planner is None:
            planner = QueryPlanner(self.oracles, storage=self.storage)
            self._attached(planner.calibrate)
            self.planner = planner
        return self.planner

    def _resolve_backend(self, oracle: str | None, position, k: int) -> str:
        backend = self.oracle if oracle is None else oracle
        if backend not in ORACLE_CHOICES:
            raise ValueError(
                f"unknown oracle {backend!r}; expected one of {ORACLE_CHOICES}"
            )
        if backend == "auto":
            planner = self.planner if self.planner is not None else self.ensure_planner()
            backend = planner.choose(position, k)
        if backend not in self.oracles:
            raise ValueError(
                f"oracle {backend!r} is not loaded on this engine "
                "(pass labelling= to the constructor, or `repro "
                "build-labels` the index first)"
            )
        return backend

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knn(
        self,
        query,
        k: int,
        variant: str = "knn",
        exact: bool = False,
        oracle: str | None = None,
        trace=None,
        time_cap: float | None = None,
    ) -> KNNResult:
        """One k-nearest-neighbor query through the engine's shared state.

        ``oracle`` overrides the engine's default backend for this
        query (``"auto"``/``"silc"``/``"labels"``/``"ine"``; the
        non-SILC backends always answer exact sorted distances, and
        ``variant`` applies to the SILC path only).
        ``trace`` is a :class:`~repro.obs.trace.Trace` to record
        ``plan`` / ``oracle:<backend>`` spans on; with the default
        ``None`` the query makes no tracing call.
        ``time_cap`` is the query's remaining deadline budget in
        seconds: the SILC search aborts with
        :class:`~repro.errors.DeadlineExceeded` when it runs out, so
        execution (not just queueing) honors end-to-end deadlines.
        The non-SILC backends answer in near-constant time per query
        and are checked once, up front.
        """
        if time_cap is not None and time_cap <= 0:
            raise DeadlineExceeded(
                f"query dispatched with no remaining budget ({time_cap:.4f}s)"
            )
        return self._attached(
            self._answer, query, k, variant, exact, oracle, trace, 0.0, time_cap
        )

    def _answer(
        self, query, k: int, variant: str, exact: bool, oracle: str | None,
        trace, epsilon: float, time_budget: float | None,
    ) -> KNNResult:
        """One query, the body :meth:`knn` and :meth:`knn_batch` share:
        resolve, then plan and dispatch, each under its span (``trace``
        None: no span at all).

        Every backend takes the same keywords; the non-SILC ones ignore
        the SILC knobs (see their ``knn``).
        """
        position = self.resolve(query)
        if trace is None:
            if epsilon > 0:
                return approximate_knn(
                    self.index, self.object_index, position, k, epsilon=epsilon
                )
            return self.oracles[self._resolve_backend(oracle, position, k)].knn(
                position, k, variant=variant, exact=exact, time_budget=time_budget,
            )
        if epsilon > 0:  # SILC-only (checked by knn_batch): nothing to plan
            with trace.span(
                "oracle:silc", oracle="silc", epsilon=epsilon
            ) as oracle_span:
                result = approximate_knn(
                    self.index, self.object_index, position, k,
                    epsilon=epsilon,
                )
                oracle_span.add_stats(result.stats)
            return result
        with trace.span("plan") as plan_span:
            backend = self._resolve_backend(oracle, position, k)
            plan_span.annotate(oracle=backend)
        with trace.span(f"oracle:{backend}", oracle=backend) as oracle_span:
            result = self.oracles[backend].knn(
                position, k, variant=variant, exact=exact, time_budget=time_budget,
            )
            oracle_span.add_stats(result.stats)
        return result

    def knn_batch(
        self,
        queries: Iterable,
        k: int,
        variant: str = "knn",
        exact: bool = False,
        epsilon: float = 0.0,
        oracle: str | None = None,
        trace=None,
        time_cap: float | None = None,
    ) -> BatchResult:
        """Answer many kNN queries in one pass over the shared state.

        Equivalent to calling :func:`repro.query.knn` (or the chosen
        variant) once per query -- same neighbors, same order -- but
        locations resolve once per distinct query, the storage
        simulator persists across the whole batch, and the per-query
        stats are additionally merged into ``BatchResult.stats``.

        ``queries`` is consumed exactly once, so one-shot iterables
        (generators, streaming readers) are answered in full -- the
        same single-pass contract as :meth:`SILCIndex.build`.

        ``epsilon > 0`` relaxes each query to the ``(1 + epsilon)``
        approximate search (:func:`repro.query.approximate_knn`) --
        fewer refinements for near-optimal answers; ``epsilon = 0``
        is the exact path, byte-identical to before the knob existed.
        ``oracle`` selects the backend as in :meth:`knn` (approximate
        search is a SILC capability, so the two knobs are exclusive).
        ``trace`` records per-query ``plan`` / ``oracle:<backend>``
        spans exactly as :meth:`knn` does.
        ``time_cap`` bounds the *whole batch* in seconds; each query's
        SILC search receives the budget remaining when it starts and
        :class:`~repro.errors.DeadlineExceeded` aborts the batch when
        it runs out.
        """
        if variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}"
            )
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if epsilon > 0 and (oracle or self.oracle) not in ("silc", None):
            raise ValueError(
                "epsilon-approximate search runs on the SILC backend only"
            )
        return self._attached(
            run_batch,
            queries,
            lambda query, budget: self._answer(
                query, k, variant, exact, oracle, trace, epsilon, time_budget=budget
            ),
            time_cap,
        )

    # ------------------------------------------------------------------
    # Storage plumbing
    # ------------------------------------------------------------------
    def _attached(self, call, *args):
        """``call(*args)`` with the engine's simulator attached to the index.

        A plain swap of ``index.storage``: the constructor matched the
        simulator to the index, so no query pays for that again.  A
        simulator the caller had attached comes back afterwards
        instead of being silently detached.
        """
        index = self.index
        previous = index.storage
        if self.storage is None or previous is self.storage:
            return call(*args)
        index.storage = self.storage
        try:
            return call(*args)
        finally:
            index.storage = previous
