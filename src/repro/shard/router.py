"""The dispatcher: one kNN query, one shard worker.

Every worker maps the whole index and holds every object, so any one of
them answers any query exactly: there is nothing to prune or merge.
:class:`Dispatcher` lends each query one idle worker from a LIFO stack
and takes it back once the reply is in.  The worker returned last goes
out first, so a single client always lands on the same worker: dispatch
is deterministic (counted metrics repeat round after round) and that
worker's caches stay warm.  Concurrent callers each get a worker of
their own, waiting when all are lent; none is ever lent twice at once.

The visit goes through the :class:`~repro.shard.supervisor.ShardSupervisor`.
When the worker stays down past its policy's retries, ``respawn`` and
``failover`` answer on the unsharded fallback engine (the same exact
search; ``stats.extras["failover"]`` marks it) and ``error`` lets
:class:`~repro.errors.ShardUnavailable` propagate.  What is left of
``time_cap`` (seconds) once a worker is in hand goes down the pipe, so
the worker's search stops at the deadline with
:class:`~repro.errors.DeadlineExceeded`, never a late result.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter

from repro.engine import BatchResult, run_batch
from repro.errors import DeadlineExceeded, ShardUnavailable
from repro.obs.trace import NULL_TRACE
from repro.query.bestfirst import VARIANTS
from repro.query.location import resolve_location
from repro.query.results import KNNResult, Neighbor
from repro.silc.intervals import DistanceInterval

#: A worker's ``(oid, distance)`` pairs, ranked as every tier ranks.
_by_distance_then_oid = itemgetter(1, 0)


def _remaining(t_start: float, time_cap: float | None) -> float | None:
    """What is left of ``time_cap`` (None: unbounded); raises once spent."""
    if time_cap is None:
        return None
    left = time_cap - (perf_counter() - t_start)
    if left <= 0:
        raise DeadlineExceeded(
            f"query exceeded its {time_cap:.3f}s execution budget "
            "before a shard worker answered"
        )
    return left


@dataclass
class RouterStats:
    """Counted dispatch: one worker visit per query a worker answered
    (a failed-over query counts in ``queries`` only)."""

    queries: int = 0
    shards_visited: int = 0
    candidates: int = 0


class Dispatcher:
    """Hands each kNN query to one idle shard worker.

    Queries resolve against ``network`` in the parent, so a bad request
    fails with the kernel's own text before anything is sent; visits go
    through ``supervisor``; ``fallback`` is the unsharded
    :class:`~repro.engine.QueryEngine` of a failover (None: none).  Any
    number of threads may call :meth:`knn` at once.
    """

    def __init__(self, network, supervisor, fallback=None) -> None:
        self.network = network
        self.supervisor = supervisor
        self.fallback = fallback
        self.stats = RouterStats()
        self._stats_lock = threading.Lock()
        #: Idle worker slots, the next one to lend last: slot 0 first.
        #: Respawns swap the handle behind a slot, never the slots.
        self._idle = sorted(supervisor.workers, reverse=True)
        self._returned = threading.Condition()

    def _lend(self) -> int:
        with self._returned:
            while not self._idle:
                self._returned.wait()
            return self._idle.pop()

    def _take_back(self, shard: int) -> None:
        with self._returned:
            self._idle.append(shard)
            self._returned.notify()

    def knn(
        self,
        query,
        k: int,
        variant: str = "knn",
        trace=None,
        time_cap: float | None = None,
    ) -> KNNResult:
        """One exact kNN query, answered by one shard worker.

        ``query`` takes the forms :meth:`repro.engine.QueryEngine.knn`
        takes; ``variant`` never changes the answer (workers refine to
        exact distances).  The result is sorted by ``(distance, oid)``.
        ``trace`` records one ``shard:<id>`` span with the worker's own
        spans grafted underneath; it never changes the worker chosen.
        """
        # The kernel's own checks and texts, made before anything is
        # sent: a bad request fails the same way sharded or local.
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if k < 1:
            raise ValueError("k must be at least 1")
        if trace is None:
            trace = NULL_TRACE
        t_start = perf_counter()
        position = resolve_location(self.network, query)
        pairs = None
        shard = self._lend()
        try:
            budget = _remaining(t_start, time_cap=time_cap)
            with trace.span(f"shard:{shard}", shard=shard) as span:
                pairs, stats, spans = self.supervisor.knn(
                    shard, position, k, variant, trace=trace, time_cap=budget,
                )
                if spans is not None:
                    trace.adopt(spans, parent=span)
                span.add_stats(stats)
        except ShardUnavailable:
            if self.supervisor.policy.on_failure == "error" or self.fallback is None:
                raise
        finally:
            self._take_back(shard)
        if pairs is None:
            return self._failover(
                query, k, variant, trace, time_cap=_remaining(t_start, time_cap=time_cap)
            )
        pairs.sort(key=_by_distance_then_oid)
        neighbors = [
            Neighbor(oid, DistanceInterval.exact(d), distance=d) for oid, d in pairs
        ]
        with self._stats_lock:
            self.stats.queries += 1
            self.stats.shards_visited += 1
            self.stats.candidates += len(neighbors)
        return KNNResult(neighbors=neighbors, stats=stats, ordered=True)

    def _failover(
        self, query, k: int, variant: str, trace, time_cap: float | None
    ) -> KNNResult:
        """Answer on the unsharded fallback engine: the identical exact
        search over the same objects, so only latency moves."""
        self.supervisor.record(failovers=1)
        with trace.span("failover", oracle="silc"):
            result = self.fallback.knn(
                query, k, variant=variant, exact=True, trace=trace, time_cap=time_cap,
            )
        result.stats.extras["failover"] = True
        with self._stats_lock:
            self.stats.queries += 1
            self.stats.candidates += len(result.neighbors)
        return result

    def knn_batch(
        self,
        queries: Iterable,
        k: int,
        variant: str = "knn",
        trace=None,
        time_cap: float | None = None,
    ) -> BatchResult:
        """A batch through :meth:`knn`; ``time_cap`` bounds the whole
        batch (each query gets what remains when it starts)."""
        return run_batch(
            queries,
            lambda query, budget: self.knn(
                query, k, variant=variant, trace=trace, time_cap=budget
            ),
            time_cap=time_cap,
        )
