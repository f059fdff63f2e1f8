"""The partition router: distance-bound shard pruning + scatter-gather.

For one kNN query the router keeps a global candidate heap and visits
shards in ascending *lower bound on the distance to anything the
shard holds*.  Once k candidates are in hand, a shard whose bound
already exceeds the current k-th distance ``Dk`` cannot contribute
and is pruned without touching its worker -- the sharded analog of
the paper's best-first block pruning.

Two bounds, mirroring :meth:`repro.query.distances.QueryHandle.block_bound`:

* **Euclidean**: ``slope * MINDIST(query point, shard cover rects)``
  where ``slope = network.min_euclidean_ratio()``.  Sound for *every*
  object kind (any path is at least ``slope`` times its straight-line
  chord), and free -- no index probes.
* **Lambda**: per cover block,
  ``max(min over anchors of offset + block_lower_bound(anchor, block),
  slope * MINDIST(point, block))`` through the router's own
  (parent-process) shortest-path quadtrees -- the shard is skipped
  when every block's combined bound exceeds ``Dk``.  Tighter than the
  shard-level Euclidean bound, but its lambda term bounds distances to
  *vertices* only, so it applies to shards whose assigned objects are
  all vertex-positioned; shards holding edge parts use the Euclidean
  bound alone.

Soundness of pruning an object's shard: every part of the object lies
in some assigned shard (see
:func:`~repro.shard.partitioner.split_objects`); the bound of that
shard lower-bounds the distance through that part; so if *all* of an
object's shards are pruned, its true distance is ``>= Dk`` and the
global top k is unaffected.  Visited workers return their shard-local
top k with exact distances, so the merged top k is exact.

**Fault handling.**  Worker visits go through the
:class:`~repro.shard.supervisor.ShardSupervisor`; when a shard stays
down past its policy's retries the router degrades per that policy
rather than failing the query:

* ``respawn`` / ``failover`` -- the *whole query* is re-answered on
  the unsharded fallback engine (the same exact search over the full
  object set), so the caller still gets the complete, correct top k.
  The result's ``stats.extras["failover"]`` marks it.
* ``degrade`` -- the dead shard is skipped and the surviving shards'
  merged answer is returned with
  ``stats.extras["degraded_shards"]`` listing the missing shards (the
  serving layer turns that into the response's ``degraded`` flag).
  The answer is exact *over the objects the live shards hold* -- it
  may be missing neighbors owned solely by the dead shard, which is
  precisely what the flag tells the client.
* ``error`` -- :class:`~repro.errors.ShardUnavailable` propagates.

**Deadlines.**  ``time_cap`` is the query's remaining execution
budget in seconds.  The router re-computes the remaining budget
before each shard visit and forwards it down the pipe, so the worker's
own search loop stops at the deadline; an exhausted budget raises
:class:`~repro.errors.DeadlineExceeded` (never a late result).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import reduce
from time import perf_counter
from collections.abc import Iterable

from repro.engine import BatchResult, run_batch
from repro.errors import DeadlineExceeded, ShardUnavailable
from repro.obs.trace import NULL_TRACE
from repro.query.bestfirst import VARIANTS
from repro.query.location import (
    location_point,
    resolve_location,
    source_anchors,
)
from repro.query.results import KNNResult, Neighbor
from repro.query.stats import QueryStats
from repro.silc.intervals import DistanceInterval


@dataclass
class RouterStats:
    """Counted routing operations, accumulated across queries.

    ``shards_considered`` counts every populated shard per query;
    each is then either visited or pruned, so ``shards_visited +
    shards_pruned == shards_considered`` always holds.
    ``bound_probes`` counts lambda-bound quadtree probes (the router's
    extra index work); ``duplicates_merged`` counts candidates
    reported by more than one shard (boundary-straddling objects).
    """

    queries: int = 0
    shards_considered: int = 0
    shards_visited: int = 0
    shards_pruned_euclid: int = 0
    shards_pruned_lambda: int = 0
    bound_probes: int = 0
    candidates: int = 0
    duplicates_merged: int = 0

    @property
    def shards_pruned(self) -> int:
        return self.shards_pruned_euclid + self.shards_pruned_lambda

    @property
    def prune_rate(self) -> float:
        """Fraction of considered shards pruned without a worker visit."""
        if self.shards_considered == 0:
            return 0.0
        return self.shards_pruned / self.shards_considered


class PartitionRouter:
    """Routes kNN queries to shard workers, pruning by distance bound.

    Parameters
    ----------
    index:
        The parent process's full :class:`~repro.silc.SILCIndex`; the
        router probes it (with ``account=False``) for lambda bounds.
    shard_map:
        The :class:`~repro.shard.partitioner.ShardMap` the workers
        were built from.
    supervisor:
        The :class:`~repro.shard.supervisor.ShardSupervisor` owning
        the worker handles; every visit goes through its supervised
        ``knn`` so crashes are detected, respawned and replayed per
        policy.
    has_edge:
        Per-shard flag: True when the shard holds any edge-positioned
        part, which restricts it to the Euclidean bound.
    object_counts:
        Per-shard object counts (reporting only).
    fallback:
        The unsharded :class:`~repro.engine.QueryEngine` used to
        answer whole queries when a shard is unavailable under the
        ``respawn``/``failover`` policies (None disables failover).

    Thread safety: the router holds no per-query mutable state; the
    stats counters are updated under a lock, and each worker handle
    serializes its own pipe.  Any number of serving threads may call
    :meth:`knn` concurrently -- that is precisely how the process
    parallelism is harvested.
    """

    def __init__(
        self,
        index,
        shard_map,
        supervisor,
        has_edge: list[bool],
        object_counts: list[int],
        fallback=None,
    ) -> None:
        self.index = index
        self.network = index.network
        self.embedding = index.embedding
        self.shard_map = shard_map
        self.supervisor = supervisor
        self.fallback = fallback
        self.has_edge = list(has_edge)
        self.object_counts = list(object_counts)
        #: Global lower-bound slope: network distance >= slope * Euclidean.
        self._slope = self.network.min_euclidean_ratio()
        #: The populated shard ids -- fixed at construction; respawns
        #: swap worker *handles*, never the shard set.
        self.shards = sorted(supervisor.workers)
        self._cover_blocks = {
            shard: shard_map.cover_blocks(shard) for shard in self.shards
        }
        self._cover_rects = {
            shard: [
                self.embedding.block_world_rect(code, level)
                for code, level in blocks
            ]
            for shard, blocks in self._cover_blocks.items()
        }
        self.stats = RouterStats()
        self._stats_lock = threading.Lock()

    @property
    def workers(self) -> dict:
        """The live worker handles (delegates to the supervisor)."""
        return self.supervisor.workers

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def euclid_bound(self, shard: int, point) -> float:
        """Euclidean lower bound on the distance to anything in ``shard``."""
        rects = self._cover_rects[shard]
        mindist = min(r.min_distance_to_point(point) for r in rects)
        return self._slope * mindist

    def lambda_prunable(
        self, shard: int, anchors, point, bound: float
    ) -> tuple[bool, int]:
        """Can ``shard`` be skipped given the current k-th distance?

        Per cover block, an object in the block is at least
        ``max(lambda(block), slope * MINDIST(point, block))`` away; the
        shard is prunable when that exceeds ``bound`` for *every*
        block.  Two shortcuts keep this cheap: blocks already past the
        Euclidean bound skip their quadtree probes entirely, and the
        scan stops at the first block that cannot be pruned (the
        common case for nearby shards).  Returns ``(prunable,
        quadtree_probes)``.  Sound only for shards whose objects are
        all vertex-positioned -- the lambda term bounds distances to
        *vertices*.  ``anchors`` holds ``(vertex, offset, column)``
        triples, the column being ``index.bound_column(vertex)``
        computed once per query.
        """
        probes = 0
        for (code, level), rect in zip(
            self._cover_blocks[shard], self._cover_rects[shard], strict=True
        ):
            if self._slope * rect.min_distance_to_point(point) > bound:
                continue
            lam = math.inf
            for anchor, offset, column in anchors:
                lam = min(
                    lam,
                    offset
                    + self.index.block_lower_bound(
                        anchor, code, level, account=False, column=column
                    ),
                )
                probes += 1
                if lam <= bound:
                    return False, probes
            if lam <= bound:
                return False, probes
        return True, probes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knn(
        self,
        query,
        k: int,
        variant: str = "knn",
        trace=None,
        time_cap: float | None = None,
    ) -> KNNResult:
        """One exact kNN query over the sharded object set.

        ``query`` accepts the same forms as
        :meth:`repro.engine.QueryEngine.knn` (vertex id, network
        position, or free :class:`~repro.geometry.point.Point`);
        ``variant`` picks each worker's search strategy and never
        changes the answer (workers always refine to exact distances,
        in network-weight units).  The result is sorted by
        ``(distance, oid)``.

        ``trace`` records a ``plan`` span for the shard ordering/prune
        accounting and one ``shard:<id>`` span per *visited* worker
        (pruned shards leave no span), with each worker's own spans
        grafted underneath -- the cross-process half of a request
        trace.  Tracing only observes: the visit order, bounds and
        answers are identical with it on or off.

        ``time_cap`` bounds total execution: the remaining budget is
        forwarded to each visited worker and
        :class:`DeadlineExceeded` is raised the moment it runs out.
        A dead shard is handled per the supervisor's policy (see the
        module docstring); only the ``error`` policy lets
        :class:`ShardUnavailable` escape.
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
        point = location_point(self.network, position)
        anchors = source_anchors(self.network, position)

        with trace.span("plan", oracle="silc") as plan_span:
            order = sorted(
                (self.euclid_bound(shard, point), shard) for shard in self.shards
            )
        candidates: dict[int, float] = {}
        anchor_columns = None  # built on the first lambda bound
        worker_stats: list[QueryStats] = []
        degraded_shards: list[int] = []
        visited = pruned_e = pruned_l = probes = duplicates = 0

        def dk() -> float:
            if len(candidates) < k:
                return math.inf
            return sorted(candidates.values())[k - 1]

        def remaining() -> float | None:
            if time_cap is None:
                return None
            left = time_cap - (perf_counter() - t_start)
            if left <= 0:
                raise DeadlineExceeded(
                    f"query exceeded its {time_cap:.3f}s execution budget "
                    f"after visiting {visited} shard(s)"
                )
            return left

        for i, (euclid, shard) in enumerate(order):
            bound = dk()
            if euclid > bound:
                # Bounds are visited in ascending Euclidean order and
                # Dk only shrinks: every remaining shard is pruned too.
                pruned_e += len(order) - i
                break
            if not math.isinf(bound) and not self.has_edge[shard]:
                if anchor_columns is None:
                    anchor_columns = [
                        (a, off, self.index.bound_column(a)) for a, off in anchors
                    ]
                prunable, n = self.lambda_prunable(
                    shard, anchor_columns, point, bound
                )
                probes += n
                if prunable:
                    pruned_l += 1
                    continue
            budget = remaining()
            # The current global Dk caps the worker's search: a shard
            # that cannot improve the answer returns almost instantly
            # instead of grinding through a full local search.
            try:
                with trace.span(f"shard:{shard}", shard=shard) as shard_span:
                    pairs, stats, wspans = self.supervisor.knn(
                        shard, position, k, variant, bound,
                        trace=trace, time_cap=budget,
                    )
                    if wspans is not None:
                        trace.adopt(wspans, parent=shard_span)
                    shard_span.add_stats(stats)
            except ShardUnavailable:
                policy = self.supervisor.policy.on_failure
                if policy == "error":
                    raise
                if policy == "degrade":
                    degraded_shards.append(shard)
                    continue
                # respawn (retries exhausted) / failover: answer the
                # whole query on the unsharded engine -- same exact
                # search, full object set, so the answer is complete.
                if self.fallback is None:
                    raise
                return self._failover(
                    query, k, variant, trace, remaining(), len(order)
                )
            visited += 1
            worker_stats.append(stats)
            for oid, distance in pairs:
                if oid in candidates:
                    duplicates += 1
                    candidates[oid] = min(candidates[oid], distance)
                else:
                    candidates[oid] = distance

        # The prune accounting lands on the (already closed) plan span
        # -- the totals are only known after the visit loop, and spans
        # accept counters until the trace is sealed.
        plan_span.count(
            shards_considered=len(order),
            shards_visited=visited,
            shards_pruned=pruned_e + pruned_l,
            bound_probes=probes,
        )
        top = sorted(candidates.items(), key=lambda item: (item[1], item[0]))[:k]
        neighbors = [
            Neighbor(oid, DistanceInterval.exact(d), distance=d)
            for oid, d in top
        ]
        merged = reduce(QueryStats.add, worker_stats, QueryStats())
        merged.extras["shards_considered"] = len(order)
        merged.extras["shards_visited"] = visited
        merged.extras["shards_pruned"] = pruned_e + pruned_l
        if degraded_shards:
            merged.extras["degraded_shards"] = degraded_shards
            self.supervisor.record(degraded_responses=1)
        with self._stats_lock:
            s = self.stats
            s.queries += 1
            s.shards_considered += len(order)
            s.shards_visited += visited
            s.shards_pruned_euclid += pruned_e
            s.shards_pruned_lambda += pruned_l
            s.bound_probes += probes
            s.candidates += len(candidates)
            s.duplicates_merged += duplicates
        return KNNResult(neighbors=neighbors, stats=merged, ordered=True)

    def _failover(
        self, query, k: int, variant: str, trace, budget, considered: int
    ) -> KNNResult:
        """Answer the whole query on the unsharded fallback engine.

        Used when a shard stays down under the ``respawn``/``failover``
        policies: the fallback runs the identical exact search over
        the *full* object set, so the answer matches what the healthy
        shard tier would have returned -- only latency moves.
        """
        self.supervisor.record(failovers=1)
        with trace.span("failover", oracle="silc"):
            result = self.fallback.knn(
                query, k, variant=variant, exact=True,
                trace=trace, time_cap=budget,
            )
        result.stats.extras["failover"] = True
        with self._stats_lock:
            s = self.stats
            s.queries += 1
            s.shards_considered += considered
            s.candidates += len(result.neighbors)
        return result

    def knn_batch(
        self,
        queries: Iterable,
        k: int,
        variant: str = "knn",
        trace=None,
        time_cap: float | None = None,
    ) -> BatchResult:
        """Answer a batch through :meth:`knn`, merging per-query stats.

        ``time_cap`` bounds the *whole batch*: each query receives the
        budget that remains when it starts.
        """
        return run_batch(
            queries,
            lambda query, budget: self.knn(
                query, k, variant=variant, trace=trace, time_cap=budget
            ),
            time_cap=time_cap,
        )
