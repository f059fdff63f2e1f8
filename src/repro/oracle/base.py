"""The :class:`DistanceOracle` interface every query backend implements.

The paper's SILC encoding is one point in the distance-oracle design
space: it trades O(N^1.5) precomputed storage for incremental,
progressively refinable browsing.  Pruned-labelling indexes (Farhan et
al., arXiv:1812.02363; hop-doubling labels, arXiv:1403.0779) occupy a
different point -- exact point-to-point distances in a handful of
label scans, at a higher build cost and with no incremental-browsing
capability.  INE needs no precomputation at all and pays a full
Dijkstra ball per query.

This module pins down the surface the rest of the stack (``QueryEngine``,
the serving layer, the CLI) programs against, so backends are
interchangeable per query:

* ``distance(u, v)`` -- exact vertex-to-vertex network distance;
* ``anchored_distance(src_anchors, t_anchors)`` -- the location-aware
  generalization every kNN refinement step actually needs (a query
  part-way along an edge reduces to weighted anchor vertices);
* ``knn(query, k)`` -- the k nearest objects of the oracle's bound
  object index;
* a capability/cost descriptor (:class:`OracleInfo`) the planner's
  cost model reads;
* ``save``/``load`` for oracles with persistent state.

:class:`DijkstraOracle` is the degenerate backend: no precomputed
state, distances by (multi-seed, early-exit) Dijkstra.  It is both the
reference implementation the property tests compare against and the
engine behind IER refinement when no better oracle is loaded.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.network.dijkstra import IncrementalDijkstra
from repro.query.results import KNNResult
from repro.query.stats import QueryStats

#: Backend names accepted everywhere a caller selects an oracle
#: (engine ctor, ``Request.oracle``, the ``--oracle`` CLI flag).
#: ``auto`` routes each query through the cost-based planner.
ORACLE_CHOICES = ("auto", "silc", "labels", "ine")


@dataclass(frozen=True)
class OracleInfo:
    """Capability/cost descriptor of one backend.

    ``op_unit`` names the backend's counted unit of work -- the unit
    its per-op calibration constant is measured in, and the unit the
    crossover benchmark compares (SILC: refinements; labels: label
    scans; INE: settled vertices).  ``incremental`` marks backends
    that can browse neighbors one at a time without restarting
    (SILC's selling point for large k); ``precomputed`` marks backends
    with build-time state worth persisting.
    """

    name: str
    exact: bool
    op_unit: str
    incremental: bool
    precomputed: bool


class DistanceOracle(ABC):
    """One interchangeable network-distance backend.

    Implementations are bound to one network (and, for ``knn``, one
    object index) at construction.  All distances are in
    network-weight units; unreachable pairs return ``math.inf``.
    """

    #: Filled by subclasses.
    info: OracleInfo

    @property
    def name(self) -> str:
        return self.info.name

    @abstractmethod
    def distance(self, source: int, target: int) -> float:
        """Exact network distance between two vertices (inf if unreachable)."""

    @abstractmethod
    def knn(self, query: Any, k: int, **kwargs: Any) -> KNNResult:
        """The k nearest objects of the bound object index."""

    def anchored_distance(
        self,
        src_anchors: Sequence[tuple[int, float]],
        t_anchors: Sequence[tuple[int, float]],
        best: float = math.inf,
        stats: QueryStats | None = None,
        storage: Any = None,
    ) -> float:
        """Exact location-to-location distance via anchor decomposition.

        ``src_anchors``/``t_anchors`` are ``(vertex, offset)`` pairs
        (see :mod:`repro.query.location`); ``best`` seeds the minimum
        with an already-known bound (the same-edge direct segment).
        The default implementation takes the minimum of
        ``distance(u, v)`` over all anchor pairs; backends with a
        cheaper batched form (multi-seed Dijkstra) override it.
        ``storage``/``stats`` let overrides charge their page traffic
        and work counters exactly as the historical in-place code did.
        """
        for sv, s_off in src_anchors:
            for tv, t_off in t_anchors:
                if s_off + t_off >= best:
                    continue
                d = 0.0 if sv == tv else self.distance(sv, tv)
                if math.isfinite(d):
                    best = min(best, s_off + d + t_off)
        return best

    # ------------------------------------------------------------------
    # Persistence (only precomputed oracles override)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        raise NotImplementedError(f"{self.name!r} oracle has no persistent state")

    @classmethod
    def load(cls, path: str | Path, network: Any, mmap: bool = False) -> DistanceOracle:
        raise NotImplementedError(f"{cls.__name__} has no persistent state")


class DijkstraOracle(DistanceOracle):
    """The no-precomputation reference backend.

    ``distance`` runs an early-exit point-to-point Dijkstra;
    ``anchored_distance`` runs ONE multi-seed expansion that settles
    every target anchor (cheaper than an expansion per anchor pair,
    and byte-for-byte the computation IER refinement has always
    performed).  ``knn`` is intentionally unsupported -- INE *is* the
    Dijkstra kNN and lives in :class:`~repro.oracle.silc.INEOracle`.
    """

    info = OracleInfo(
        name="dijkstra",
        exact=True,
        op_unit="settled",
        incremental=False,
        precomputed=False,
    )

    def __init__(self, network: Any) -> None:
        self.network = network

    def distance(self, source: int, target: int) -> float:
        if source == target:
            return 0.0
        return self.anchored_distance([(source, 0.0)], [(target, 0.0)])

    def anchored_distance(
        self,
        src_anchors: Sequence[tuple[int, float]],
        t_anchors: Sequence[tuple[int, float]],
        best: float = math.inf,
        stats: QueryStats | None = None,
        storage: Any = None,
    ) -> float:
        expansion = IncrementalDijkstra(self.network, seeds=src_anchors)
        remaining = {tv for tv, _ in t_anchors}
        while remaining:
            settled = expansion.settle_next()
            if settled is None:
                break
            if storage is not None:
                storage.touch_vertex(settled[0])
            remaining.discard(settled[0])
        if stats is not None:
            stats.settled += expansion.stats.settled
            stats.relaxed += expansion.stats.relaxed
        for tv, t_off in t_anchors:
            if math.isfinite(expansion.dist[tv]):
                best = min(best, expansion.dist[tv] + t_off)
        return best

    def knn(self, query: Any, k: int, **kwargs: Any) -> KNNResult:
        raise NotImplementedError(
            "DijkstraOracle answers distances only; use INEOracle for kNN"
        )
