"""Pruned-landmark 2-hop labelling: the second distance oracle.

The pruned-labelling family (Akiba et al., SIGMOD 2013; pruned
highway labelling, Farhan et al., arXiv:1812.02363; hop-doubling,
arXiv:1403.0779) answers exact point-to-point distances by
intersecting two sorted label arrays -- microseconds per query --
at a build cost of one *pruned* Dijkstra per vertex.  On the
small-k / repeated-pair workloads where SILC browsing must still pay
a best-first search per query, labels win outright; on large-k
incremental browsing SILC wins.  The planner arbitrates.

Structure (directed 2-hop cover): every vertex ``u`` carries

* ``label_out[u]`` -- sorted ``(hub_rank, dist(u -> hub))`` pairs,
* ``label_in[u]``  -- sorted ``(hub_rank, dist(hub -> u))`` pairs,

and ``dist(u, v) = min over common hubs h of out[u][h] + in[v][h]``.
Hubs are processed in degree order (busiest intersections first); a
label entry is added only when the hubs already processed cannot
certify the distance -- the pruning that keeps labels small (a few
dozen entries per vertex on road-like networks, against the naive
O(N) of full landmark tables).

Storage follows the PR-4 :class:`~repro.silc.store.FlatStore` idiom:
six flat numpy columns (per-side offsets + concatenated hub/dist
arrays), saved as one ``.npy`` each so ``load(..., mmap=True)`` maps
them off the same directory layout as the SILC index.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Sequence

import numpy as np

from repro.integrity import (
    atomic_directory,
    check_dtypes,
    checked_load,
    verify_manifest,
)
from repro.network.graph import SpatialNetwork
from repro.query.results import KNNResult
from repro.query.stats import QueryStats, counted_clock

#: Column files of one saved labelling, in canonical order.
LABEL_COLUMNS = (
    "out_offsets", "out_hubs", "out_dists",
    "in_offsets", "in_hubs", "in_dists",
)

LABEL_DTYPES = {
    "out_offsets": np.int64,
    "out_hubs": np.int32,
    "out_dists": np.float64,
    "in_offsets": np.int64,
    "in_hubs": np.int32,
    "in_dists": np.float64,
}

#: Subdirectory name the labelling columns live in when persisted
#: alongside a directory-layout SILC index.
LABELS_SUBDIR = "labels"


@dataclass(frozen=True)
class LabellingBuildStats:
    """Recorded at build time; the planner's cost model reads the sizes."""

    entries_out: int
    entries_in: int
    mean_out: float
    mean_in: float
    build_seconds: float


class PrunedLabellingOracle:
    """Exact 2-hop labelling distances: the ``labels`` backend.

    Construct with :meth:`build` (pruned Dijkstra from degree-ordered
    hubs) or :meth:`load` (flat columns off disk, optionally
    memory-mapped).  ``knn`` answers through labelling-backed IER:
    objects scanned in Euclidean order, each candidate's exact network
    distance resolved by label intersection instead of a Dijkstra
    search -- the oracle must be bound to an object index first
    (:meth:`bind_objects`, done automatically by ``QueryEngine``).
    """

    def __init__(
        self,
        network: SpatialNetwork,
        columns: dict[str, np.ndarray],
        object_index=None,
        build_stats: LabellingBuildStats | None = None,
    ) -> None:
        n = network.num_vertices
        for name in LABEL_COLUMNS:
            if name not in columns:
                raise ValueError(f"missing labelling column {name!r}")
        if columns["out_offsets"].shape != (n + 1,) or columns[
            "in_offsets"
        ].shape != (n + 1,):
            raise ValueError(
                f"labelling offsets do not match the network "
                f"({n} vertices)"
            )
        check_dtypes(columns, LABEL_DTYPES, rebuild="repro build-labels")
        self.network = network
        self.out_offsets = columns["out_offsets"]
        self.out_hubs = columns["out_hubs"]
        self.out_dists = columns["out_dists"]
        self.in_offsets = columns["in_offsets"]
        self.in_hubs = columns["in_hubs"]
        self.in_dists = columns["in_dists"]
        #: The columns as memoryviews, in ``LABEL_COLUMNS`` order: what
        #: ``_merge`` reads (native scalars per entry, nothing copied).
        self._views = tuple(memoryview(columns[name]) for name in LABEL_COLUMNS)
        self.object_index = object_index
        self.build_stats = build_stats

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: SpatialNetwork,
        object_index=None,
        progress: Callable[[int, int], None] | None = None,
    ) -> PrunedLabellingOracle:
        """Run the pruned-landmark precompute.

        One forward and one backward pruned Dijkstra per vertex, in
        descending degree order.  On a :attr:`~SpatialNetwork.symmetric`
        network every in-edge list equals the out-edge list, so hub
        *i*'s backward search would repeat its forward one step for step
        (by induction over the hubs, the in- and out-labels it prunes
        with are equal too): the forward search runs alone and the
        in-labels are the out-labels.  Unlike the SILC build this does
        NOT require strong connectivity: unreachable pairs simply share
        no hub and answer ``inf``.
        """
        t0 = counted_clock()
        n = network.num_vertices
        out_edges = network.out_edges
        symmetric = network.symmetric
        in_edges = out_edges if symmetric else network.in_edges
        order = sorted(
            range(n), key=lambda v: (-(len(out_edges[v]) + len(in_edges[v])), v)
        )
        # Per-vertex labels as parallel rank/dist lists; ranks are
        # appended in increasing order (hub i is processed before hub
        # i+1), so every list stays sorted by construction.
        out_rank: list[list[int]] = [[] for _ in range(n)]
        out_dist: list[list[float]] = [[] for _ in range(n)]
        if symmetric:
            in_rank, in_dist = out_rank, out_dist
        else:
            in_rank = [[] for _ in range(n)]
            in_dist = [[] for _ in range(n)]
        # Scratch: hub-rank -> distance table of the current hub's own
        # labels, for O(|label|) prune tests.
        tmp = [math.inf] * n

        heappop, heappush = heapq.heappop, heapq.heappush

        def pruned_sssp(hub_rank, hub, hub_label_r, hub_label_d,
                        settle_r, settle_d, edges):
            """One pruned Dijkstra over ``edges`` (out- or in-edge lists);
            adds (hub_rank, d) to settle_* labels."""
            for r, d in zip(hub_label_r, hub_label_d, strict=True):
                tmp[r] = d
            dist = {hub: 0.0}
            done = set()
            heap = [(0.0, hub)]
            while heap:
                d, u = heappop(heap)
                if u in done:
                    continue
                done.add(u)
                pruned = False
                for r, dr in zip(settle_r[u], settle_d[u], strict=True):
                    if tmp[r] + dr <= d:
                        pruned = True
                        break
                if pruned:
                    continue
                settle_r[u].append(hub_rank)
                settle_d[u].append(d)
                for v, w in edges[u]:
                    nd = d + w
                    if nd < dist.get(v, math.inf):
                        dist[v] = nd
                        heappush(heap, (nd, v))
            for r in hub_label_r:
                tmp[r] = math.inf

        for i, h in enumerate(order):
            # Forward run: d(h -> u) lands in label_in[u]; the prune
            # test asks whether out[h] /\ in[u] already covers it.
            pruned_sssp(i, h, out_rank[h], out_dist[h],
                        in_rank, in_dist, out_edges)
            # Backward run: d(u -> h) lands in label_out[u].
            if not symmetric:
                pruned_sssp(i, h, in_rank[h], in_dist[h],
                            out_rank, out_dist, in_edges)
            if progress is not None:
                progress(i + 1, n)

        def flatten(ranks, dists, prefix):
            sizes = np.array([len(r) for r in ranks], dtype=np.int64)
            offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
            hubs = np.fromiter(
                (r for rs in ranks for r in rs),
                dtype=LABEL_DTYPES[f"{prefix}_hubs"],
                count=int(sizes.sum()),
            )
            flat = np.fromiter(
                (d for ds in dists for d in ds),
                dtype=np.float64,
                count=int(sizes.sum()),
            )
            return {
                f"{prefix}_offsets": offsets,
                f"{prefix}_hubs": hubs,
                f"{prefix}_dists": flat,
            }

        columns = flatten(out_rank, out_dist, "out")
        columns.update(flatten(in_rank, in_dist, "in"))
        e_out = int(columns["out_hubs"].size)
        e_in = int(columns["in_hubs"].size)
        stats = LabellingBuildStats(
            entries_out=e_out,
            entries_in=e_in,
            mean_out=e_out / n,
            mean_in=e_in / n,
            build_seconds=counted_clock() - t0,
        )
        return cls(network, columns, object_index=object_index, build_stats=stats)

    def bind_objects(self, object_index) -> PrunedLabellingOracle:
        """Attach the object index ``knn`` answers over (returns self)."""
        self.object_index = object_index
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _merge(self, source: int, target: int) -> tuple[float, int]:
        """Label intersection: ``(distance, entries scanned)``."""
        out_offsets, out_hubs, out_dists, in_offsets, in_hubs, in_dists = self._views
        i = out_offsets[source]
        i_end = out_offsets[source + 1]
        j = in_offsets[target]
        j_end = in_offsets[target + 1]
        best = math.inf
        scanned = 0
        while i < i_end and j < j_end:
            scanned += 1
            a = out_hubs[i]
            b = in_hubs[j]
            if a == b:
                total = out_dists[i] + in_dists[j]
                if total < best:
                    best = total
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best, scanned

    def distance(self, source: int, target: int) -> float:
        self.network.check_vertex(source)
        self.network.check_vertex(target)
        if source == target:
            return 0.0
        return self._merge(source, target)[0]

    def anchored_distance(
        self,
        src_anchors: Sequence[tuple[int, float]],
        t_anchors: Sequence[tuple[int, float]],
        best: float = math.inf,
        stats: QueryStats | None = None,
        storage=None,
    ) -> float:
        scanned_total = 0
        for sv, s_off in src_anchors:
            for tv, t_off in t_anchors:
                if s_off + t_off >= best:
                    continue
                if sv == tv:
                    d = 0.0
                else:
                    d, scanned = self._merge(sv, tv)
                    scanned_total += scanned
                if math.isfinite(d):
                    best = min(best, s_off + d + t_off)
        if stats is not None:
            stats.label_scans += scanned_total
        return best

    def knn(self, query, k: int, **kwargs) -> KNNResult:
        """Labelling-backed IER (the SILC knobs ``variant``/``exact``/
        ``time_budget`` are ignored: the answer is always exact and
        sorted, from a bounded number of label scans)."""
        if self.object_index is None:
            raise RuntimeError(
                "PrunedLabellingOracle.knn needs an object index; call "
                "bind_objects(object_index) first"
            )
        from repro.query.ier import ier_knn

        return ier_knn(self.object_index, query, k, oracle=self)

    # ------------------------------------------------------------------
    # Introspection (the planner's cost terms)
    # ------------------------------------------------------------------
    def mean_label_size(self) -> float:
        """Mean out+in label entries per vertex (scans per merge bound)."""
        n = self.network.num_vertices
        return float(self.out_hubs.size + self.in_hubs.size) / n

    def column_arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in LABEL_COLUMNS}

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the label columns as one ``.npy`` per column.

        ``path`` is a directory (created if missing) -- conventionally
        the ``labels/`` subdirectory of a directory-layout SILC index,
        so one index directory carries both backends side by side.

        The write is crash-safe: columns are staged in a temporary
        sibling, a checksum ``MANIFEST.json`` is written last, and the
        directory is published atomically with ``os.replace`` -- an
        interrupted ``repro build-labels`` leaves the previous
        labelling (or nothing), never a half-written one.
        """
        with atomic_directory(path) as tmp:
            for name, array in self.column_arrays().items():
                np.save(tmp / f"{name}.npy", array)

    @classmethod
    def load(
        cls, path, network: SpatialNetwork, mmap: bool = False
    ) -> PrunedLabellingOracle:
        """Restore a saved labelling for the same network.

        ``mmap=True`` memory-maps the hub/dist columns, so label pages
        fault into the process on first scan -- the same contract as
        :meth:`SILCIndex.load(mmap=True) <repro.silc.SILCIndex.load>`.

        The saved manifest is verified first, every byte on both
        paths; a truncated or corrupted column raises
        :class:`~repro.errors.CorruptIndexError` naming it before any
        query can run.
        """
        directory = Path(path)
        mode = "r" if mmap else None
        verify_manifest(directory)
        columns = {
            name: checked_load(directory, f"{name}.npy", mmap_mode=mode)
            for name in LABEL_COLUMNS
        }
        return cls(network, columns)

    @staticmethod
    def saved_at(path) -> bool:
        """True when ``path`` holds a complete saved labelling."""
        directory = Path(path)
        return all(
            (directory / f"{name}.npy").exists() for name in LABEL_COLUMNS
        )
