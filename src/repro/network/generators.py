"""Synthetic spatial-network generators.

The paper evaluates on a real road map (the US eastern seaboard,
91,113 vertices).  That dataset is not available offline, so these
generators synthesize networks that preserve the structural properties
every claim in the paper depends on:

* **planarity** -- shortest-path regions of planar networks are
  spatially contiguous, which is what makes shortest-path quadtrees
  small (the O(N^1.5) storage claim);
* **low average degree** (roads average ~2.5 edges per intersection);
* **near-metric weights** -- edge weight >= Euclidean length, with the
  ratio bounded, so Euclidean distance is a meaningful lower bound
  (required by IER and by the lambda-interval machinery);
* **road-class structure** -- a fast-arterial subset creates the path
  coherence (shared path prefixes) that SILC compresses.

Three generators, all strongly connected by construction and fully
deterministic under a seed:

* :func:`grid_network` -- a jittered lattice (the canonical worst/best
  case used in the paper's complexity analysis, p.16);
* :func:`random_planar_network` -- Delaunay triangulation of random
  points (denser, degree ~6: an upper bound for quadtree sizes);
* :func:`road_like_network` -- the evaluation workhorse: Delaunay
  skeleton thinned to road-like degree with an arterial-highway tier.
"""

from __future__ import annotations

import numpy as np

from repro.network.errors import GraphConstructionError
from repro.network.graph import SpatialNetwork


def _both_directions(
    edges: list[tuple[int, int, float]]
) -> list[tuple[int, int, float]]:
    """Duplicate undirected edges into both directed orientations."""
    out = []
    for u, v, w in edges:
        out.append((u, v, w))
        out.append((v, u, w))
    return out


def grid_network(
    rows: int,
    cols: int,
    jitter: float = 0.0,
    weight_noise: float = 0.0,
    seed: int = 0,
) -> SpatialNetwork:
    """A 4-connected lattice of ``rows x cols`` intersections.

    Parameters
    ----------
    jitter:
        Vertex positions are displaced uniformly in
        ``[-jitter/2, jitter/2]`` (units of grid spacing 1.0).  Keep
        below ~0.4 to preserve planarity of the lattice edges.
    weight_noise:
        Edge weight is Euclidean length times
        ``1 + U[0, weight_noise]``: zero gives pure metric weights.
    """
    if rows < 2 or cols < 2:
        raise GraphConstructionError("grid needs at least 2 rows and 2 columns")
    if not (0.0 <= jitter < 1.0):
        raise GraphConstructionError("jitter must be in [0, 1)")
    if weight_noise < 0.0:
        raise GraphConstructionError("weight_noise must be non-negative")

    rng = np.random.default_rng(seed)
    gy, gx = np.mgrid[0:rows, 0:cols]
    xs = gx.ravel().astype(float)
    ys = gy.ravel().astype(float)
    if jitter > 0.0:
        xs = xs + rng.uniform(-jitter / 2, jitter / 2, xs.size)
        ys = ys + rng.uniform(-jitter / 2, jitter / 2, ys.size)

    def vid(r: int, c: int) -> int:
        return r * cols + c

    undirected: list[tuple[int, int, float]] = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 < rows and c2 < cols:
                    u, v = vid(r, c), vid(r2, c2)
                    length = float(np.hypot(xs[u] - xs[v], ys[u] - ys[v]))
                    w = length * (1.0 + rng.uniform(0.0, weight_noise))
                    undirected.append((u, v, w))

    return SpatialNetwork(xs, ys, _both_directions(undirected))


def _delaunay_edges(xs: np.ndarray, ys: np.ndarray) -> set[tuple[int, int]]:
    """Undirected edge set of the Delaunay triangulation of the points."""
    from scipy.spatial import Delaunay

    tri = Delaunay(np.column_stack([xs, ys]))
    edges: set[tuple[int, int]] = set()
    for simplex in tri.simplices:
        a, b, c = int(simplex[0]), int(simplex[1]), int(simplex[2])
        for u, v in ((a, b), (b, c), (a, c)):
            edges.add((min(u, v), max(u, v)))
    return edges


def random_planar_network(
    n: int,
    seed: int = 0,
    weight_noise: float = 0.3,
) -> SpatialNetwork:
    """Delaunay triangulation of ``n`` uniform random points.

    Delaunay graphs are planar and connected, so the result is strongly
    connected once both edge directions are added.  Average degree ~6
    makes this the densest of the three generator families.
    """
    if n < 3:
        raise GraphConstructionError("Delaunay needs at least 3 points")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 100.0, n)
    ys = rng.uniform(0.0, 100.0, n)
    undirected = []
    for u, v in sorted(_delaunay_edges(xs, ys)):
        length = float(np.hypot(xs[u] - xs[v], ys[u] - ys[v]))
        w = length * (1.0 + rng.uniform(0.0, weight_noise))
        undirected.append((u, v, w))
    return SpatialNetwork(xs, ys, _both_directions(undirected))


def road_like_network(
    n: int,
    seed: int = 0,
    extra_edge_fraction: float = 0.25,
    arterial_fraction: float = 0.12,
    local_penalty: float = 1.6,
) -> SpatialNetwork:
    """The evaluation substrate: a synthetic road network.

    Construction:

    1. scatter ``n`` intersections as a jittered grid (road networks
       are near-uniform in density, not Poisson);
    2. Delaunay-triangulate and keep the Euclidean minimum spanning
       tree (guaranteeing connectivity) plus a random
       ``extra_edge_fraction`` of the remaining Delaunay edges -- this
       thins average degree to the ~2.4-3 observed in road data;
    3. promote the longest ``arterial_fraction`` of edges to
       "arterials" with weight = Euclidean length (fast roads), while
       local roads pay ``local_penalty`` times their length.

    The two-tier weights reproduce the *path coherence* of real road
    networks (distant destinations share arterial prefixes), which is
    the property the shortest-path quadtree compresses.
    """
    if n < 4:
        raise GraphConstructionError("road-like network needs at least 4 vertices")
    if not (0.0 <= extra_edge_fraction <= 1.0):
        raise GraphConstructionError("extra_edge_fraction must be in [0, 1]")
    if not (0.0 <= arterial_fraction <= 1.0):
        raise GraphConstructionError("arterial_fraction must be in [0, 1]")
    if local_penalty < 1.0:
        raise GraphConstructionError("local_penalty must be >= 1")

    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n)))
    gy, gx = np.mgrid[0:side, 0:side]
    xs = gx.ravel().astype(float)[:n]
    ys = gy.ravel().astype(float)[:n]
    xs = xs + rng.uniform(-0.35, 0.35, n)
    ys = ys + rng.uniform(-0.35, 0.35, n)

    dedges = sorted(_delaunay_edges(xs, ys))
    lengths = np.array(
        [np.hypot(xs[u] - xs[v], ys[u] - ys[v]) for u, v in dedges]
    )

    # Euclidean MST over the Delaunay edges guarantees connectivity.
    row = np.array([e[0] for e in dedges])
    col = np.array([e[1] for e in dedges])
    from scipy import sparse
    from scipy.sparse import csgraph

    graph = sparse.csr_matrix((lengths, (row, col)), shape=(n, n))
    mst = csgraph.minimum_spanning_tree(graph).tocoo()
    mst_edges = {
        (min(int(r), int(c)), max(int(r), int(c)))
        for r, c in zip(mst.row, mst.col, strict=True)
    }

    keep: list[int] = []
    for i, e in enumerate(dedges):
        if e in mst_edges or rng.random() < extra_edge_fraction:
            keep.append(i)

    kept_lengths = lengths[keep]
    if arterial_fraction > 0 and kept_lengths.size:
        cutoff = float(np.quantile(kept_lengths, 1.0 - arterial_fraction))
    else:
        cutoff = np.inf

    undirected: list[tuple[int, int, float]] = []
    for i in keep:
        u, v = dedges[i]
        length = float(lengths[i])
        w = length if length >= cutoff else length * local_penalty
        undirected.append((u, v, w))

    return SpatialNetwork(xs, ys, _both_directions(undirected))
