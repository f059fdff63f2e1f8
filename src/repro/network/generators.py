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

The Delaunay triangulation (Bowyer-Watson with exact predicates) and
the road network's minimum spanning tree (Kruskal) are this module's
own, so generating a network loads no SciPy.  The tests hold both to
``scipy.spatial.Delaunay`` and ``csgraph.minimum_spanning_tree`` on
the generators' point families.
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


#: Shewchuk's static error bounds for the float predicates below: when
#: the computed determinant is further from zero than the bound times
#: its permanent, its sign is exact (IEEE doubles, round to nearest).
_EPS = 2.0**-53
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """+1 if ``a, b, c`` turn counter-clockwise, -1 clockwise, 0 collinear."""
    left = (ax - cx) * (by - cy)
    right = (ay - cy) * (bx - cx)
    det = left - right
    bound = _ORIENT_BOUND * (abs(left) + abs(right))
    if det > bound:
        return 1
    if -det > bound:
        return -1
    # Too close to call in floats: decide in rationals (every float is
    # one).  Imported here: ``fractions`` loads ``decimal``, and every
    # process that imports ``repro.network`` (a server too) would hold it.
    from fractions import Fraction

    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    exact = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (exact > 0) - (exact < 0)


def _in_circle(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float, dx: float, dy: float
) -> bool:
    """Whether ``d`` lies strictly inside the circle through counter-clockwise ``a, b, c``."""
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
    bound = _INCIRCLE_BOUND * (
        (abs(bc) + abs(cb)) * alift + (abs(ca) + abs(ac)) * blift + (abs(ab) + abs(ba)) * clift
    )
    if det > bound:
        return True
    if -det > bound:
        return False
    # Too close to call in floats: decide in rationals, as _orient does.
    from fractions import Fraction

    ax, ay, bx, by, cx, cy, dx, dy = map(Fraction, (ax, ay, bx, by, cx, cy, dx, dy))
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    exact = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return exact > 0


def _hilbert_order(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Point ids along a Hilbert curve over their bounding square (a
    2^16 x 2^16 grid).

    Inserting in this order keeps each point near the last one, so the
    walk that locates it is a few triangles long.
    """
    bits = 16
    side = (1 << bits) - 1
    span = max(float(np.ptp(xs)), float(np.ptp(ys))) or 1.0
    x = ((xs - xs.min()) * (side / span)).astype(np.int64)
    y = ((ys - ys.min()) * (side / span)).astype(np.int64)
    d = np.zeros(xs.size, dtype=np.int64)
    s = 1 << (bits - 1)
    while s:
        rx = (x & s) > 0
        ry = (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        flip = ~ry & rx
        x = np.where(flip, side - x, x)
        y = np.where(flip, side - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return np.argsort(d, kind="stable").tolist()


def _delaunay_edges(xs: np.ndarray, ys: np.ndarray) -> set[tuple[int, int]]:
    """Undirected edge set of the Delaunay triangulation of the points.

    Bowyer-Watson: insert the points one at a time (along a Hilbert
    curve), each time deleting the triangles whose circumcircle holds
    the new point and joining it to the boundary of that cavity.  A
    ghost vertex ``n`` closes the convex hull: every hull edge ``(a,
    b)`` has a ghost triangle ``(b, a, n)`` on its outer side, which a
    point conflicts with when it lies beyond the edge (or strictly
    inside it), so a point outside the hull needs no special case.
    The triangulation is a dict from each directed edge ``u * (n + 1)
    + v`` to the third vertex of the counter-clockwise triangle on its
    left.  The predicates are exact (a float filter, then
    :class:`~fractions.Fraction`), so the result is the Delaunay
    triangulation of the points as given, the one
    ``scipy.spatial.Delaunay`` returns for points in general position.
    """
    n = xs.size
    X, Y = xs.tolist(), ys.tolist()
    order = _hilbert_order(xs, ys)
    ghost, m = n, n + 1
    a = order[0]
    b = next((v for v in order if (X[v], Y[v]) != (X[a], Y[a])), None)
    c = None
    if b is not None:
        for v in order:
            if v == a or v == b:
                continue  # a zero turn, which only the rational path decides
            turn = _orient(X[a], Y[a], X[b], Y[b], X[v], Y[v])
            if turn:
                b, c = (b, v) if turn > 0 else (v, b)
                break
    if c is None:
        raise GraphConstructionError("Delaunay needs three points that are not collinear")

    adj: dict[int, int] = {}
    for u, v, w in ((a, b, c), (b, a, ghost), (c, b, ghost), (a, c, ghost)):
        adj[u * m + v], adj[v * m + w], adj[w * m + u] = w, u, v
    last = a * m + b  # an edge of a real triangle: where the next walk starts

    def beyond_hull(s: int, t: int, px: float, py: float) -> bool:
        """Whether ``(px, py)`` conflicts with the ghost triangle beyond hull edge ``s -> t``."""
        turn = _orient(X[s], Y[s], X[t], Y[t], px, py)
        if turn:
            return turn > 0
        sx, sy, tx, ty = X[s], Y[s], X[t], Y[t]
        return min(sx, tx) < px < max(sx, tx) or min(sy, ty) < py < max(sy, ty)

    for u in order:
        if u == a or u == b or u == c:
            continue
        px, py = X[u], Y[u]
        # Walk from the last new triangle towards the point, crossing any
        # edge it lies strictly beyond, until it is inside a triangle or
        # past the hull.  A triangle (p, q, r) is entered across p -> q,
        # which the point lies to the left of, so only the other two
        # edges are tested.
        p, q = divmod(last, m)
        if _orient(X[p], Y[p], X[q], Y[q], px, py) < 0:
            p, q = q, p
        r = adj[p * m + q]
        while r != ghost:
            if _orient(X[q], Y[q], X[r], Y[r], px, py) < 0:
                p = r
            elif _orient(X[r], Y[r], X[p], Y[p], px, py) < 0:
                q = r
            else:
                break
            r = adj[p * m + q]
        if r != ghost and (px, py) in ((X[p], Y[p]), (X[q], Y[q]), (X[r], Y[r])):
            continue  # a duplicate point joins nothing
        del adj[p * m + q], adj[q * m + r], adj[r * m + p]
        cavity = [(p, q), (q, r), (r, p)]
        while cavity:
            s, t = cavity.pop()
            key = t * m + s
            x = adj[key]  # triangle (t, s, x) lies across s -> t from the point
            if x == ghost:
                conflict = beyond_hull(t, s, px, py)
            elif s == ghost:
                conflict = beyond_hull(x, t, px, py)
            elif t == ghost:
                conflict = beyond_hull(s, x, px, py)
            else:
                conflict = _in_circle(X[t], Y[t], X[s], Y[s], X[x], Y[x], px, py)
            if conflict:
                del adj[key], adj[s * m + x], adj[x * m + t]
                cavity.append((s, x))
                cavity.append((x, t))
            else:
                adj[u * m + s], adj[s * m + t], adj[t * m + u] = t, u, s
                if s != ghost and t != ghost:
                    last = u * m + s
    edges: set[tuple[int, int]] = set()
    for key in adj:
        s, t = divmod(key, m)
        if s < t < ghost:
            edges.add((s, t))
    return edges


def _kruskal(n: int, edges: list[tuple[int, int]], lengths: np.ndarray) -> set[tuple[int, int]]:
    """The minimum spanning forest of ``edges``: Kruskal, shortest first
    (equal lengths in the order of ``edges``)."""
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree: set[tuple[int, int]] = set()
    for i in np.argsort(lengths, kind="stable").tolist():
        u, v = edges[i]
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            tree.add(edges[i])
            if len(tree) == n - 1:
                break
    return tree


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
    ends = np.array(dedges)
    lengths = np.hypot(xs[ends[:, 0]] - xs[ends[:, 1]], ys[ends[:, 0]] - ys[ends[:, 1]])

    # Euclidean MST over the Delaunay edges guarantees connectivity.
    mst_edges = _kruskal(n, dedges, lengths)

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
