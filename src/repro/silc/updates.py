"""Localized index maintenance under network updates.

The paper calls updates (road closures, changed travel times) the open
challenge of the precomputation strategy and sketches the answer:
"localize changes to minimize recomputation" (p.27).  This module
implements that strategy exactly:

1. **Damage analysis** -- a directed edge ``(a, b)`` influences the
   shortest-path quadtree of source ``s`` only if it lies on some
   shortest path from ``s``, i.e. ``d(s,a) + w(a,b) = d(s,b)``.  Two
   reverse Dijkstra passes (to ``a`` and to ``b``) evaluate that
   predicate for *every* source at once:

   * removals / weight increases are tested on the **old** network
     (which sources were using the edge);
   * insertions / weight decreases are tested on the **new** network
     (which sources start using it).

   The result is a conservative superset of the affected sources
   (ties are included), so rebuilding exactly those tables is safe.
   A block's colour is a rank in its vertex's out-edge list, so the
   tail ``a`` of an inserted or removed edge is affected too, even
   when no shortest path changes: its ranks shift.

2. **Partial rebuild** -- only the affected sources' quadtrees are
   recomputed (on the unchanged grid embedding); every other table's
   columns are carried over from the old index, so the recomputation
   cost is proportional to the damage, not to the network.  (With the
   flat columnar store, a no-op update shares the old index's store
   object outright; a real update assembles one new store from the
   carried-over and rebuilt columns.)
"""

from __future__ import annotations

import numpy as np

from repro.network.errors import GraphConstructionError
from repro.network.graph import SpatialNetwork
from repro.quadtree.blocks import column_dtypes
from repro.silc.index import SILCIndex
from repro.silc.sp_quadtree import SPQuadtreeBuilder
from repro.silc.store import FlatStore

#: Relative slack for the "edge on a shortest path" predicate; float
#: ties must land on the affected side (rebuilding extra sources is
#: safe, missing one is not).
_TOL = 1e-9


def diff_edges(
    old: SpatialNetwork, new: SpatialNetwork
) -> list[tuple[int, int, float | None, float | None]]:
    """Edge differences as ``(a, b, old_weight, new_weight)`` tuples.

    ``old_weight`` is None for insertions, ``new_weight`` None for
    removals; both present (and different) for weight changes.
    """
    if old.num_vertices != new.num_vertices:
        raise GraphConstructionError(
            "localized update requires an unchanged vertex set"
        )
    if not (
        np.array_equal(old.xs, new.xs) and np.array_equal(old.ys, new.ys)
    ):
        raise GraphConstructionError(
            "localized update requires unchanged vertex positions"
        )
    old_edges = {(u, v): w for u, v, w in old.iter_edges()}
    new_edges = {(u, v): w for u, v, w in new.iter_edges()}
    changes = []
    for key in old_edges.keys() | new_edges.keys():
        ow = old_edges.get(key)
        nw = new_edges.get(key)
        if ow != nw:
            changes.append((key[0], key[1], ow, nw))
    return changes


def _distances_to(network: SpatialNetwork, target: int) -> np.ndarray:
    """``d(s, target)`` for every source ``s`` (one reverse Dijkstra)."""
    from scipy.sparse import csgraph

    return csgraph.dijkstra(network.to_csr().T, indices=[target])[0]


def sources_using_edge(network: SpatialNetwork, a: int, b: int) -> set[int]:
    """Sources for which edge ``(a, b)`` lies on some shortest path.

    ``s`` qualifies iff ``d(s,a) + w(a,b) = d(s,b)`` (within float
    slack, erring on the inclusive side).
    """
    w = network.edge_weight(a, b)
    d_to_a = _distances_to(network, a)
    d_to_b = _distances_to(network, b)
    via = d_to_a + w
    slack = _TOL * np.maximum(1.0, np.abs(d_to_b))
    mask = np.isfinite(d_to_b) & (via <= d_to_b + slack)
    return set(int(s) for s in np.flatnonzero(mask))


def affected_sources(
    old: SpatialNetwork, new: SpatialNetwork
) -> tuple[set[int], list[tuple[int, int, float | None, float | None]]]:
    """Sources whose shortest-path quadtrees the change may invalidate:
    those whose paths may change, and the tail of every inserted or
    removed edge (its out-edge ranks shift).

    Returns ``(sources, edge_changes)``.
    """
    changes = diff_edges(old, new)
    affected: set[int] = set()
    for a, b, ow, nw in changes:
        if ow is not None and (nw is None or nw > ow):
            # removal or slowdown: whoever was using it on the old net
            affected |= sources_using_edge(old, a, b)
        if nw is not None and (ow is None or nw < ow):
            # insertion or speedup: whoever starts using it on the new
            affected |= sources_using_edge(new, a, b)
        if ow is None or nw is None:
            affected.add(a)
    return affected, changes


def update_index(
    index: SILCIndex, new_network: SpatialNetwork
) -> tuple[SILCIndex, set[int]]:
    """Derive an index for ``new_network`` by localized recomputation.

    Rebuilds only the shortest-path quadtrees of the affected sources;
    all other tables' rows are copied over from the old index.
    Returns ``(new_index, rebuilt_sources)``.

    The new index answers queries over ``new_network`` exactly as a
    full :meth:`SILCIndex.build` would (verified property in the test
    suite); only construction cost differs.
    """
    new_network.require_strongly_connected()
    affected, changes = affected_sources(index.network, new_network)
    if not changes:
        return (
            SILCIndex(
                new_network,
                index.embedding,
                index.vertex_codes,
                index.store,
            ),
            set(),
        )

    builder = SPQuadtreeBuilder(
        new_network, index.embedding, index.vertex_codes
    )
    old = index.store
    store = FlatStore.from_chunks(
        old.num_tables,
        [
            (range(old.num_tables), old.sizes, old.column_arrays()),
            *builder.chunks(sorted(affected)),
        ],
        column_dtypes(new_network.max_out_degree),
    ).validate(new_network.out_degrees())
    return (
        SILCIndex(new_network, index.embedding, index.vertex_codes, store),
        affected,
    )
