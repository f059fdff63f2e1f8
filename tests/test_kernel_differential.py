"""The search's inline block bounds and state construction against the
compositions they replace, on every call a search makes.

``best_first_knn`` bounds the root and the live children of each node
it expands through one ``QueryHandle.block_bounds`` call, and a vertex
query builds a one-anchor object's ``RefinableDistance`` in the loop
itself.  Seeded searches over road and one-way networks, vertex and
edge-position queries, vertex objects and edge / extent objects, with
and without a page simulator, record both: every node bounded must get,
bit for bit, the bound composed from ``SILCIndex.block_lower_bound`` and
the Euclidean term, with the same page accesses in the same order, and
every state built in the loop must equal ``QueryHandle.object_state``
on its bounds, position on the path and next hop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasets import random_vertex_objects
from repro.network import road_like_network
from repro.objects import ObjectIndex
from repro.objects.model import EdgePosition, VertexPosition
from repro.query import bestfirst
from repro.query.bestfirst import VARIANTS, best_first_knn
from repro.query.distances import QueryHandle
from repro.silc import SILCIndex
from repro.silc.refinement import RefinableDistance

from test_properties import edge_and_extent_objects, one_way

SEEDS = (0, 1, 2)
#: Vertex and edge-position queries per object set and network.
QUERIES = 6


def reference_bound(handle: QueryHandle, node) -> float:
    """A node's bound composed from the index's own primitives: per
    anchor ``block_lower_bound`` (which pads and accounts its pages),
    the query point's Euclidean bound through the node's ``Rect``, and
    the combine -- min with edge objects below, else max unless no
    vertex of the network is in the node."""
    index = handle.index
    rect, has_edge_objects = handle.object_index.node_info[node.code, node.level]
    euclid = handle._euclid_slope * rect.min_distance_to_point_xy(handle.px, handle.py)
    lam = math.inf
    for av, a_off in handle.anchors:
        bound = index.block_lower_bound(
            av, node.code, node.level, column=index.bound_column(av)
        )
        lam = min(lam, a_off + bound)
    if has_edge_objects:
        return min(lam, euclid)
    if math.isinf(lam):
        return math.inf
    return max(lam, euclid)


def snapshot(state) -> tuple:
    return (
        state.oid, state.lo.hex(), state.hi.hex(), state.via, state.acc.hex(),
        state._next_hop,
    )


class Recorder:
    """Wraps the two fast paths of a search and checks each call as it
    happens; ``pages`` is the simulator's access log (empty when none is
    attached)."""

    def __init__(self, monkeypatch, pages: list[int]) -> None:
        self.pages = pages
        self.nodes = 0
        self.made: list[tuple[tuple, list[int]]] = []
        block_bounds = QueryHandle.block_bounds

        def bounds(handle, nodes):
            mark = len(pages)
            got = block_bounds(handle, nodes)
            fused = pages[mark:]
            want = [reference_bound(handle, node) for node in nodes]
            assert pages[mark + len(fused):] == fused
            del pages[mark + len(fused):]
            assert [b.hex() for b in got] == [b.hex() for b in want], [
                (node.code, node.level) for node in nodes
            ]
            self.nodes += len(nodes)
            return got

        def state(*args):
            mark = len(pages)
            made = RefinableDistance(*args)
            self.made.append((snapshot(made), pages[mark:]))
            return made

        monkeypatch.setattr(QueryHandle, "block_bounds", bounds)
        monkeypatch.setattr(bestfirst, "RefinableDistance", state)

    def check_states(self, index, object_index, position) -> int:
        """Every state the loop built against ``object_state`` from a
        fresh handle, pages included; returns how many."""
        handle = QueryHandle(index, object_index, position)
        for made, made_pages in self.made:
            mark = len(self.pages)
            want = handle.object_state(made[0])
            assert made == snapshot(want)
            assert made_pages == self.pages[mark:]
            del self.pages[mark:]
        checked = len(self.made)
        self.made.clear()
        return checked


def network(kind: str, seed: int):
    net = road_like_network(80, seed=seed)
    return one_way(net, seed) if kind == "oneway" else net


@pytest.mark.parametrize("paged", [True, False], ids=["paged", "bare"])
@pytest.mark.parametrize("kind", ["road", "oneway"])
def test_every_bound_and_state_a_search_makes_is_the_reference(kind, paged, monkeypatch):
    nodes = states = 0
    for seed in SEEDS:
        net = network(kind, seed)
        index = SILCIndex.build(net)
        pages: list[int] = []
        if paged:
            storage = index.make_storage()
            storage.access = pages.append
            index.attach_storage(storage)
        rng = np.random.default_rng(seed)
        edges = list(net.iter_edges())
        queries = [
            VertexPosition(int(v)) for v in rng.choice(net.num_vertices, QUERIES, replace=False)
        ] + [
            EdgePosition(a, b, float(rng.uniform(0.05, 0.95)))
            for a, b, _ in (edges[int(i)] for i in rng.choice(len(edges), QUERIES, replace=False))
        ]
        object_sets = {
            "vertex": random_vertex_objects(net, count=30, seed=seed),
            "edge+extent": edge_and_extent_objects(net, rng),
        }
        recorder = Recorder(monkeypatch, pages)
        for name, objects in object_sets.items():
            object_index = ObjectIndex(net, objects, index.embedding)
            for i, query in enumerate(queries):
                variant = VARIANTS[i % len(VARIANTS)]
                for k in (1, 8):
                    best_first_knn(index, object_index, query, k, variant=variant)
                    built = recorder.check_states(index, object_index, query)
                    # The loop builds a state itself only for a vertex
                    # query's one-anchor objects.
                    if isinstance(query, EdgePosition):
                        assert built == 0
                    elif name == "vertex":
                        assert built > 0
                    states += built
        nodes += recorder.nodes
        monkeypatch.undo()
        assert pages or not paged
    assert nodes > 1000 and states > 100
