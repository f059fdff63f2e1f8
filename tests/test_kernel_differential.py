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

The second half holds the walks to exact.  On road, planar and unit-weight
grid networks (every edge with a reverse of the same weight) a vertex
query for ``HOME_MIN_K`` or more neighbours walks a vertex object home,
toward the query, and stops where an earlier walk passed; on a one-way
network, and below that k, it walks forward.  Over the
four variants, k in {1, 8, 25}, vertex and edge-position queries, vertex
and edge / extent objects, eager and mapped indexes: every exact answer
is Dijkstra's; on road and planar it is the forward walk's bit for bit,
every counted op but the links walked equal; on the one-way network
answers and counts are those recorded before the home walk existed.  One
count is pinned: on a seeded road network an exact ``knn`` at k = 25
walks at most 0.6 of the forward walk's links.  Last, every kNN-M search
makes the decisions of ``reference_knn_m``, whose KMINDIST bookkeeping
is an object of its own.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.datasets import random_vertex_objects
from repro.network import grid_network, random_planar_network, road_like_network
from repro.objects import ObjectIndex
from repro.objects.model import EdgePosition, VertexPosition
from repro.query import bestfirst
from repro.query.bestfirst import VARIANTS, best_first_knn
from repro.query.distances import QueryHandle
from repro.query.location import resolve_location
from repro.silc import SILCIndex
from repro.silc.refinement import RefinableDistance

from reference import reference_knn_m
from test_properties import _edge_position, edge_and_extent_objects, one_way, true_distances

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


# ----------------------------------------------------------------------
# Walks to exact
# ----------------------------------------------------------------------

#: 70-vertex networks, seeded; all but ``oneway`` have every edge's
#: reverse at the same weight.
NETWORKS = {
    "road": lambda: road_like_network(70, seed=5),
    "planar": lambda: random_planar_network(70, seed=5),
    "grid": lambda: grid_network(7, 10),  # unit weights: exact ties
    "oneway": lambda: one_way(road_like_network(70, seed=5), 5),
}
WALK_KS = (1, 8, 25)

#: ``answers_digest`` of the one-way network, recorded on the forward
#: walk before the home walk existed: answers and counts may not move.
ONE_WAY_DIGEST = "be922158a0a32f8c"


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    """``kind -> {"eager": index, "mmap": index}``, the mapped one loaded
    from a save of the eager one."""
    built = {}
    for kind, make in NETWORKS.items():
        net = make()
        eager = SILCIndex.build(net)
        path = tmp_path_factory.mktemp("walks") / kind
        eager.save(path)
        built[kind] = {"eager": eager, "mmap": SILCIndex.load(path, net, mmap=True)}
    return built


def workload(net):
    """``[(object set name, objects, queries)]``: vertex and edge-position
    queries over vertex objects and over edge / extent objects."""
    rng = np.random.default_rng(17)
    queries = [int(v) for v in rng.choice(net.num_vertices, 5, replace=False)]
    queries += [_edge_position(net, rng) for _ in range(3)]
    return [
        ("vertex", random_vertex_objects(net, count=30, seed=3), queries),
        ("edge+extent", edge_and_extent_objects(net, rng), queries),
    ]


def record(result) -> tuple:
    """An exact answer and every counted op, distance bits included."""
    s = result.stats
    return (
        tuple(n.oid for n in result.neighbors),
        tuple(n.distance.hex() for n in result.neighbors),
        s.refinements, s.extras.get("post_refinements"), s.queue_pushes,
        s.collisions, s.confirmations, s.l_ops, s.objects_seen,
        s.kmindist_accepts, s.kmindist_final, s.dk_final,
    )


def answers(index, objects, queries):
    """``(query, k, variant) -> record`` of every exact search."""
    object_index = ObjectIndex(index.network, objects, index.embedding)
    return {
        (str(q), k, variant): record(
            best_first_knn(index, object_index, q, k, variant=variant, exact=True)
        )
        for q in queries for k in WALK_KS for variant in VARIANTS
    }


def answers_digest(index) -> str:
    """One digest over every exact search of ``workload`` on ``index``."""
    records = [
        sorted(answers(index, objects, queries).items())
        for _, objects, queries in workload(index.network)
    ]
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def forward_only(index, monkeypatch):
    """Searches on ``index`` walk forward until the patch is undone."""
    monkeypatch.setattr(index.network, "symmetric", False)


@pytest.mark.parametrize("mode", ["eager", "mmap"])
@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_exact_answers_are_dijkstras_and_the_forward_walks(indexes, kind, mode, monkeypatch):
    index = indexes[kind][mode]
    net = index.network
    assert net.symmetric == (kind != "oneway")
    for name, objects, queries in workload(net):
        got = answers(index, objects, queries)
        for query in queries:
            truth = true_distances(net, resolve_location(net, query), objects)
            want = sorted(truth.values())
            for k in WALK_KS:
                for variant in VARIANTS:
                    ids, bits, *_ = got[str(query), k, variant]
                    assert len(set(ids)) == len(ids) == min(k, len(objects))
                    dists = [float.fromhex(b) for b in bits]
                    for oid, d in zip(ids, dists):
                        np.testing.assert_allclose(d, truth[oid], rtol=1e-9)
                    if variant == "knn_m":
                        dists.sort()
                    np.testing.assert_allclose(dists, want[:k], rtol=1e-9)
        if kind in ("road", "planar"):
            # Shortest paths are unique here: walked home or forward, one
            # path, one fold, the same bits; only the links walked differ.
            with monkeypatch.context() as patch:
                forward_only(index, patch)
                forward = answers(index, objects, queries)
            for key, (ids, bits, links, post, *counts) in got.items():
                f_ids, f_bits, f_links, f_post, *f_counts = forward[key]
                assert (ids, bits, counts) == (f_ids, f_bits, f_counts), (name, key)
                assert links + (post or 0) <= f_links + (f_post or 0), (name, key)


def test_one_way_answers_and_counts_are_the_forward_walks(indexes):
    for mode in ("eager", "mmap"):
        assert answers_digest(indexes["oneway"][mode]) == ONE_WAY_DIGEST


def test_exact_knn_walks_at_most_six_tenths_of_the_forward_links(monkeypatch):
    net = road_like_network(300, seed=11)
    index = SILCIndex.build(net)
    object_index = ObjectIndex(net, random_vertex_objects(net, count=60, seed=11), index.embedding)
    queries = range(0, net.num_vertices, 15)

    def links() -> int:
        total = 0
        for q in queries:
            s = best_first_knn(index, object_index, q, 25, exact=True).stats
            total += s.refinements + s.extras["post_refinements"]
        return total

    home = links()
    forward_only(index, monkeypatch)
    forward = links()
    assert home <= 0.6 * forward, (home, forward)


@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_knn_m_makes_the_reference_trackers_decisions(indexes, kind):
    index = indexes[kind]["eager"]
    accepted = 0
    for _, objects, queries in workload(index.network):
        object_index = ObjectIndex(index.network, objects, index.embedding)
        for q in queries:
            for k in WALK_KS:
                want = reference_knn_m(index, object_index, q, k)
                result = best_first_knn(index, object_index, q, k, variant="knn_m")
                s = result.stats
                got = {
                    "ids": [n.oid for n in result.neighbors][: s.confirmations],
                    "kmindist_accepts": s.kmindist_accepts,
                    "kmindist_final": s.kmindist_final,
                    "collisions": s.collisions,
                    "queue_pushes": s.queue_pushes,
                    "refinements": s.refinements,
                    "objects_seen": s.objects_seen,
                }
                assert got == want, (q, k)
                accepted += s.kmindist_accepts
    assert accepted > 0
