"""Whole-pipeline property-based tests on small random networks.

These are the paper's invariants run against freshly generated
networks, object sets, queries and k -- the strongest correctness
evidence in the suite.
"""

import dataclasses
import heapq
import itertools
import math
import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.quadtree.region as region
import repro.silc.index as silc_index
from repro import ObjectIndex, QueryEngine, SILCIndex, knn
from repro.objects.model import (
    ObjectSet,
    EdgePosition,
    ExtentPosition,
    SpatialObject,
    VertexPosition,
    position_point,
)
from repro.query import (
    aggregate_nn,
    approximate_knn,
    browse,
    distance_join,
    ier_knn,
    ine_knn,
    knn_m,
    range_query,
)
from repro.datasets import random_vertex_objects
from repro.geometry.grid import GridEmbedding
from repro.geometry.rect import Rect
from repro.network.errors import EdgeNotFound, PathNotFound
from repro.network.dijkstra import IncrementalDijkstra
from repro.network import (
    SpatialNetwork,
    distance_matrix,
    grid_network,
    random_planar_network,
    road_like_network,
)
from repro.oracle import PrunedLabellingOracle
from repro.query.bestfirst import VARIANTS, best_first_knn
from repro.query.distances import ObjectDistanceState
from repro.query.location import resolve_location, source_anchors
from repro.shard import ShardGroup
from repro.silc.refinement import RefinementCounter
from repro.silc.sp_quadtree import SPQuadtreeBuilder, choose_grid_order
from repro.silc.store import FlatStore


def one_way(net, seed):
    """``net`` with a seeded quarter of its streets made one-way,
    skipping any that would leave the network no longer one strongly
    connected component (the generators emit both directions)."""
    rng = np.random.default_rng(seed)
    streets = [(u, v) for u, v, _ in net.iter_edges() if u < v]
    for i in rng.permutation(len(streets))[: len(streets) // 4].tolist():
        trial = net.without_edges([streets[i]])
        if trial.num_strongly_connected_components() == 1:
            net = trial
    return net


#: 60-vertex networks by kind; ``seed`` is 0..3.
KINDS = {
    "road": lambda seed: road_like_network(60, seed=seed),
    "planar": lambda seed: random_planar_network(60, seed=seed),
    # Unit weights on a lattice (the seed picks its shape): exact
    # distance ties, the class the PR-12 k-th-neighbour bug lived in.
    "grid": lambda seed: grid_network((6, 5, 4, 3)[seed], (10, 12, 15, 20)[seed]),
    # Directed: d(u, v) != d(v, u) and the two paths differ.
    "oneway": lambda seed: one_way(road_like_network(60, seed=seed), seed),
}

#: The ways an index comes to be; every one must answer like Dijkstra.
OBTAINED = ("serial", "pooled", "eager", "mmap")

#: What answers the query: the bare kernel, or a QueryEngine -- behind
#: the paper's 5 % page buffer, or planned onto a non-SILC backend
#: (those ignore ``variant`` and always rank).  Accounting and planning
#: never change answers.
VIA = ("kernel", "paged", "labels", "ine")

# Cache of indexes by (kind, seed, how obtained), and of labellings by
# (kind, seed, "labelling"): hypothesis re-runs bodies many times and
# the builds are the expensive part.
_CACHE: dict[tuple, object] = {}


def setup(seed: int, kind: str = "road", obtained: str = "serial", scratch=None):
    """``(network, index, all-pairs Dijkstra distances)``; ``scratch`` is
    pytest's ``tmp_path_factory``, for the two saved-then-loaded forms."""
    key = (kind, seed, obtained)
    if key not in _CACHE:
        if obtained == "serial":
            net = KINDS[kind](seed)
            _CACHE[key] = (net, SILCIndex.build(net), distance_matrix(net))
        else:
            net, serial, D = setup(seed, kind)
            if obtained == "pooled":
                index = SILCIndex.build(net, workers=2, chunk_size=16)
            else:
                path = scratch.mktemp("properties") / "index"
                serial.save(path)
                index = SILCIndex.load(path, net, mmap=obtained == "mmap")
            _CACHE[key] = (net, index, D)
    return _CACHE[key]


def labelling(seed: int, kind: str) -> PrunedLabellingOracle:
    key = (kind, seed, "labelling")
    if key not in _CACHE:
        _CACHE[key] = PrunedLabellingOracle.build(setup(seed, kind)[0])
    return _CACHE[key]


def answer(via: str, index, oi, query, k, variant, seed, kind):
    if via == "kernel":
        return best_first_knn(index, oi, query, k, variant=variant, exact=True)
    if via == "paged":
        engine = QueryEngine(index, oi, cache_fraction=0.05)
    else:
        engine = QueryEngine(
            index, oi, oracle=via,
            labelling=labelling(seed, kind) if via == "labels" else None,
        )
    return engine.knn(query, k, variant=variant, exact=True)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(
    kind=st.sampled_from(sorted(KINDS)),
    seed=st.integers(0, 3),
    obtained=st.sampled_from(OBTAINED),
    variant=st.sampled_from(VARIANTS),
    via=st.sampled_from(VIA),
    query=st.integers(0, 59),
    k=st.integers(1, 35),  # past obj_count: k >= |S| returns all of S
    obj_seed=st.integers(0, 5),
    obj_count=st.integers(5, 30),
)
# Wrong under a strict ``<`` on re-enqueue (the k-th entry of L turning
# exact at lo == Dk): the PR-12 bug, which random draws rarely reach.
@example(kind="road", seed=0, obtained="serial", variant="knn", via="kernel",
         query=44, k=5, obj_seed=1, obj_count=12)
def test_knn_matches_brute_force_everywhere(
    tmp_path_factory, kind, seed, obtained, variant, via, query, k, obj_seed, obj_count
):
    net, index, D = setup(seed, kind, obtained, tmp_path_factory)
    objects = random_vertex_objects(net, count=obj_count, seed=obj_seed)
    oi = ObjectIndex(net, objects, index.embedding)
    want = sorted(float(D[query, o.position.vertex]) for o in objects)[:k]
    result = answer(via, index, oi, query, k, variant, seed, kind)
    got = [n.distance for n in result.neighbors]
    assert len(set(result.ids())) == len(got) == len(want)
    for n in result.neighbors:
        np.testing.assert_allclose(
            n.distance, D[query, objects[n.oid].position.vertex], rtol=1e-9
        )
    # kNN-M accepts objects against KMINDIST without ranking them, so
    # its answer is a set; the other variants, and every non-SILC
    # backend whatever the variant, must come back ranked.
    unranked = variant == "knn_m" and via in ("kernel", "paged")
    np.testing.assert_allclose(sorted(got) if unranked else got, want, rtol=1e-9)
    assert index.storage is None  # the engine's simulator went back


def true_distances(net, source, objects) -> dict[int, float]:
    """Network distance from the position ``source`` to every object, by
    plain Dijkstra over ``net`` with every directed edge cut at the
    points that lie on it: a point ``f`` of the way along ``a -> b`` is
    also ``1 - f`` of the way along ``b -> a`` when that edge exists.
    An extent is as near as its nearest part."""
    cuts = defaultdict(list)

    def node(position):
        if isinstance(position, VertexPosition):
            return position.vertex
        key = ("point", position)
        a, b, f = position.a, position.b, position.fraction
        cuts[a, b].append((f * net.edge_weight(a, b), key))
        if net.has_edge(b, a):
            cuts[b, a].append(((1.0 - f) * net.edge_weight(b, a), key))
        return key

    start = node(source)
    parts = {
        o.oid: [node(p) for p in getattr(o.position, "parts", (o.position,))]
        for o in objects
    }
    arcs = defaultdict(list)
    for u, row in enumerate(net.out_weights):
        for v, w in row.items():
            at, offset = u, 0.0
            for cut, key in sorted(cuts[u, v], key=lambda c: c[0]):
                arcs[at].append((key, cut - offset))
                at, offset = key, cut
            arcs[at].append((v, w - offset))
    dist, heap, seq = {start: 0.0}, [(0.0, 0, start)], 1
    while heap:
        d, _, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        for y, w in arcs[x]:
            if d + w < dist.get(y, np.inf):
                dist[y] = d + w
                heapq.heappush(heap, (d + w, seq, y))
                seq += 1
    return {oid: min(dist.get(n, np.inf) for n in ns) for oid, ns in parts.items()}


def _edge_position(net, rng) -> EdgePosition:
    a, b, _ = list(net.iter_edges())[int(rng.integers(net.num_edges))]
    return EdgePosition(a, b, float(rng.choice([0.0, rng.uniform(0.05, 0.95), 1.0], p=[0.1, 0.8, 0.1])))


def edge_and_extent_objects(net, rng, count=24) -> ObjectSet:
    """Edge objects and extents (one to three vertex / edge parts) in
    about equal numbers: almost every object is reached more than one
    way, so its state is the multi-alternative one."""
    positions = []
    for _ in range(count):
        if rng.random() < 0.5:
            positions.append(_edge_position(net, rng))
        else:
            positions.append(ExtentPosition(tuple(
                VertexPosition(int(rng.integers(net.num_vertices)))
                if rng.random() < 0.3 else _edge_position(net, rng)
                for _ in range(int(rng.integers(1, 4)))
            )))
    return ObjectSet(
        SpatialObject(oid, p, position_point(net, p)) for oid, p in enumerate(positions)
    )


@pytest.mark.parametrize("via", ["kernel", "paged", "ier"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_edge_queries_and_extent_objects_match_dijkstra(kind, via):
    """The sibling above draws vertex objects and vertex queries only.
    Here the queries sit on edges (a few on vertices) and the objects
    are edge positions and extents, so the states an exact ``knn`` walks
    to exact inside the search are the multi-alternative ones.  Exact
    answers must be Dijkstra's; an ``exact=False`` answer must name the
    same distances, and every interval it reports must hold the truth.
    IER has no variants and always answers exactly; it shares
    ``same_edge_direct`` with the kernel and INE."""
    walked = stepped = 0  # knn collisions, exact and bounds, summed
    for seed in (0, 1):
        net, index, _ = setup(seed, kind)
        rng = np.random.default_rng([seed, len(kind)])
        objects = edge_and_extent_objects(net, rng)
        oi = ObjectIndex(net, objects, index.embedding)
        engine = QueryEngine(index, oi, cache_fraction=0.05) if via == "paged" else None
        queries = [_edge_position(net, rng) for _ in range(5)]
        queries.append(int(rng.integers(net.num_vertices)))
        for query in queries:
            truth = true_distances(net, resolve_location(net, query), objects)
            for k in (1, 6, 15, 30):
                want = sorted(truth.values())[:k]
                if via == "ier":
                    result = ier_knn(oi, query, k)
                    assert len(set(result.ids())) == len(result.neighbors) == len(want)
                    for n in result.neighbors:
                        np.testing.assert_allclose(n.distance, truth[n.oid], rtol=1e-9)
                    np.testing.assert_allclose(result.distances(), want, rtol=1e-9)
                    continue
                for variant in VARIANTS:
                    for exact in (True, False):
                        if engine is None:
                            result = best_first_knn(
                                index, oi, query, k, variant=variant, exact=exact
                            )
                        else:
                            result = engine.knn(query, k, variant=variant, exact=exact)
                        assert len(set(result.ids())) == len(result.neighbors) == len(want)
                        for n in result.neighbors:
                            d = truth[n.oid]
                            lo, hi = n.interval.lo, n.interval.hi
                            assert lo - 1e-9 * d <= d <= hi + 1e-9 * d, (query, k, n)
                            if exact:
                                np.testing.assert_allclose(n.distance, d, rtol=1e-9)
                        got = [truth[n.oid] for n in result.neighbors]
                        if variant == "knn_m" or not exact:
                            got.sort()
                        np.testing.assert_allclose(got, want, rtol=1e-9)
                        if variant == "knn":
                            if exact:
                                walked += result.stats.collisions
                            else:
                                stepped += result.stats.collisions
    # The walk resolved collisions in one call each that stepping took
    # one heap cycle per link for.
    if via != "ier":
        assert walked < stepped


def holds_truth(neighbors, truth) -> None:
    """Every reported interval contains the object's true distance."""
    for n in neighbors:
        d, slack = truth[n.oid], 1e-9 * max(truth[n.oid], 1.0)
        assert n.interval.lo - slack <= d <= n.interval.hi + slack, n


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_paper_library_matches_dijkstra(kind, seed):
    """``browse``, ``range_query``, ``approximate_knn`` at epsilon 0,
    ``aggregate_nn`` and ``distance_join`` on the seeded draws, each held
    to its own contract against plain Dijkstra ranked by ``(distance,
    oid)``: vertex objects, then edge objects and extents, queried from
    an object's vertex and from an edge position."""
    net, index, _ = setup(seed, kind)
    rng = np.random.default_rng([seed, len(kind), 2])
    vertex_objects = random_vertex_objects(net, count=12, seed=seed)
    mixed = edge_and_extent_objects(net, rng, count=12)
    # The vertex query holds an object: radius 0 must find it.
    queries = [vertex_objects[0].position.vertex, _edge_position(net, rng)]
    for objects in (vertex_objects, mixed):
        oi = ObjectIndex(net, objects, index.embedding)
        truths = [true_distances(net, resolve_location(net, q), objects) for q in queries]
        for query, truth in zip(queries, truths):
            ranked = sorted((d, oid) for oid, d in truth.items())
            want = [d for d, _ in ranked]

            emitted = list(browse(index, oi, query))  # every object, nearest first
            assert sorted(n.oid for n in emitted) == sorted(truth)
            holds_truth(emitted, truth)
            np.testing.assert_allclose([truth[n.oid] for n in emitted], want, rtol=1e-9)

            for k in (1, 5, len(objects)):  # epsilon 0 is exact kNN
                result = approximate_knn(index, oi, query, k, epsilon=0.0)
                holds_truth(result.neighbors, truth)
                np.testing.assert_allclose(
                    [truth[n.oid] for n in result.neighbors], want[:k], rtol=1e-9
                )

            # Radii between distinct distances, plus none and all.
            gaps = [(a + b) / 2 for a, b in itertools.pairwise(sorted(set(want)))
                    if b - a > 1e-6 * b]
            for radius in [0.0, 1e9, *gaps[::3]]:
                result = range_query(index, oi, query, radius)
                assert sorted(result.ids()) == sorted(oid for d, oid in ranked if d <= radius)
                holds_truth(result.neighbors, truth)
                los = [n.interval.lo for n in result.neighbors]
                assert los == sorted(los)

        for agg, fold in (("sum", sum), ("max", max)):  # both queries at once
            folded = {oid: fold(t[oid] for t in truths) for oid in truths[0]}
            result = aggregate_nn(index, oi, queries, 4, agg=agg)
            for n in result.neighbors:
                np.testing.assert_allclose(n.distance, folded[n.oid], rtol=1e-9)
            np.testing.assert_allclose(
                [folded[n.oid] for n in result.neighbors], sorted(folded.values())[:4],
                rtol=1e-9,
            )

    # Left objects on vertices (the join's requirement), right ones mixed.
    left = random_vertex_objects(net, count=5, seed=seed + 10)
    pairs = {
        (a.oid, b): d
        for a in left
        for b, d in true_distances(net, a.position, mixed).items()
    }
    for k in (7, len(pairs) + 3):  # past the pair count: every pair
        got = distance_join(
            index, ObjectIndex(net, left, index.embedding),
            ObjectIndex(net, mixed, index.embedding), k,
        )
        assert len({(a, b) for a, b, _ in got}) == len(got) == min(k, len(pairs))
        for a, b, d in got:
            np.testing.assert_allclose(d, pairs[a, b], rtol=1e-9)
        np.testing.assert_allclose(
            [d for _, _, d in got], sorted(pairs.values())[:k], rtol=1e-9
        )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["oneway", "cut"])
def test_ine_matches_dijkstra_on_directed_and_disconnected_networks(kind, seed):
    """INE against the cut-edge Dijkstra truth, ranked by ``(distance,
    oid)``, from vertices and from edge positions.  On the cut network
    an object in the other component is never reported, so fewer than k
    come back, none at ``inf``.  With vertex objects only the counted
    ball is exact: INE settles every vertex no farther than its k-th
    answer (every reachable vertex when it has fewer) and no other."""
    net = cut_in_two(seed)[0] if kind == "cut" else KINDS[kind](seed)
    embedding = GridEmbedding.for_points(net.xs, net.ys, order=8)
    rng = np.random.default_rng([seed, len(kind)])
    queries = [int(v) for v in rng.integers(net.num_vertices, size=4)]
    queries += [_edge_position(net, rng) for _ in range(4)]
    unreached = 0
    for vertex_only, objects in (
        (True, random_vertex_objects(net, count=15, seed=seed)),
        (False, edge_and_extent_objects(net, rng, count=15)),
    ):
        oi = ObjectIndex(net, objects, embedding)
        for query in queries:
            position = resolve_location(net, query)
            truth = true_distances(net, position, objects)
            reachable = sorted(d for d in truth.values() if math.isfinite(d))
            unreached += len(truth) - len(reachable)
            expansion = IncrementalDijkstra(net, seeds=source_anchors(net, position))
            while expansion.settle_next() is not None:
                pass
            for k in (1, 3, 8, 20):
                result = ine_knn(oi, query, k)
                got = [(n.distance, n.oid) for n in result.neighbors]
                assert got == sorted(got)  # ties at a distance by oid
                assert len(got) == min(k, len(reachable))
                np.testing.assert_allclose(
                    [d for d, _ in got], reachable[: len(got)], rtol=1e-9
                )
                for d, oid in got:
                    np.testing.assert_allclose(d, truth[oid], rtol=1e-9)
                if vertex_only:
                    kth = got[-1][0] if len(got) == k else math.inf
                    ball = sum(d <= kth for d in expansion.dist if d < math.inf)
                    assert result.stats.settled == ball, (query, k)
    assert unreached if kind == "cut" else not unreached


def test_knn_m_lets_no_tie_at_the_bound_crowd_out_a_closer_object():
    """KMINDIST accepts an object whose upper bound reaches the bound on
    the k-th distance.  Two objects tied exactly there (a vertex object
    and an extent through the same vertex) used to be accepted both,
    filling k = 3 before the object at 19.77 was confirmed.  Found by
    the shard-group draw below: planar seed 3, an edge query."""
    net, index, _ = setup(3, "planar")
    mixed = edge_and_extent_objects(net, np.random.default_rng([3, 7]), count=12)
    objects = ObjectSet([
        *random_vertex_objects(net, count=12, seed=3),
        *(dataclasses.replace(o, oid=o.oid + 100) for o in mixed),
    ])
    oi = ObjectIndex(net, objects, index.embedding)
    query = _edge_position(net, np.random.default_rng(8))
    truth = true_distances(net, resolve_location(net, query), objects)
    for exact in (True, False):
        result = best_first_knn(index, oi, query, 3, variant="knn_m", exact=exact)
        got = sorted(truth[n.oid] for n in result.neighbors)
        np.testing.assert_allclose(got, sorted(truth.values())[:3], rtol=1e-9)


#: Shard groups kept open at once by the test below (each is up to
#: four processes); the oldest is closed to make room.
OPEN_GROUPS = 3


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("obtained", ["serial", "eager", "mmap"])
def test_shard_group_matches_brute_force(tmp_path_factory, monkeypatch, obtained, shards):
    """The shard tier as the answerer.  An index that maps a saved
    directory is served in place -- the workers map the same files and
    nothing is written; one that lives in memory (built, or read
    eagerly) is saved once to a private directory that goes on close.
    Queries sit on vertices and on edges; objects are vertex, edge and
    extent positions -- the classes a partitioned tier used to assign
    to several shards at once."""
    tmp = tmp_path_factory.mktemp("tmpdir")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    groups: dict[tuple, tuple] = {}

    def group_for(kind, seed):
        if (kind, seed) not in groups:
            if len(groups) == OPEN_GROUPS:
                groups.pop(next(iter(groups)))[0].close()
            net, index, _ = setup(seed, kind, obtained, tmp_path_factory)
            mixed = edge_and_extent_objects(net, np.random.default_rng([seed, 7]), count=12)
            objects = ObjectSet([
                *random_vertex_objects(net, count=12, seed=seed),
                *(dataclasses.replace(o, oid=o.oid + 100) for o in mixed),
            ])
            engine = QueryEngine(index, ObjectIndex(net, objects, index.embedding))
            group = ShardGroup.from_engine(engine, shards)
            if obtained == "mmap":
                assert group.directory == index.directory
            else:
                assert index.directory is None and group.directory.parent == tmp
            groups[kind, seed] = (group, net, objects)
        return groups[kind, seed]

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(sorted(KINDS)),
        seed=st.integers(0, 3),
        variant=st.sampled_from(VARIANTS),
        query=st.integers(0, 59),
        on_edge=st.booleans(),
        k=st.integers(1, 30),  # past the 24 objects
    )
    def check(kind, seed, variant, query, on_edge, k):
        group, net, objects = group_for(kind, seed)
        if on_edge:
            query = _edge_position(net, np.random.default_rng(query))
        truth = true_distances(net, resolve_location(net, query), objects)
        want = sorted(truth.values())[:k]
        result = group.knn(query, k, variant=variant)
        got = sorted((n.distance, n.oid) for n in result.neighbors)
        assert len({oid for _, oid in got}) == len(got) == len(want)
        for distance, oid in got:
            np.testing.assert_allclose(distance, truth[oid], rtol=1e-9)
        np.testing.assert_allclose([d for d, _ in got], want, rtol=1e-9)

    try:
        check()
        if obtained == "mmap":
            assert list(tmp.iterdir()) == []
    finally:
        for group, _, _ in groups.values():
            group.close()
    assert list(tmp.iterdir()) == []


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 3),
    query=st.integers(0, 59),
    k=st.integers(1, 10),
    obj_seed=st.integers(0, 5),
)
def test_knn_m_set_equals_ine_set(seed, query, k, obj_seed):
    """kNN-M returns the same k-set as exact INE (order may differ)."""
    net, index, D = setup(seed)
    objects = random_vertex_objects(net, count=20, seed=obj_seed)
    oi = ObjectIndex(net, objects, index.embedding)
    a = knn_m(index, oi, query, k, exact=True)
    b = ine_knn(oi, query, k)
    np.testing.assert_allclose(
        sorted(n.distance for n in a.neighbors),
        sorted(n.distance for n in b.neighbors),
        rtol=1e-6,
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 3),
    u=st.integers(0, 59),
    v=st.integers(0, 59),
)
def test_interval_refinement_invariants(seed, u, v):
    """Containment + monotonicity + exact termination for any pair."""
    net, index, D = setup(seed)
    r = index.refinable(u, v)
    truth = float(D[u, v])
    prev = r.interval
    assert prev.lo - 1e-9 <= truth <= prev.hi + 1e-9
    steps = 0
    while r.refine():
        cur = r.interval
        assert cur.lo >= prev.lo - 1e-12
        assert cur.hi <= prev.hi + 1e-12
        assert cur.lo - 1e-9 <= truth <= cur.hi + 1e-9
        prev = cur
        steps += 1
        assert steps <= net.num_vertices
    assert r.acc == pytest.approx(truth, rel=1e-9, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3), source=st.integers(0, 59))
def test_quadtree_encodes_true_first_hops(seed, source):
    """Every vertex lookup in every shortest-path quadtree is correct."""
    net, index, D = setup(seed)
    from repro.network.dijkstra import shortest_path_tree

    tree = shortest_path_tree(net, source)
    for v in range(net.num_vertices):
        if v == source:
            continue
        hop = index.next_hop(source, v)
        assert hop == tree.path_to(v)[1]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 3),
    query=st.integers(0, 59),
    k=st.integers(1, 8),
    obj_seed=st.integers(0, 3),
)
def test_neighbor_intervals_always_contain_truth(seed, query, k, obj_seed):
    """Without exact resolution, reported intervals still bound truth."""
    net, index, D = setup(seed)
    objects = random_vertex_objects(net, count=15, seed=obj_seed)
    oi = ObjectIndex(net, objects, index.embedding)
    result = knn(index, oi, query, k)  # exact=False
    lookup = {o.oid: float(D[query, o.position.vertex]) for o in objects}
    for n in result.neighbors:
        assert n.interval.lo - 1e-9 <= lookup[n.oid] <= n.interval.hi + 1e-9


# ----------------------------------------------------------------------
# The exact finish is the stepwise refinement, minus the intervals
# ----------------------------------------------------------------------
def assembled(net, embedding, codes) -> SILCIndex:
    """An index put together from the builder's chunks directly: what
    ``SILCIndex.build`` does, minus its choice of grid and its refusal
    of a network that is not strongly connected."""
    store = FlatStore.from_chunks(
        net.num_vertices, SPQuadtreeBuilder(net, embedding, codes).chunks()
    )
    return SILCIndex(net, embedding, codes, store.validate())


def cut_in_two(seed: int):
    """``(network, index, distances)`` for road network ``seed`` with
    every street crossing its median x removed: two components, an
    unreachable vertex coloured -1."""
    key = ("cut", seed)
    if key not in _CACHE:
        whole = road_like_network(60, seed=seed)
        median = float(np.median(whole.xs))
        net = whole.without_edges(
            (u, v) for u, v, _ in whole.iter_edges()
            if (whole.xs[u] < median) != (whole.xs[v] < median)
        )
        index = assembled(net, *choose_grid_order(net))
        _CACHE[key] = (net, index, distance_matrix(net))
    return _CACHE[key]


def walked(index, s, t, prefix):
    """``prefix`` stepwise refinements of ``s -> t``, then
    ``refine_fully``: ``(distance, counter total, vias, pages accessed)``."""
    simulator = index.make_storage()
    pages, real_access = [], simulator.access
    simulator.access = lambda page: pages.append(page) or real_access(page)
    index.attach_storage(simulator)
    try:
        counter = RefinementCounter()
        state = index.refinable(s, t, counter)
        trail = [s]
        for _ in range(prefix):
            assert state.refine()
            trail.append(state.via)
        distance = state.refine_fully(trail=trail)
        assert state.via == t and state.lo == state.hi == state.acc == distance
        assert not state.refine()
    finally:
        index.detach_storage()
    return distance, counter.count, trail, pages


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS) + ["cut"]),
    seed=st.integers(0, 3),
    s=st.integers(0, 59),
    t=st.integers(0, 59),
)
def test_exact_finish_from_any_prefix_is_the_stepwise_refinement(kind, seed, s, t):
    net, index, D = cut_in_two(seed) if kind == "cut" else setup(seed, kind)
    if np.isinf(D[s, t]):
        # The other component: the first hop is -1, and the walk names
        # the failure exactly as a refinement step does.
        with pytest.raises(EdgeNotFound) as stepwise:
            index.refinable(s, t).refine()
        with pytest.raises(EdgeNotFound) as walk:
            index.refinable(s, t).refine_fully()
        assert str(walk.value) == str(stepwise.value) == f"'no edge {s} -> -1'"
        return
    links = len(index.path(s, t)) - 1
    stepwise = walked(index, s, t, links)  # refine_fully has nothing left
    assert stepwise[0] == pytest.approx(float(D[s, t]), rel=1e-9, abs=1e-12)
    assert stepwise[1] == links and stepwise[2] == index.path(s, t)
    assert len(stepwise[3]) == links  # one page per probe, none for the last link
    for prefix in range(links):
        assert walked(index, s, t, prefix) == stepwise, prefix
    assert index.route(s, t) == (stepwise[2], stepwise[0])
    assert index.distance(s, t) == stepwise[0]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    seed=st.integers(0, 3),
    s=st.integers(0, 59),
    t=st.integers(0, 59),
)
def test_a_single_alternative_is_its_own_state(kind, seed, s, t):
    """What a vertex query queues for a vertex object -- the bare
    component -- and the min-of-alternatives wrapper over that one
    component agree on the bounds after every step."""
    net, index, D = setup(seed, kind)
    bare = index.refinable(s, t)
    wrapped = ObjectDistanceState(7, [index.refinable(s, t)])
    assert (wrapped.lo, wrapped.hi) == (bare.lo, bare.hi)
    while bare.refine():
        wrapped.refine()
        assert (wrapped.lo, wrapped.hi) == (bare.lo, bare.hi)
    assert wrapped.refine() is False
    assert wrapped.refine_fully() == bare.refine_fully() == bare.acc


@pytest.mark.parametrize("seed", range(4))
def test_leaving_the_built_sources_is_path_not_found_either_way(seed):
    """An index built for the western half only: a path that leaves it
    meets an empty table, and both finishes say so in the same words."""
    net = setup(seed)[0]
    west = np.flatnonzero(net.xs < np.median(net.xs)).tolist()
    index = SILCIndex.build(net, sources=west)
    full = setup(seed)[1]
    raised = 0
    for s in west[:10]:
        for t in range(net.num_vertices):
            path = full.path(s, t)
            if set(path[:-1]) <= set(west):
                assert index.distance(s, t) == full.distance(s, t)
                continue
            state = index.refinable(s, t)
            with pytest.raises(PathNotFound) as stepwise:
                while state.refine():
                    pass
            with pytest.raises(PathNotFound) as walk:
                index.refinable(s, t).refine_fully()
            assert str(walk.value) == str(stepwise.value)
            raised += 1
    assert raised


# ----------------------------------------------------------------------
# Margins: each is removed in-test to show what it is holding
# ----------------------------------------------------------------------
#: A grid aligned to integer coordinates: every vertex sits on its
#: cell's lower-left corner, so MINDIST from a vertex below and to the
#: left of it to that cell is the Euclidean distance.
ALIGNED = GridEmbedding(Rect(0.0, 0.0, 16.0, 16.0), 4)


def aligned_index(net) -> SILCIndex:
    return assembled(net, ALIGNED, ALIGNED.morton_of_array(net.xs, net.ys).astype(np.int64))


def expelled(index) -> tuple[int, int]:
    """``(intervals, block bounds)`` over every ordered pair that do not
    contain the true distance."""
    net = index.network
    D = distance_matrix(net)
    intervals = blocks = 0
    for s in range(net.num_vertices):
        column = index.bound_column(s)
        for t in range(net.num_vertices):
            if s == t:
                continue
            _, lo, hi = index.hop_and_interval(s, t)
            intervals += not (lo <= D[s, t] <= hi)
            bound = index.block_lower_bound(
                s, int(index.vertex_codes[t]), 0, column=column
            )
            blocks += bound > D[s, t]
    return intervals, blocks


def test_outward_rounding_is_what_keeps_float32_lambdas_sound(monkeypatch):
    """On the 9 x 9 unit lattice the lambdas cast to the *nearest*
    float32 put ``lambda * d_E`` up to half an ulp of float32 on the
    wrong side of the integer distance: far more than the pad covers.
    Rounding ``lam_min`` down and ``lam_max`` up keeps every interval
    and block bound sound with the pad as it is."""
    net = grid_network(9, 9)
    assert expelled(aligned_index(net)) == (0, 0)
    monkeypatch.setattr(
        region, "narrow_lambda",
        lambda lo, hi: (np.asarray(lo).astype(np.float32), np.asarray(hi).astype(np.float32)),
    )
    intervals, blocks = expelled(aligned_index(net))
    assert intervals > 0 and blocks > 0


def test_rel_pad_is_what_keeps_the_truth_inside(monkeypatch):
    """One street from (0, 0) to (1, 3) whose length makes its ratio to
    the Euclidean distance exactly 1.25 in float64 -- exact in float32,
    so narrowing leaves it alone -- while ``1.25 * d_E`` rounds one ulp
    above the length: only the pad keeps the interval and the block
    bound, both ways along the street, sound."""
    d_e = math.hypot(1.0, 3.0)
    length = math.nextafter(1.25 * d_e, 0.0)
    assert length / d_e == 1.25 and 1.25 * d_e > length
    net = SpatialNetwork([0.0, 1.0], [0.0, 3.0], [(0, 1, length), (1, 0, length)])
    index = aligned_index(net)
    assert [index.tables[s].lookup(int(index.vertex_codes[1 - s]))[1:3]
            for s in (0, 1)] == [(1.25, 1.25)] * 2
    assert expelled(index) == (0, 0)
    monkeypatch.setattr(silc_index, "_REL_PAD", 0.0)
    assert expelled(index) == (2, 1)
