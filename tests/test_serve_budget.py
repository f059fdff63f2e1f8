"""Counted tripwires for the fixed cost of a served request.

Sibling of ``tests/test_kernel_budget.py``: wall-clock says nothing
reliable in a unit test, counts do.  Three things are pinned here:

* **hops** -- one ``AsyncEngine`` hand-off per ``knn`` / ``distance`` /
  ``path`` request and one per ``knn_batch`` chunk, three event-loop
  turns and no task per closed-loop request, and no serving thread at
  all: no executor, reader or worker thread while serving or after EOF;
* **``SILCIndex.route``** -- bitwise ``(path(), distance())`` from one
  walk, with the checks of both kept;
* **INE** -- golden digests of answers and every counted operation,
  recorded at the commit *before* the per-query scans of the object set
  moved into ``ObjectIndex`` (re-record with ``PYTHONPATH=src python
  tests/test_serve_budget.py`` only for a change meant to move them).
"""

from __future__ import annotations

import asyncio
import hashlib
import threading

import numpy as np
import pytest
import test_kernel_parity as kernel_parity

from repro.datasets import random_edge_objects, random_vertex_objects
from repro.engine import QueryEngine
from repro.network import VertexNotFound, road_like_network
from repro.objects import EdgePosition, ObjectIndex, ObjectSet
from repro.objects.model import position_parts
from repro.query.ine import ine_knn
from repro.query.location import same_edge_direct
from repro.serve import AsyncEngine, FairScheduler
from repro.silc import SILCIndex
from repro.storage import NetworkStorageModel

# ----------------------------------------------------------------------
# Hops per request
# ----------------------------------------------------------------------

CHUNK = 4


def _count_hand_offs(async_engine) -> list:
    """Wrap the engine's one hand-off so every call is recorded."""
    handed = []
    run = async_engine._run

    def counting_run(done, fn, *args, **kwargs):
        handed.append(fn)
        return run(done, fn, *args, **kwargs)

    async_engine._run = counting_run
    return handed


def _count_calls(monkeypatch, name) -> list:
    """Count calls of ``asyncio.BaseEventLoop.<name>`` on any loop."""
    calls = []
    real = getattr(asyncio.BaseEventLoop, name)

    def counting(self, *args, **kwargs):
        calls.append(name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(asyncio.BaseEventLoop, name, counting)
    return calls


def test_one_executor_trip_per_request_and_per_batch_chunk(
    small_index, small_object_index, piped_serve, monkeypatch
):
    """(The id dates from when the hand-off was an executor submission;
    a trip is now one ``AsyncEngine._run``: the call inline, its
    outcome delivered a loop turn later.)"""
    engine = QueryEngine(small_index, small_object_index, cache_fraction=0.05)
    async_engine = AsyncEngine(engine)
    handed = _count_hand_offs(async_engine)
    piped = piped_serve(async_engine, scheduler=FairScheduler(chunk_size=CHUNK))
    requests = [
        ({"id": 1, "kind": "knn", "query": 7, "k": 3}, 1),
        ({"id": 2, "kind": "distance", "source": 0, "target": 140}, 1),
        ({"id": 3, "kind": "path", "source": 0, "target": 140}, 1),
        ({"id": 4, "kind": "knn_batch", "queries": list(range(10)), "k": 2}, 3),
        ({"id": 5, "kind": "stats"}, 0),
    ]
    for request, trips in requests:
        before = len(handed)
        assert piped.ask(request)["status"] == "ok"
        assert len(handed) - before == trips, request["kind"]
    # Loop turns per closed-loop request: the line comes in, the pump
    # dispatches, the reply goes out (3.0 measured; 6.9 with a task per
    # request and a dispatcher task).  The loop may or may not have
    # entered the next turn's select() when a reply is read, hence a
    # mean over a run and not a count per request.
    turns = _count_calls(monkeypatch, "_run_once")
    tasks = _count_calls(monkeypatch, "create_task")
    rounds = 20
    for request, _ in requests[:3]:
        before = len(turns)
        for _ in range(rounds):
            assert piped.ask(request)["status"] == "ok"
        assert (len(turns) - before) / rounds < 3.5, request["kind"]
    assert not tasks  # no task per request (nor a dispatcher's)
    # The loop reads, queries and writes on its own thread: there is no
    # reader or worker thread, and nothing went through an executor (the
    # loop's default one names its threads asyncio_N).
    names = [t.name for t in threading.enumerate()]
    assert not [n for n in names if n.startswith(("asyncio_", "ThreadPoolExecutor"))]
    assert not [n for n in names if n.startswith("repro-serve")]
    piped.close()
    assert not [t.name for t in threading.enumerate() if t.name.startswith("repro-serve")]


# ----------------------------------------------------------------------
# route() == (path(), distance())
# ----------------------------------------------------------------------

def test_route_is_bitwise_path_and_distance(small_net, small_index):
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, small_net.num_vertices, size=(300, 2)).tolist()
    pairs += [(v, v) for v in (0, 17, 149)]
    for source, target in pairs:
        path, distance = small_index.route(source, target)
        assert path == small_index.path(source, target)
        assert distance.hex() == small_index.distance(source, target).hex()
    assert small_index.route(5, 5) == ([5], 0.0)


_far_pair = kernel_parity.TestChecksKept._far_pair
_corrupt = kernel_parity.TestChecksKept._corrupt


class TestRouteChecksKept:
    """``route`` refuses what ``path`` and ``distance`` refused."""

    @pytest.fixture()
    def index(self, grid_net):
        return SILCIndex.build(grid_net)  # private: the tests corrupt it

    def test_next_hop_cycle_raises_paths_error(self, grid_net, index):
        source, hop, target = _far_pair(index)
        assert grid_net.has_edge(hop, source)
        _corrupt(index, hop, target, "colors", source)  # source<->hop
        with pytest.raises(RuntimeError) as from_path:
            index.path(source, target)
        with pytest.raises(RuntimeError) as from_route:
            index.route(source, target)
        assert str(from_route.value) == str(from_path.value)

    @pytest.mark.parametrize("bad", [float("nan"), -1e9])
    def test_bad_lam_min_raises_distances_error(self, index, bad):
        source, hop, target = _far_pair(index)
        _corrupt(index, hop, target, "lam_min", bad)
        with pytest.raises(ValueError) as from_distance:
            index.distance(source, target)
        with pytest.raises(ValueError) as from_route:
            index.route(source, target)
        assert str(from_route.value) == str(from_distance.value)

    def test_unknown_vertex_rejected(self, index):
        with pytest.raises(VertexNotFound):
            index.route(0, 10_000)


# ----------------------------------------------------------------------
# INE parity
# ----------------------------------------------------------------------

KS = (1, 4, 25)

#: Re-recorded once: ``same_edge_direct`` learned the two along-edge
#: cases it missed (an object upstream on the query's own edge, reached
#: back along the reverse edge; one on the reverse edge that lies
#: downstream along the query's edge).  Only the two ``edge-query``
#: cells over edge and extent objects moved, paged and unpaged; before,
#: 36 of the 168 (query, k) answers behind all twelve cells named a
#: farther object, and after, none does (checked against Dijkstra over
#: the network cut at every object and query point).  Narrowing the
#: block columns to uint32 codes and outward-rounded float32 lambdas
#: moved no field of any cell: INE reads adjacency lists and pages of
#: the network, never a lambda.  Nor did the 17-byte block record: the
#: network's pages keep their own record sizes.
GOLDEN: dict[str, str] = {
    "vertex-objects/vertex-query/paged": "708ace8381174a4c",
    "vertex-objects/vertex-query/unpaged": "48611403774ca8f9",
    "vertex-objects/edge-query/paged": "32a7944366f0caa1",
    "vertex-objects/edge-query/unpaged": "7c80e622f24c47c5",
    "edge-objects/vertex-query/paged": "4cb3443b6d6e037d",
    "edge-objects/vertex-query/unpaged": "75766e955c73eafb",
    "edge-objects/edge-query/paged": "1fe90de389a19624",
    "edge-objects/edge-query/unpaged": "02ee0bbb5a8a854f",
    "extent-objects/vertex-query/paged": "7f85274265149f22",
    "extent-objects/vertex-query/unpaged": "d1b0ed1f3e8ffd60",
    "extent-objects/edge-query/paged": "a1db53bc72b7d237",
    "extent-objects/edge-query/unpaged": "7d7679ef3981a6da",
}


def _edge_placements(net, rng, count):
    edges = list(net.iter_edges())
    return [
        (*edges[int(rng.integers(len(edges)))][:2], float(rng.uniform(0.1, 0.9)))
        for _ in range(count)
    ]


def _scenarios(net):
    """``name -> (object set, vertex queries, edge-position queries)``.

    The edge queries are built *from the objects' own edges*, so the
    same-edge cases occur: the object downstream of the query on the
    same directed edge, upstream of it (back along the reverse edge),
    and on the opposite orientation of the same segment -- next to
    queries on edges that carry no object at all.
    """
    rng = np.random.default_rng(41)
    vertices = [int(v) for v in rng.integers(0, net.num_vertices, size=6)]
    placements = _edge_placements(net, rng, 30)
    extent_objects = kernel_parity._extent_objects(net, rng)
    vertex_objects = random_vertex_objects(net, count=40, seed=5)
    object_vertices = [o.position.vertex for o in vertex_objects][:3]

    def around(a, b, f):
        queries = [EdgePosition(a, b, f / 2), EdgePosition(a, b, (1 + f) / 2)]
        if net.has_edge(b, a):
            queries += [EdgePosition(b, a, 1 - f / 2), EdgePosition(b, a, (1 - f) / 2)]
        return queries

    elsewhere = [EdgePosition(*p) for p in _edge_placements(net, rng, 3)]
    edge_parts = [
        p for o in extent_objects for p in position_parts(o.position)
        if isinstance(p, EdgePosition)
    ]
    return {
        "vertex": (vertex_objects, vertices + object_vertices, elsewhere),
        "edge": (
            ObjectSet.on_edges(net, placements),
            vertices + [placements[0][0], placements[1][1]],
            [q for p in placements[:3] for q in around(*p)] + elsewhere,
        ),
        "extent": (
            extent_objects,
            vertices,
            [q for p in edge_parts[:3] for q in around(p.a, p.b, p.fraction)]
            + elsewhere,
        ),
    }


def _record(result) -> tuple:
    s = result.stats
    return (
        tuple(n.oid for n in result.neighbors),
        tuple(n.distance.hex() for n in result.neighbors),
        s.settled,
        s.relaxed,
        s.index_probes,
        s.max_queue,
        s.io_accesses,
        s.io_misses,
    )


def compute_digests(net, embedding) -> dict[str, str]:
    """One digest per (objects, query kind, storage) over k and queries."""
    digests = {}
    for name, (objects, vertex_queries, edge_queries) in _scenarios(net).items():
        object_index = ObjectIndex(net, objects, embedding)
        for kind, queries in (("vertex", vertex_queries), ("edge", edge_queries)):
            for storage in ("paged", "unpaged"):
                # A fresh page model per cell: the LRU state a query
                # meets depends only on the queries before it here.
                model = (
                    NetworkStorageModel(net, page_size=256, cache_fraction=0.1)
                    if storage == "paged" else None
                )
                records = [
                    _record(ine_knn(object_index, q, k, storage=model))
                    for k in KS
                    for q in queries
                ]
                digests[f"{name}-objects/{kind}-query/{storage}"] = hashlib.sha256(
                    repr(records).encode()
                ).hexdigest()[:16]
    return digests


def test_ine_answers_and_counted_ops_match_golden(small_net, small_index):
    assert compute_digests(small_net, small_index.embedding) == GOLDEN


def test_ine_scenarios_cover_the_same_edge_cases(small_net):
    """The golden table is only worth its cases: check they occur."""
    for name in ("edge", "extent"):
        objects, _, edge_queries = _scenarios(small_net)[name]
        direct = [
            same_edge_direct(small_net, q, o.position) is not None
            for q in edge_queries for o in objects
        ]
        assert 2 <= sum(direct) < len(direct)
    objects, vertex_queries, _ = _scenarios(small_net)["vertex"]
    occupied = {o.position.vertex for o in objects}
    assert occupied & set(vertex_queries) and set(vertex_queries) - occupied


def test_object_index_tables_match_a_per_query_scan(small_net, small_index):
    """The hoisted tables against the loops INE ran per query, verbatim."""
    for objects, _, _ in _scenarios(small_net).values():
        object_index = ObjectIndex(small_net, objects, small_index.embedding)
        candidates: dict[int, list[tuple[int, float]]] = {}
        for obj in objects:
            for pos in position_parts(obj.position):
                if not isinstance(pos, EdgePosition):
                    continue
                w_fwd = small_net.edge_weight(pos.a, pos.b)
                candidates.setdefault(pos.a, []).append((obj.oid, pos.fraction * w_fwd))
                if small_net.has_edge(pos.b, pos.a):
                    w_rev = small_net.edge_weight(pos.b, pos.a)
                    candidates.setdefault(pos.b, []).append(
                        (obj.oid, (1.0 - pos.fraction) * w_rev)
                    )
        assert dict(object_index.edge_candidates) == candidates
        assert [o.oid for o in object_index.edge_objects] == [
            o.oid for o in objects
            if any(isinstance(p, EdgePosition) for p in position_parts(o.position))
        ]


if __name__ == "__main__":
    net = road_like_network(150, seed=9)
    for key, value in compute_digests(net, SILCIndex.build(net).embedding).items():
        print(f'    "{key}": "{value}",')
