"""Golden parity of the kNN kernel: answers and every counted op.

The digests below were recorded at the commit *before* the kernel was
flattened (scalar refinement state, one block-bound column per query
anchor).  Any change to an answer, a distance bit, or a counted
operation -- refinements, queue traffic, ``L`` operations, simulated
page accesses -- changes a digest.  Re-record only for a change that
is *meant* to move them (``PYTHONPATH=src python
tests/test_kernel_parity.py`` prints the table) and say so in
CHANGES.md.

Re-recorded since:

1. The ``knn`` re-enqueue test became ``<=`` (the k-th-entry tie fix),
   which moved ``queue_pushes`` by +1 on one edge-scenario and one
   extent-scenario query -- the four ``edge|extent/*/knn`` digests --
   and nothing else.
2. Each cell was split into ``.../exact`` and ``.../bounds``
   (``exact=False``), every query run both ways against its own fresh
   simulator; the split digests were recorded on the search as it then
   stood.  Then an exact ``knn`` began walking a colliding object inside
   ``Dk`` to exact in one call: the six ``*/knn/exact`` digests and the
   four ``knn`` control-flow cells moved, every ``bounds`` digest and
   every ``inn`` / ``knn_i`` / ``knn_m`` digest stayed.  Answers stayed
   too, ids and distance bits, except the order among exactly equal
   distances in ``ties/knn`` (same objects, same distances).  Last,
   ``L`` was no longer rewritten when a step left an upper bound where
   it was: that moved ``l_ops`` alone, in every ``knn`` digest
   (``bounds`` included), and no other field of any record.
3. The four ``cap/*`` control-flow cells went with the kernel's
   ``max_distance`` cap, whose only caller was the partitioned shard
   router; no other digest moved.
4. The lambda columns became float32 rounded outward (the codes
   uint32): every bound widens by at most one float32 ulp of lambda.
   Of the 48 cells, the 24 ``bounds`` cells moved in their intervals
   and the 12 ``*/knn/*`` cells in ``l_ops``; no other field of any
   record moved, so every ``exact`` answer (ids and distance bits),
   refinement, collision, queue push and page count held.  All twelve
   control-flow cells moved in their ``exact=False`` intervals, and
   ``k_ge_s/knn`` / ``proximal/knn`` in ``l_ops``.  On the tie grid the
   wider bounds change which of two objects at an equal bound is queued
   first: the order among exactly equal distances moved, and with it,
   where the k-th distance is tied, which of the tied objects is
   reported (the distances reported are the same lists, bit for bit),
   plus a few refinements, pushes and page misses.
5. ``PageLayout.record_bytes`` became the column bytes, 17 in place of
   16 (240 records per page instead of 256).  No digest moved: no table
   here has more than 68 rows, so every row keeps its page.  On the
   1000-vertex benchmark network, where tables reach past 240 rows,
   only ``io_accesses`` / ``io_misses`` move.
6. On a network whose every edge has a reverse of the same weight, a
   vertex query for ``HOME_MIN_K`` (10) or more neighbours walks a
   vertex object to exact from the object back toward the query,
   stopping at the first vertex an earlier walk of the query passed.
   The eight ``vertex/*/exact`` digests (their k = 25 queries) and the
   twelve control-flow cells moved, in ``refinements`` (exact ``knn``
   only), ``extras["post_refinements"]`` and the simulated pages alone:
   every answer (ids, intervals, distance bits), queue push, collision,
   confirmation, ``L`` operation and peak queue held, on the tie grid
   too.  The ``edge`` and ``extent`` cells (edge-position queries,
   objects reached more than one way) walk forward and held.
7. Where item 6 applies and the search is exact, every variant walks a
   colliding vertex object home in one call instead of stepping it
   (``knn`` walked only one already inside ``Dk``).  The eight
   ``vertex/*/exact`` digests (their k = 25 queries) and ten
   control-flow cells moved: ``proximal/knn``, and the ``k_ge_s``,
   ``ties`` and ``proximal`` cells of ``inn`` / ``knn_i`` / ``knn_m``
   (their exact k >= 10 queries).  Field by field against the parent
   only ``refinements``, ``post_refinements``, ``queue_pushes``,
   ``collisions``, ``l_ops`` (``knn``), simulated pages and, in one
   ``knn`` query (both storages), one confirmation that became a
   fallback-fill entry moved; every ``bounds`` digest, every ``edge``
   / ``extent`` digest and every k < 10 record held, and so did every
   answer's ids and distance bits -- except kNN-M's unordered answers, which come in
   another order (same set), and on the tie grid, where at k = |S| = 16
   the order among exactly equal distances moved (the same distance
   lists, bit for bit).  Two ``k_ge_s/knn_m`` records at
   ``exact=False`` moved in ``io_misses`` alone: the cell's one
   simulator carries the LRU state the exact queries before them left.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.datasets import random_vertex_objects
from repro.geometry.morton import block_cells
from repro.network.errors import EdgeNotFound, VertexNotFound
from repro.network import SpatialNetwork, grid_network, road_like_network
from repro.errors import DeadlineExceeded
from repro.objects.model import EdgePosition, ObjectSet, VertexPosition
from repro.objects import ObjectIndex
from repro.oracle import PrunedLabellingOracle
from repro.query import bestfirst
from repro.query.bestfirst import VARIANTS, best_first_knn
from repro.query.ier import ier_knn
from repro.query.ine import ine_knn
from repro.query.distances import QueryHandle
from repro.query.location import resolve_location
from repro.silc.proximal import ProximalSILCIndex, BEYOND, BeyondHorizonError
from repro.silc import SILCIndex
from repro.silc.index import _REL_PAD
from repro.silc.intervals import checked_bounds
from repro.silc.refinement import RefinableDistance, RefinementCounter
from repro.storage import NetworkStorageModel
from test_properties import one_way
from reference import objects_with_extents, random_edge_objects, table_of

KS = (1, 5, 25)

GOLDEN: dict[str, str] = {
    "vertex/attached/knn/exact": "639aeed7ac3a15c2",
    "vertex/attached/knn/bounds": "449e8049cbae628f",
    "vertex/attached/inn/exact": "3548a4b3fa92c40a",
    "vertex/attached/inn/bounds": "6c6196850a4a8486",
    "vertex/attached/knn_i/exact": "0fc0ff0e7ddbee9f",
    "vertex/attached/knn_i/bounds": "b661a167ef645208",
    "vertex/attached/knn_m/exact": "24a0a58ce12fe2b0",
    "vertex/attached/knn_m/bounds": "9530e176f986f868",
    "vertex/detached/knn/exact": "1d82c0e4766b152d",
    "vertex/detached/knn/bounds": "1834a3b0bbed8b5b",
    "vertex/detached/inn/exact": "bf475e86f4ed3d37",
    "vertex/detached/inn/bounds": "451bf3f9d571329d",
    "vertex/detached/knn_i/exact": "40798dd9798ed756",
    "vertex/detached/knn_i/bounds": "20e9b8478b87b192",
    "vertex/detached/knn_m/exact": "cbd54fe0d119a696",
    "vertex/detached/knn_m/bounds": "6ada63a703331c27",
    "edge/attached/knn/exact": "7dcd3e7b0d5de160",
    "edge/attached/knn/bounds": "dbb489f9a52c6989",
    "edge/attached/inn/exact": "5f1b5ca23d059295",
    "edge/attached/inn/bounds": "5ea352d9d683fd91",
    "edge/attached/knn_i/exact": "4b4ee2a4fc39f6c3",
    "edge/attached/knn_i/bounds": "dbe413d235973173",
    "edge/attached/knn_m/exact": "dd0f77fbe23bb2e7",
    "edge/attached/knn_m/bounds": "88a602f4f72713b7",
    "edge/detached/knn/exact": "20c9640f816b253c",
    "edge/detached/knn/bounds": "d5c6382548d5b3df",
    "edge/detached/inn/exact": "a9df8e74c709973b",
    "edge/detached/inn/bounds": "0552636141aa310d",
    "edge/detached/knn_i/exact": "e3f99ed67a577f0c",
    "edge/detached/knn_i/bounds": "e5da742f21f32838",
    "edge/detached/knn_m/exact": "593d57e10ca5f4e3",
    "edge/detached/knn_m/bounds": "667579b772d32b34",
    "extent/attached/knn/exact": "8b577c8526c8ee2b",
    "extent/attached/knn/bounds": "fc1d8d057bd8d8bd",
    "extent/attached/inn/exact": "525b251d7d680ec2",
    "extent/attached/inn/bounds": "5285de8f0298066d",
    "extent/attached/knn_i/exact": "c3a070b140a94829",
    "extent/attached/knn_i/bounds": "e3b92c4efb3497d0",
    "extent/attached/knn_m/exact": "bd232d7b5a151c08",
    "extent/attached/knn_m/bounds": "e03febeca045108c",
    "extent/detached/knn/exact": "c066f5ca33d46870",
    "extent/detached/knn/bounds": "fa5c12025f95a67b",
    "extent/detached/inn/exact": "6cf2d4a5e76ce065",
    "extent/detached/inn/bounds": "4b2c040ac8f8440d",
    "extent/detached/knn_i/exact": "77eb87bf7de01c41",
    "extent/detached/knn_i/bounds": "b491648ed0dcdad9",
    "extent/detached/knn_m/exact": "02c5773d3ddbeb1b",
    "extent/detached/knn_m/bounds": "6a3eec7cc71beed2",
}


def _extent_objects(net, rng, count=12, parts_per=3) -> ObjectSet:
    extents = []
    for _ in range(count):
        parts = []
        for _ in range(parts_per):
            u = int(rng.integers(0, net.num_vertices))
            if rng.random() < 0.5:
                parts.append(VertexPosition(u))
            else:
                v, _ = net.neighbors(u)[0]
                parts.append(EdgePosition(u, v, float(rng.uniform(0.1, 0.9))))
        extents.append(parts)
    return objects_with_extents(net, extents)


def _scenarios(net):
    """``name -> (object set, query locations)``, all seeded."""
    rng = np.random.default_rng(77)
    vertices = [int(v) for v in rng.integers(0, net.num_vertices, size=6)]
    edge_queries = []
    for u in (int(v) for v in rng.integers(0, net.num_vertices, size=6)):
        v, _ = net.neighbors(u)[0]
        edge_queries.append(EdgePosition(u, v, float(rng.uniform(0.1, 0.9))))
    return {
        "vertex": (random_vertex_objects(net, count=40, seed=5), vertices),
        "edge": (random_edge_objects(net, count=30, seed=6), edge_queries),
        "extent": (_extent_objects(net, rng), vertices),
    }


def _record(result) -> tuple:
    s = result.stats
    return (
        tuple(n.oid for n in result.neighbors),
        tuple(
            (
                n.interval.lo.hex(),
                n.interval.hi.hex(),
                None if n.distance is None else n.distance.hex(),
            )
            for n in result.neighbors
        ),
        s.refinements,
        s.queue_pushes,
        s.collisions,
        s.confirmations,
        s.l_ops,
        s.max_queue,
        s.io_accesses,
        s.io_misses,
        tuple(sorted(s.extras.items())),
    )


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def compute_digests(net, index, **knn_kwargs) -> dict[str, str]:
    """One digest per (scenario, storage, variant, exact) over k and
    queries: ``exact`` answers and ``bounds`` (``exact=False``) ones."""
    digests = {}
    for name, (objects, queries) in _scenarios(net).items():
        object_index = ObjectIndex(net, objects, index.embedding)
        for storage in ("attached", "detached"):
            for variant in VARIANTS:
                for mode, exact in (("exact", True), ("bounds", False)):
                    # A fresh simulator per cell: the LRU state a query
                    # meets depends only on the queries before it here.
                    if storage == "attached":
                        index.attach_storage(index.make_storage(cache_fraction=0.05))
                    try:
                        records = [
                            _record(
                                best_first_knn(
                                    index, object_index, q, k,
                                    variant=variant, exact=exact, **knn_kwargs,
                                )
                            )
                            for k in KS
                            for q in queries
                        ]
                    finally:
                        index.detach_storage()
                    digests[f"{name}/{storage}/{variant}/{mode}"] = _digest(records)
    return digests


@pytest.fixture(scope="module")
def parity_net():
    return road_like_network(150, seed=9)


@pytest.fixture(scope="module")
def parity_index(parity_net):
    return SILCIndex.build(parity_net)


def test_answers_and_counted_ops_match_golden(parity_net, parity_index):
    got = compute_digests(parity_net, parity_index)
    assert got == GOLDEN


def test_generous_time_budget_changes_nothing(parity_net, parity_index):
    """The deadline is only ever checked, never used to steer."""
    got = compute_digests(parity_net, parity_index, time_budget=3600.0)
    assert got == GOLDEN


# ----------------------------------------------------------------------
# Control flow the 48 digests above do not reach
# ----------------------------------------------------------------------
#: Recorded at the commit before the pop loop kept a refined queue head
#: in hand instead of re-inserting and re-popping it: same record
#: format, one digest per (scenario, variant), storage attached.  The
#: four ``knn`` cells were re-recorded with the walk and the unmoved-``L``
#: skip, all twelve with the walk home, and ten when every exact
#: collision began walking home (see the module docstring).
GOLDEN_CONTROL_FLOW: dict[str, str] = {
    "k_ge_s/knn": "7adff7d638b9b053",
    "ties/knn": "72883e6426343d47",
    "proximal/knn": "2997f6efbb0f091d",
    "k_ge_s/inn": "863a82ea1d38d117",
    "ties/inn": "300691dad6caec32",
    "proximal/inn": "adf718b9b400e945",
    "k_ge_s/knn_i": "863a82ea1d38d117",
    "ties/knn_i": "bf654c0ef3c197dd",
    "proximal/knn_i": "d84597c15104784a",
    "k_ge_s/knn_m": "081ffa271f4d987b",
    "ties/knn_m": "113d12ac356259b4",
    "proximal/knn_m": "3445548bb0fac1bb",
}


def tie_grid_network(side=7, seed=11) -> SpatialNetwork:
    """A perfect lattice with integer weights in {1, 2, 3}: many pairs
    of vertices at exactly equal network distance."""
    rng = np.random.default_rng(seed)
    xs = [float(c) for _ in range(side) for c in range(side)]
    ys = [float(r) for r in range(side) for _ in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < side and c2 < side:
                    w = float(rng.integers(1, 4))
                    u, v = r * side + c, r2 * side + c2
                    edges += [(u, v, w), (v, u, w)]
    return SpatialNetwork(xs, ys, edges)


def tie_grid_setup():
    """``(index, object index)`` over the tie grid: two objects on some
    corners, and symmetric placements, so exact distances tie and L / Q
    order them by sequence number alone."""
    grid = tie_grid_network()
    index = SILCIndex.build(grid)
    objects = ObjectSet.at_vertices(
        grid, [0, 6, 42, 48, 24, 24, 10, 10, 38, 3, 21, 27, 45, 17, 31, 8]
    )
    return index, ObjectIndex(grid, objects, index.embedding)


def _run_cell(index, object_index, calls) -> str:
    """Digest of ``best_first_knn(index, object_index, *args, **kw)``
    over ``calls`` against a fresh simulator."""
    index.attach_storage(index.make_storage(cache_fraction=0.05))
    try:
        return _digest(
            [
                _record(best_first_knn(index, object_index, *args, **kwargs))
                for args, kwargs in calls
            ]
        )
    finally:
        index.detach_storage()


def compute_control_flow_digests(net, index) -> dict[str, str]:
    digests = {}
    objects, queries = _scenarios(net)["vertex"]
    few = ObjectIndex(
        net, random_vertex_objects(net, count=12, seed=8), index.embedding
    )
    few_edges = ObjectIndex(
        net, random_edge_objects(net, count=9, seed=8), index.embedding
    )
    # A horizon past the network's diameter: every probe answers, all
    # of them through the proximal override.
    proximal = ProximalSILCIndex.build(net, radius=1e9)
    proximal_objects = ObjectIndex(net, objects, proximal.embedding)
    grid_index, grid_objects = tie_grid_setup()
    for variant in VARIANTS:
        # k >= |S|: the loop drains Q and the fallback fill tops up.
        digests[f"k_ge_s/{variant}"] = _digest(
            [
                _run_cell(
                    index, small, [((q, k), dict(variant=variant, exact=bool(i % 2)))
                                   for k in ks for i, q in enumerate(queries)],
                )
                for small, ks in ((few, (12, 19)), (few_edges, (9, 14)))
            ]
        )
        digests[f"ties/{variant}"] = _run_cell(
            grid_index, grid_objects,
            [((q, k), dict(variant=variant, exact=bool((q + k) % 2)))
             for k in (1, 4, 9, 16) for q in range(0, 49, 3)],
        )
        digests[f"proximal/{variant}"] = _run_cell(
            proximal, proximal_objects,
            [((q, k), dict(variant=variant, exact=bool(i % 2)))
             for k in KS for i, q in enumerate(queries)],
        )
    return digests


def test_control_flow_digests_match_golden(parity_net, parity_index):
    got = compute_control_flow_digests(parity_net, parity_index)
    assert got == GOLDEN_CONTROL_FLOW


# ----------------------------------------------------------------------
# INE: answers and counted ops of the Dijkstra-ball baseline
# ----------------------------------------------------------------------
#: Recorded at the commit before INE became one frame per query over
#: ball-sized state (it ran on ``IncrementalDijkstra`` then).  One
#: digest per (cell, storage) over ``KS`` and the cell's queries:
#: ``none`` runs without a simulator, ``network`` against a fresh
#: ``NetworkStorageModel`` per cell.
GOLDEN_INE: dict[str, str] = {
    "vertex/none": "341ddd0b1c7c8719",
    "vertex/network": "43aa4a627b49d850",
    "edge/none": "c8865e5f545f74ec",
    "edge/network": "73b68cccc70964d1",
    "extent/none": "94d2770fb0648aa4",
    "extent/network": "de6f14df2b059e3e",
    "vertex_from_edges/none": "a87fe800fcbe58b9",
    "vertex_from_edges/network": "891b656bc89783b3",
    "extent_from_edges/none": "4600010f894d64b4",
    "extent_from_edges/network": "fb1d4de98bc77d79",
    "ties/none": "459706c88b4eed15",
    "ties/network": "9d19555896251652",
    "k_ge_s/vertex/none": "bf381efc09dd32a4",
    "k_ge_s/vertex/network": "4791d0dd55f97500",
    "k_ge_s/edge/none": "962c5719764c2f65",
    "k_ge_s/edge/network": "9a63c305eeb65093",
}


def _ine_record(result) -> tuple:
    s = result.stats
    return (
        tuple(n.oid for n in result.neighbors),
        tuple(n.distance.hex() for n in result.neighbors),
        s.settled,
        s.relaxed,
        s.index_probes,
        s.io_accesses,
        s.io_misses,
    )


def _ine_cells(net, embedding):
    """``name -> (object index, [(query, k), ...])``."""
    scenarios = _scenarios(net)
    vertex_objects, vertices = scenarios["vertex"]
    edge_queries = scenarios["edge"][1]
    grid_index, grid_objects = tie_grid_setup()
    cells = {
        name: (ObjectIndex(net, objects, embedding), [(q, k) for k in KS for q in queries])
        for name, (objects, queries) in scenarios.items()
    }
    # Edge-position queries against vertex objects and extents too.
    cells["vertex_from_edges"] = (
        ObjectIndex(net, vertex_objects, embedding),
        [(q, k) for k in KS for q in edge_queries],
    )
    cells["extent_from_edges"] = (
        ObjectIndex(net, scenarios["extent"][0], embedding),
        [(q, k) for k in KS for q in edge_queries],
    )
    cells["ties"] = (grid_objects, [(q, k) for k in KS for q in range(0, 49, 3)])
    # k >= |S|: the expansion drains the component.
    for name, objects, size in (
        ("k_ge_s/vertex", random_vertex_objects(net, count=12, seed=8), 12),
        ("k_ge_s/edge", random_edge_objects(net, count=9, seed=8), 9),
    ):
        cells[name] = (
            ObjectIndex(net, objects, embedding),
            [(q, k) for k in (size, size + 7) for q in vertices],
        )
    return cells


def compute_ine_digests(net, index) -> dict[str, str]:
    digests = {}
    for name, (object_index, calls) in _ine_cells(net, index.embedding).items():
        for storage in ("none", "network"):
            model = (
                NetworkStorageModel(object_index.network) if storage == "network" else None
            )
            digests[f"{name}/{storage}"] = _digest(
                [_ine_record(ine_knn(object_index, q, k, storage=model)) for q, k in calls]
            )
    return digests


def test_ine_answers_and_counted_ops_match_golden(parity_net, parity_index):
    assert compute_ine_digests(parity_net, parity_index) == GOLDEN_INE


# ----------------------------------------------------------------------
# IER: the Euclidean scan and its two refinements
# ----------------------------------------------------------------------
#: Recorded at the commit before IER's Dijkstra refinement moved out of
#: an oracle class into ``query/ier.py``.  One digest per (cell,
#: refinement, storage) over INE's cells: ``dijkstra`` is the default
#: multi-seed Dijkstra, ``labels`` a labelling built over the cell's
#: network; ``network`` runs against a fresh ``NetworkStorageModel``
#: (which the labelling refinement never touches: its ``network`` cells
#: equal its ``none`` ones).
GOLDEN_IER: dict[str, str] = {
    "vertex/dijkstra/none": "cf92dbec5c1fa923",
    "vertex/dijkstra/network": "cb725c6f363833c4",
    "vertex/labels/none": "6f00b0fcec8036f6",
    "vertex/labels/network": "6f00b0fcec8036f6",
    "edge/dijkstra/none": "162c88c633a22da5",
    "edge/dijkstra/network": "4b61cfe0ccda3ff8",
    "edge/labels/none": "33bd2e7f426966aa",
    "edge/labels/network": "33bd2e7f426966aa",
    "extent/dijkstra/none": "bc6ed6c5525675e0",
    "extent/dijkstra/network": "1f5bf1a993734dbc",
    "extent/labels/none": "f84257915794e6da",
    "extent/labels/network": "f84257915794e6da",
    "vertex_from_edges/dijkstra/none": "d4a2fcd22d770eab",
    "vertex_from_edges/dijkstra/network": "d43568f5588e5d81",
    "vertex_from_edges/labels/none": "0d6e087088b3012a",
    "vertex_from_edges/labels/network": "0d6e087088b3012a",
    "extent_from_edges/dijkstra/none": "963174b5d13cb717",
    "extent_from_edges/dijkstra/network": "c10fb2f16b69ac3c",
    "extent_from_edges/labels/none": "64f610bd90675fd5",
    "extent_from_edges/labels/network": "64f610bd90675fd5",
    "ties/dijkstra/none": "8ee6d4c08cb0364e",
    "ties/dijkstra/network": "f08b9e1332f8580a",
    "ties/labels/none": "ddf3374a634ee189",
    "ties/labels/network": "ddf3374a634ee189",
    "k_ge_s/vertex/dijkstra/none": "c8ff780950532903",
    "k_ge_s/vertex/dijkstra/network": "ca7798d6e7929967",
    "k_ge_s/vertex/labels/none": "55ad254699de892a",
    "k_ge_s/vertex/labels/network": "55ad254699de892a",
    "k_ge_s/edge/dijkstra/none": "c68004080cc73a74",
    "k_ge_s/edge/dijkstra/network": "24d4de45bc7644f8",
    "k_ge_s/edge/labels/none": "92bcd291ba0a2a7e",
    "k_ge_s/edge/labels/network": "92bcd291ba0a2a7e",
}


def _ier_record(result) -> tuple:
    s = result.stats
    return (
        tuple(n.oid for n in result.neighbors),
        tuple(n.distance.hex() for n in result.neighbors),
        s.settled,
        s.relaxed,
        s.nd_computations,
        s.label_scans,
        s.io_accesses,
        s.io_misses,
    )


def compute_ier_digests(net, index) -> dict[str, str]:
    digests = {}
    labellings = {}
    for name, (object_index, calls) in _ine_cells(net, index.embedding).items():
        network = object_index.network
        if id(network) not in labellings:
            labellings[id(network)] = PrunedLabellingOracle.build(network)
        for refine, oracle in (("dijkstra", None), ("labels", labellings[id(network)])):
            for storage in ("none", "network"):
                model = NetworkStorageModel(network) if storage == "network" else None
                digests[f"{name}/{refine}/{storage}"] = _digest([
                    _ier_record(ier_knn(object_index, q, k, storage=model, oracle=oracle))
                    for q, k in calls
                ])
    return digests


def test_ier_answers_and_counted_ops_match_golden(parity_net, parity_index):
    assert compute_ier_digests(parity_net, parity_index) == GOLDEN_IER


# ----------------------------------------------------------------------
# Head runs: a refined object still strictly ahead of everything queued
# is kept in hand instead of being pushed and popped straight back
# ----------------------------------------------------------------------
class _WatchedCounter(RefinementCounter):
    """A ``RefinementCounter`` whose every bump calls ``on_bump``: the
    kernel is observed through the counter it shares with its states,
    whatever classes those states are."""

    __slots__ = ("_count", "on_bump")

    def __init__(self, on_bump) -> None:
        self._count = 0
        self.on_bump = on_bump

    @property
    def count(self) -> int:
        return self._count

    @count.setter
    def count(self, value: int) -> None:
        self._count = value
        self.on_bump(value)


@pytest.fixture()
def loop_events(monkeypatch):
    """What the search loops run under this fixture did, in order:
    ``("refine", oid)`` per refinement step and ``("push", oid, tie)``
    per object that went onto the heap, ``tie`` when its bound equalled
    the head's.  Two refinements of one object with no push between
    them are a head run.  A step is seen when it bumps the query's
    refinement counter; the object refined is the one popped last (a
    head run pops nothing).  Only the search loop is told apart this
    way: the exact pass bumps the counter once per neighbour."""
    events: list[tuple] = []
    popped = []
    real_push, real_pop = bestfirst.heappush, bestfirst.heappop

    def heappush(heap, entry):
        if entry[2] == bestfirst._OBJECT:
            events.append(
                ("push", entry[3].oid, bool(heap) and entry[0] == heap[0][0])
            )
        real_push(heap, entry)

    def heappop(heap):
        entry = real_pop(heap)
        popped[:] = [entry[3]]
        return entry

    monkeypatch.setattr(bestfirst, "heappush", heappush)
    monkeypatch.setattr(bestfirst, "heappop", heappop)
    monkeypatch.setattr(
        bestfirst, "RefinementCounter",
        lambda: _WatchedCounter(lambda _: events.append(("refine", popped[0].oid))),
    )
    return events


def test_an_exact_tie_with_the_queue_head_goes_through_the_heap(loop_events):
    """Objects 6 and 7 share a corner, one link from vertex 3.  When 7
    is refined to its exact 1.0, object 6 -- queued earlier at the same
    1.0 -- is the head: 7 takes the larger sequence number and waits
    its turn, so the order of confirmation is the one recorded before
    head runs existed."""
    grid_index, object_index = tie_grid_setup()
    result = best_first_knn(grid_index, object_index, 3, 4, variant="inn")
    assert ("push", 7, True) in loop_events
    assert result.ids() == [9, 6, 7, 13]
    assert [n.interval.lo for n in result.neighbors[1:3]] == [1.0, 1.0]


#: ``deadline_reports`` of the two variants below, recorded at the
#: commit before head runs: the confirmed count each DeadlineExceeded
#: names when the clock jumps right after the R-th refinement,
#: R = 1, 2, ... ("-": the search finished without another check).
#: Then a run of 10s was the exact pass: the deadline is read between
#: neighbours there, and a neighbour's finish is one walk that bumps the
#: counter once, so a jump "inside" a walk is seen before the next
#: neighbour.  Since every exact search for HOME_MIN_K or more walks a
#: colliding vertex object home in one call, in every variant, a jump
#: inside a walk is seen at the next pop (the runs of equal reports),
#: and the links all fall inside the search -- the exact pass has
#: nothing left to walk.  Both variants now walk the same 41 links in
#: the same order of reports (``knn`` walked 40 before, ``inn`` stepped
#: 63).
GOLDEN_DEADLINE_REPORTS: dict[str, str] = {
    "knn": "0,0,0,1,1,1,1,1,2,2,4,6,6,6,6,6,6,6,6,6,6,6,6,6,6,7,7,7,7,7,7,"
    "9,9,9,9,9,9,9,9,9,9",
    "inn": "0,0,0,1,1,1,1,1,2,2,4,6,6,6,6,6,6,6,6,6,6,6,6,6,6,7,7,7,7,7,7,"
    "9,9,9,9,9,9,9,9,9,9",
}


def deadline_reports(index, object_index, query, k, variant) -> str:
    """One entry per refinement R of the search: what its
    DeadlineExceeded reports when the clock jumps past the deadline
    right after that refinement (as the query's counter shows it)."""
    real_counter = bestfirst.RefinementCounter
    real_clock = bestfirst.counted_clock
    refinements = 0

    def bumped(count):
        nonlocal refinements
        refinements = count

    bestfirst.RefinementCounter = lambda: _WatchedCounter(bumped)
    try:
        best_first_knn(index, object_index, query, k, variant=variant, exact=True)
        total, reports = refinements, []
        for jump_after in range(1, total + 1):
            refinements = 0
            bestfirst.counted_clock = (
                lambda: 1e9 if refinements >= jump_after else 0.0
            )
            try:
                best_first_knn(
                    index, object_index, query, k,
                    variant=variant, exact=True, time_budget=1.0,
                )
                reports.append("-")
            except DeadlineExceeded as exc:
                confirmed = str(exc).split("(")[1].split(" ")[0]
                assert str(exc) == (
                    "kNN search exceeded its 1.0000s budget "
                    f"({confirmed} of {k} neighbors confirmed)"
                )
                reports.append(confirmed)
    finally:
        bestfirst.RefinementCounter = real_counter
        bestfirst.counted_clock = real_clock
    return ",".join(reports)


@pytest.mark.parametrize("variant", ["knn", "inn"])
def test_deadline_passing_inside_a_head_run(
    parity_net, parity_index, loop_events, variant
):
    objects, queries = _scenarios(parity_net)["vertex"]
    object_index = ObjectIndex(parity_net, objects, parity_index.embedding)
    assert (
        deadline_reports(parity_index, object_index, queries[1], 10, variant)
        == GOLDEN_DEADLINE_REPORTS[variant]
    )
    # ... and some of those jumps did land between two refinements of
    # one run: the deadline is read before every step of it.
    del loop_events[:]
    best_first_knn(parity_index, object_index, queries[1], 10, variant=variant)
    assert any(
        a == b and a[0] == "refine" for a, b in zip(loop_events, loop_events[1:])
    )


# ----------------------------------------------------------------------
# Walks: an exact ``knn`` walks a colliding object inside ``Dk`` to exact
# in one call; Theorem 1 and the deadline still decide what is reported
# ----------------------------------------------------------------------
def test_a_walked_state_above_the_queue_head_is_pushed_not_confirmed(
    parity_net, parity_index, monkeypatch
):
    """A walk makes a state exact, not reportable: one whose distance is
    not below the queue head goes back on the heap and is confirmed only
    when it pops with nothing queued below it."""
    events: list[tuple] = []
    real_walk, real_push = RefinableDistance.walk_home, bestfirst.heappush

    def walk(self, *args, **kwargs):
        events.append(("walk", self.oid))
        return real_walk(self, *args, **kwargs)

    def heappush(heap, entry):
        if entry[2] == bestfirst._OBJECT:
            events.append(("push", entry[3].oid, entry[0], heap[0][0]))
        real_push(heap, entry)

    monkeypatch.setattr(RefinableDistance, "walk_home", walk)
    monkeypatch.setattr(bestfirst, "heappush", heappush)
    objects, queries = _scenarios(parity_net)["vertex"]
    object_index = ObjectIndex(parity_net, objects, parity_index.embedding)
    result = best_first_knn(
        parity_index, object_index, queries[1], 10, variant="knn", exact=True
    )
    pushed = [
        push for step, push in zip(events, events[1:])
        if step[0] == "walk" and push[0] == "push" and push[1] == step[1]
    ]
    assert pushed
    distances = dict(zip(result.ids(), result.distances()))
    for _, oid, lo, head in pushed:
        assert lo > head
        assert distances[oid] == lo  # reported later, at its exact distance
    # ... and the answer is the one a stepping search gives (on a
    # network not known to be symmetric, ``inn`` steps every collision).
    monkeypatch.setattr(parity_index.network, "symmetric", False)
    stepped = best_first_knn(
        parity_index, object_index, queries[1], 10, variant="inn", exact=True
    )
    assert stepped.stats.refinements == stepped.stats.collisions
    assert result.distances() == stepped.distances()


def test_a_deadline_passing_during_a_walk_raises(parity_net, parity_index):
    """A walk is one call with no deadline check inside it; a clock that
    jumps during any walk of the search is seen at the next pop, and the
    search raises instead of answering late."""
    objects, queries = _scenarios(parity_net)["vertex"]
    object_index = ObjectIndex(parity_net, objects, parity_index.embedding)
    real_counter, real_clock = bestfirst.RefinementCounter, bestfirst.counted_clock
    walks: list[int] = []  # the counter right after each walk
    count = [0]

    def bumped(value):
        if value - count[0] > 1:
            walks.append(value)
        count[0] = value

    bestfirst.RefinementCounter = lambda: _WatchedCounter(bumped)
    try:
        result = best_first_knn(
            parity_index, object_index, queries[1], 10, variant="knn", exact=True
        )
        in_search = [w for w in walks if w <= result.stats.refinements]
        assert len(in_search) > 3
        for jump_at in in_search:
            count[0] = 0
            bestfirst.counted_clock = lambda: 1e9 if count[0] >= jump_at else 0.0
            with pytest.raises(DeadlineExceeded, match=r"\(\d of 10 neighbors"):
                best_first_knn(
                    parity_index, object_index, queries[1], 10,
                    variant="knn", exact=True, time_budget=1.0,
                )
    finally:
        bestfirst.RefinementCounter = real_counter
        bestfirst.counted_clock = real_clock


def _reference_block_lower_bound(index, source, code, level) -> float:
    """The per-call numpy formula the bound column replaced, verbatim."""
    table = table_of(index, source)
    lo_code = code
    hi_code = code + block_cells(level)
    rows = table.overlapping(lo_code, hi_code)
    if len(rows) == 0:
        return float("inf")
    px = float(index.network.xs[source])
    py = float(index.network.ys[source])
    query_rect = index.embedding.block_world_rect(code, level)
    sl = slice(rows.start, rows.stop)
    b_codes = table.codes[sl]
    b_levels = table.levels[sl].astype(np.int64)
    nested = (b_codes >= lo_code) & (
        b_codes + (np.int64(1) << (2 * b_levels)) <= hi_code
    )
    dist = np.full(b_codes.size, query_rect.min_distance_to_point_xy(px, py))
    if nested.any():
        xmin, ymin, xmax, ymax = index.embedding.block_world_bounds_array(
            b_codes[nested], b_levels[nested]
        )
        dx = np.maximum(np.maximum(xmin - px, 0.0), px - xmax)
        dy = np.maximum(np.maximum(ymin - py, 0.0), py - ymax)
        dist[nested] = np.hypot(dx, dy)
    best = float(np.min(table.lam_min[sl] * dist))
    return best * (1.0 - _REL_PAD)


def _pmr_nodes(object_index):
    stack = [object_index.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend(node.children)


def test_column_block_bound_is_bit_equal_to_reference(parity_net, parity_index):
    """Every (vertex, block) pair: the blocks are all PMR nodes of an
    object index plus, at every level, the aligned block around every
    tenth vertex (small blocks sit inside one table block)."""
    index = parity_index
    objects = random_vertex_objects(parity_net, count=40, seed=5)
    blocks = {
        (node.code, node.level)
        for node in _pmr_nodes(ObjectIndex(parity_net, objects, index.embedding))
    }
    for cell in index.vertex_codes[::10].tolist():
        for level in range(index.embedding.order + 1):
            blocks.add((cell >> (2 * level) << (2 * level), level))
    contained = 0  # query block strictly inside one table block
    index.attach_storage(index.make_storage())
    try:
        for source in range(parity_net.num_vertices):
            column = index.bound_column(source)
            table = table_of(index, source)
            for code, level in blocks:
                want = _reference_block_lower_bound(index, source, code, level)
                before = index.storage.stats.accesses
                got = index.block_lower_bound(
                    source, code, level, account=False, column=column
                )
                assert index.storage.stats.accesses == before
                assert got.hex() == want.hex(), (source, code, level)
                accounted = index.block_lower_bound(
                    source, code, level, column=column
                )
                assert accounted.hex() == want.hex()
                rows = table.overlapping(code, code + block_cells(level))
                if len(rows) == 1 and (
                    table.ends[rows.start] > code + block_cells(level)
                ):
                    contained += 1
                    # and the column-less form agrees on this case too
                    assert index.block_lower_bound(
                        source, code, level, account=False
                    ).hex() == want.hex()
    finally:
        index.detach_storage()
    assert contained > 100


# ----------------------------------------------------------------------
# The fused probe copies against the reference probe they copy
# ----------------------------------------------------------------------
def _recording_storage(index) -> list[int]:
    """Attach a simulator whose ``access`` only records the page ids."""
    pages: list[int] = []
    storage = index.make_storage()
    storage.access = pages.append
    index.attach_storage(storage)
    return pages


def _pin_state_to_composition(index, source, target, offset, pages) -> int:
    """Walk ``RefinableDistance(index, source, target)`` to exact and
    hold its next hop, bounds (bit for bit) and pages, after
    ``__init__`` and after every ``refine``, to ``hop_and_interval`` +
    the clamp; returns the refinements taken."""
    mark = len(pages)
    state = RefinableDistance(index, source, target, offset=offset)
    fused = pages[mark:]
    hop, lo, hi = index.hop_and_interval(source, target)
    want = (hop, *checked_bounds(lo + offset, hi + offset))
    assert pages[mark + len(fused):] == fused
    assert (state._next_hop, state.lo.hex(), state.hi.hex()) == (
        want[0], want[1].hex(), want[2].hex()
    ), (source, target)
    steps = 0
    while state.via != target:
        via, hop, acc = state.via, state._next_hop, state.acc
        prev = state.lo, state.hi
        mark = len(pages)
        state.refine()
        fused = pages[mark:]
        acc += index.network.edge_weight(via, hop)
        if hop == target:
            lo = hi = acc
        else:
            hop, lo, hi = index.hop_and_interval(hop, target)
            lo += acc
            hi += acc
        assert pages[mark + len(fused):] == fused
        want = (hop, *checked_bounds(lo, hi, *prev))
        assert (state._next_hop, state.lo.hex(), state.hi.hex()) == (
            want[0], want[1].hex(), want[2].hex()
        ), (source, target, state.via)
        steps += 1
    return steps


@pytest.mark.parametrize("kind", ["road", "oneway"])
def test_fused_probe_is_the_composition_for_every_pair(parity_net, kind):
    """Every ordered pair of a 150-vertex network, undirected and with a
    quarter of its streets one-way."""
    net = parity_net if kind == "road" else one_way(parity_net, seed=9)
    index = SILCIndex.build(net)
    pages = _recording_storage(index)
    steps = 0
    for source in range(net.num_vertices):
        for target in range(net.num_vertices):
            steps += _pin_state_to_composition(
                index, source, target, 0.25 * (target % 3), pages
            )
    assert steps > 2 * net.num_vertices**2  # paths of real length
    assert pages  # and they were accounted


def _within_horizon(proximal, source, target):
    """Whether a direct probe from ``source`` answers ``target`` (no page counted)."""
    hit = proximal.tables[source].lookup(int(proximal.vertex_codes[target]))
    return source == target or (hit is not None and hit[0] != BEYOND)


def test_fused_probe_hands_a_missing_vertex_to_the_index(parity_net):
    """A negative colour goes to ``index.hop_and_interval``: beyond a
    proximal horizon that raises before any page is counted, from
    ``__init__`` and from ``refine``; a full index's corrupt colour
    fails as the composition fails."""
    proximal = ProximalSILCIndex.build(parity_net, radius=12.0)
    pages = _recording_storage(proximal)
    beyond = within = 0
    for source in range(0, parity_net.num_vertices, 7):
        for target in range(parity_net.num_vertices):
            if _within_horizon(proximal, source, target):
                within += 1
                _pin_state_to_composition(proximal, source, target, 0.0, pages)
                continue
            beyond += 1
            mark = len(pages)
            with pytest.raises(BeyondHorizonError) as fused:
                RefinableDistance(proximal, source, target)
            with pytest.raises(BeyondHorizonError) as reference:
                proximal.hop_and_interval(source, target)
            assert str(fused.value) == str(reference.value)
            assert len(pages) == mark
    assert beyond > 100 and within > 100

    # Inside the horizon, a row recoloured to BEYOND on the path: the
    # step that probes it raises, and counts no page.
    source, target = 0, max(
        range(parity_net.num_vertices),
        key=lambda t: len(proximal.path(0, t)) if _within_horizon(proximal, 0, t) else 0,
    )
    hop = proximal.path(source, target)[1]
    TestChecksKept._corrupt(proximal, hop, target, "colors", BEYOND)
    state = RefinableDistance(proximal, source, target)
    mark = len(pages)
    with pytest.raises(BeyondHorizonError, match=f"of vertex {hop};"):
        state.refine()
    assert len(pages) == mark

    # A full index with the same corrupt colour: the state takes the
    # index's answer and fails at the next link, as the composition does.
    index = SILCIndex.build(parity_net)
    TestChecksKept._corrupt(index, hop, target, "colors", -1)
    state = index.refinable(source, target)
    state.refine()
    assert state._next_hop == index.hop_and_interval(hop, target)[0] == -1
    with pytest.raises(EdgeNotFound) as reference:
        parity_net.edge_weight(hop, -1)
    for fail in (state.refine, index.refinable(source, target).refine_fully):
        with pytest.raises(EdgeNotFound) as fused:
            fail()
        assert str(fused.value) == str(reference.value)


def _reference_block_bound(handle, node) -> float:
    """``QueryHandle.block_bound`` as composed before it went inline."""
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


def test_block_bound_is_block_lower_bound_plus_euclid(parity_net, parity_index):
    """Every PMR node of a vertex- and an edge-object index x 20 query
    vertices x {the vertex, a position on one of its edges}: the same
    bound bit for bit and the same pages, straddled nodes included."""
    index = parity_index
    rng = np.random.default_rng(25)
    queries = []
    for u in rng.choice(parity_net.num_vertices, size=20, replace=False).tolist():
        v, _ = parity_net.neighbors(u)[0]
        queries += [u, EdgePosition(u, v, float(rng.uniform(0.1, 0.9)))]
    straddled = 0
    pages = _recording_storage(index)
    try:
        for objects in (
            random_vertex_objects(parity_net, count=40, seed=5),
            random_edge_objects(parity_net, count=30, seed=6),
        ):
            object_index = ObjectIndex(parity_net, objects, index.embedding)
            for query in queries:
                handle = QueryHandle(
                    index, object_index, resolve_location(parity_net, query)
                )
                for node in _pmr_nodes(object_index):
                    mark = len(pages)
                    got = handle.block_bound(node)
                    fused = pages[mark:]
                    want = _reference_block_bound(handle, node)
                    assert pages[mark + len(fused):] == fused
                    assert got.hex() == want.hex(), (query, node.code, node.level)
                    for av, _ in handle.anchors:
                        table = table_of(index, av)
                        end = node.code + block_cells(node.level)
                        rows = table.overlapping(node.code, end)
                        straddled += len(rows) == 1 and table.ends[rows.start] > end
    finally:
        index.detach_storage()
    assert straddled > 100


class TestChecksKept:
    """The flat path still refuses what the layered one refused."""

    @pytest.fixture()
    def index(self, grid_net):
        return SILCIndex.build(grid_net)  # private: the tests corrupt it

    @staticmethod
    def _far_pair(index):
        """``(source, first hop, target)`` of a path at least 3 links long."""
        net = index.network
        target = max(net.vertices(), key=lambda v: net.euclidean(0, v))
        path = index.path(0, target)
        assert len(path) >= 4
        return 0, path[1], target

    @staticmethod
    def _corrupt(index, source, target, column, value):
        """Overwrite ``column`` of the row of ``source``'s table that
        answers probes for ``target``."""
        table = index.tables[source]
        array = getattr(table, column)
        array.setflags(write=True)
        array[table.lookup(int(index.vertex_codes[target]))[3]] = value

    @pytest.mark.parametrize("bad", [float("nan"), -1e9])
    def test_bad_lam_min_raises_before_any_neighbor(self, grid_net, index, bad):
        source, hop, target = self._far_pair(index)
        # The first probe (source's table) is clean; the one after the
        # first refinement step reads the corrupted row -- and a walk
        # home from the target first reads its table's row for the
        # source.
        self._corrupt(index, hop, target, "lam_min", bad)
        self._corrupt(index, target, source, "lam_min", bad)
        state = index.refinable(source, target)
        with pytest.raises(ValueError):
            state.refine()
        objects = ObjectSet.at_vertices(grid_net, [target])
        object_index = ObjectIndex(grid_net, objects, index.embedding)
        for variant in VARIANTS:
            with pytest.raises(ValueError):
                best_first_knn(
                    index, object_index, source, 1, variant=variant, exact=True
                )

    def test_bad_lam_min_rejected_at_the_first_probe(self, index):
        source, _, target = self._far_pair(index)
        self._corrupt(index, source, target, "lam_min", float("nan"))
        with pytest.raises(ValueError):
            index.refinable(source, target)

    def test_corrupted_color_raises_edge_or_vertex_not_found(self, index):
        source, _, target = self._far_pair(index)
        self._corrupt(index, source, target, "colors", 10_000)
        with pytest.raises(EdgeNotFound):
            index.refinable(source, target).refine()
        with pytest.raises(VertexNotFound):
            index.path(source, target)

    def test_corrupted_color_inside_a_head_run_raises_edge_not_found(
        self, grid_net, index, loop_events
    ):
        """Vertex 4 is four links from vertex 0 and, with the only other
        object on vertex 12, is refined all the way in one head run; a
        bad next hop read by its first step fails its second."""
        object_index = ObjectIndex(
            grid_net, ObjectSet.at_vertices(grid_net, [4, 12]), index.embedding
        )
        run = [("push", 0, False), ("push", 1, False), ("refine", 0), ("refine", 0)]
        best_first_knn(index, object_index, 0, 1, variant="inn")
        assert loop_events[:4] == run
        self._corrupt(index, index.path(0, 4)[1], 4, "colors", 10_000)
        for variant in VARIANTS:
            del loop_events[:]
            with pytest.raises(EdgeNotFound):
                best_first_knn(index, object_index, 0, 1, variant=variant)
            # the second step raised before it counted
            assert loop_events == run[:3]

    def test_a_negative_vertex_id_is_refused(self, grid_net, index):
        """A negative id used to index from the end: a probe from -1 was
        answered for the last vertex (with storage: the page layout's
        ``IndexError``), and one *to* -1 always was."""
        proximal = ProximalSILCIndex.build(grid_net, radius=1e9)
        for probed in (index, proximal):
            for storage in (None, probed.make_storage()):
                probed.storage = storage
                for source, target in ((-1, 5), (5, -1)):
                    with pytest.raises(VertexNotFound, match="vertex -1 not in"):
                        probed.hop_and_interval(source, target)
                if storage is not None:
                    assert storage.stats.accesses == 0

    def test_refine_fully_guard_trips_on_next_hop_cycle(self, grid_net, index):
        source, hop, target = self._far_pair(index)
        assert grid_net.has_edge(hop, source)
        self._corrupt(index, hop, target, "colors", source)  # source<->hop
        with pytest.raises(RuntimeError, match="inconsistent"):
            index.refinable(source, target).refine_fully()

    # ------------------------------------------------------------------
    # Bounds disjoint by more than rounding are an error, not a midpoint
    # ------------------------------------------------------------------
    @pytest.fixture()
    def lattice(self):
        """The 7 x 7 unit lattice (every distance an integer) and a
        private index over it: the tests corrupt it."""
        net = grid_network(7, 7)
        return net, SILCIndex.build(net)

    def _cycle(self, index, source, target):
        """Point the first hop's row for ``target`` back at ``source``, and
        the walk home's first hop's row for ``source`` back at
        ``target``."""
        for a, b in ((source, target), (target, source)):
            hop = index.path(a, b)[1]
            assert index.network.has_edge(hop, a)
            self._corrupt(index, hop, b, "colors", a)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_next_hop_cycle_is_not_served_as_an_exact_distance(
        self, lattice, variant
    ):
        """The only object is confirmed unrefined and the exact pass
        meets the cycle: it used to go round until the accumulated
        prefix passed the first upper bound, collapse the two to their
        midpoint and report 12.692... as the exact distance (true: 12)."""
        net, index = lattice
        self._cycle(index, 0, 48)
        object_index = ObjectIndex(
            net, ObjectSet.at_vertices(net, [48]), index.embedding
        )
        with pytest.raises(RuntimeError, match="inconsistent"):
            best_first_knn(index, object_index, 0, 1, variant=variant, exact=True)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_disjoint_bounds_inside_the_search_loop_raise(self, lattice, variant):
        """Objects at distance 4 (vertex 22, behind the cycle) and 5
        collide, so the search loop itself steps round the cycle; the
        midpoint collapse used to end that with a wrong neighbour or a
        wrong "exact" 4.66..."""
        net, index = lattice
        self._cycle(index, 0, 22)
        object_index = ObjectIndex(
            net, ObjectSet.at_vertices(net, [22, 23]), index.embedding
        )
        with pytest.raises(ValueError, match="inverted interval"):
            best_first_knn(index, object_index, 0, 1, variant=variant)


if __name__ == "__main__":
    net = road_like_network(150, seed=9)
    built = SILCIndex.build(net)
    for compute in (
        compute_digests, compute_control_flow_digests, compute_ine_digests,
        compute_ier_digests,
    ):
        print(compute.__name__)
        for key, value in compute(net, built).items():
            print(f'    "{key}": "{value}",')
