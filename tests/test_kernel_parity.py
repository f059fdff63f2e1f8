"""Golden parity of the kNN kernel: answers and every counted op.

The digests below were recorded at the commit *before* the kernel was
flattened (scalar refinement state, one block-bound column per query
anchor).  Any change to an answer, a distance bit, or a counted
operation -- refinements, queue traffic, ``L`` operations, simulated
page accesses -- changes a digest.  Re-record only for a change that
is *meant* to move them (``PYTHONPATH=src python
tests/test_kernel_parity.py`` prints the table) and say so in
CHANGES.md.

Re-recorded once since: the ``knn`` re-enqueue test became ``<=`` (the
k-th-entry tie fix), which moved ``queue_pushes`` by +1 on one
edge-scenario and one extent-scenario query -- the four
``edge|extent/*/knn`` digests -- and nothing else.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import random_edge_objects, random_vertex_objects
from repro.geometry.morton import block_cells
from repro.network import EdgeNotFound, VertexNotFound, road_like_network
from repro.objects import EdgePosition, ObjectIndex, ObjectSet, VertexPosition
from repro.query.bestfirst import VARIANTS, best_first_knn
from repro.silc import SILCIndex
from repro.silc.index import _REL_PAD

KS = (1, 5, 25)

GOLDEN: dict[str, str] = {
    "vertex/attached/knn": "dcb543daf9624570",
    "vertex/attached/inn": "72ae5f8767318e49",
    "vertex/attached/knn_i": "2031b0b78bad7ebd",
    "vertex/attached/knn_m": "7660a60351dae59c",
    "vertex/detached/knn": "e527d1b9b46061ed",
    "vertex/detached/inn": "db7bd11a54d5c643",
    "vertex/detached/knn_i": "e7e1c5a88e73f966",
    "vertex/detached/knn_m": "d5ed3566c96dcb76",
    "edge/attached/knn": "44da9f3abe946687",
    "edge/attached/inn": "f80dfb269dfe0e56",
    "edge/attached/knn_i": "776dbe6c17b7a91b",
    "edge/attached/knn_m": "21ff48a8f173ae15",
    "edge/detached/knn": "db3fc696e63efc29",
    "edge/detached/inn": "6eafcedfdd03a5cd",
    "edge/detached/knn_i": "3dd70ef68883e14d",
    "edge/detached/knn_m": "9bdca6a72f0ba56c",
    "extent/attached/knn": "aa6ea7dc42886d13",
    "extent/attached/inn": "8bbefec0ad7de52e",
    "extent/attached/knn_i": "cf83fc0e5d45575e",
    "extent/attached/knn_m": "b97ba47c03747a70",
    "extent/detached/knn": "4b14454e1f218c61",
    "extent/detached/inn": "7b01f396cee1e909",
    "extent/detached/knn_i": "c125c6f5dff1220e",
    "extent/detached/knn_m": "d28b782ddeccf6e9",
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
    return ObjectSet.with_extents(net, extents)


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


def compute_digests(net, index) -> dict[str, str]:
    """One digest per (scenario, storage, variant) over k and queries."""
    digests = {}
    for name, (objects, queries) in _scenarios(net).items():
        object_index = ObjectIndex(net, objects, index.embedding)
        for storage in ("attached", "detached"):
            for variant in VARIANTS:
                # A fresh simulator per cell: the LRU state a query
                # meets depends only on the queries before it here.
                if storage == "attached":
                    index.attach_storage(index.make_storage(cache_fraction=0.05))
                try:
                    records = [
                        _record(
                            best_first_knn(
                                index, object_index, q, k,
                                variant=variant, exact=bool(i % 2),
                            )
                        )
                        for k in KS
                        for i, q in enumerate(queries)
                    ]
                finally:
                    index.detach_storage()
                digests[f"{name}/{storage}/{variant}"] = hashlib.sha256(
                    repr(records).encode()
                ).hexdigest()[:16]
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


def _reference_block_lower_bound(index, source, code, level) -> float:
    """The per-call numpy formula the bound column replaced, verbatim."""
    table = index.tables[source]
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
            table = index.tables[source]
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
        array[table.locate(int(index.vertex_codes[target]))] = value
        table.mirror = None

    @pytest.mark.parametrize("bad", [float("nan"), -1e9])
    def test_bad_lam_min_raises_before_any_neighbor(self, grid_net, index, bad):
        source, hop, target = self._far_pair(index)
        # The first probe (source's table) is clean; the one after the
        # first refinement step reads the corrupted row.
        self._corrupt(index, hop, target, "lam_min", bad)
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

    def test_refine_fully_guard_trips_on_next_hop_cycle(self, grid_net, index):
        source, hop, target = self._far_pair(index)
        assert grid_net.has_edge(hop, source)
        self._corrupt(index, hop, target, "colors", source)  # source<->hop
        with pytest.raises(RuntimeError, match="inconsistent"):
            index.refinable(source, target).refine_fully()


if __name__ == "__main__":
    net = road_like_network(150, seed=9)
    for key, value in compute_digests(net, SILCIndex.build(net)).items():
        print(f'    "{key}": "{value}",')
