"""A Morton code is as wide as its grid.

``column_dtypes(max_out_degree, order)`` stores codes as uint16 on a
grid of order <= 8 (``4**8 == 2**16`` cells) and uint32 past it, and
``vertex_codes.npy`` as uint16 up to order 8 and int64, the width it
always had, past it.  Two 81-vertex road networks, each with one vertex
crowded beside another so the grid has exactly order 8 or order 9: the
order-8 index's last blocks end at code 65 536, one past uint16, so any
code arithmetic done in uint16 would wrap; the order-9 index writes
the bytes every index was written in before codes narrowed (its
manifest, which holds every file's size and CRC-32, is pinned).  Both
round-trip eager and mapped and answer every variant as Dijkstra does.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import random_vertex_objects
from repro.integrity import MANIFEST_NAME
from repro.network import distance_matrix, road_like_network
from repro.objects import ObjectIndex
from repro.query.bestfirst import VARIANTS, best_first_knn
from repro.quadtree.blocks import column_dtypes, compute_ends, vertex_code_dtype
from repro.silc import SILCIndex

from reference import crowded

#: Per grid order: codes, vertex codes on disk, bytes per block.
WIDTHS = {8: (np.uint16, np.uint16, 8), 9: (np.uint32, np.int64, 10)}

#: sha256 of the order-9 index's MANIFEST.json, as written before codes
#: narrowed: an order >= 9 directory keeps its bytes.
ORDER_9_MANIFEST = "a3b7402390270739695d18bcf50694e18baf46d1fa714f91b088266ee33c6a1a"


@pytest.fixture(scope="module", params=sorted(WIDTHS), ids=lambda o: f"order{o}")
def built(request):
    net = crowded(road_like_network(80, seed=5), request.param)
    return request.param, net, SILCIndex.build(net)


@pytest.fixture(scope="module")
def saved(built, tmp_path_factory):
    order, net, index = built
    path = tmp_path_factory.mktemp("width") / f"order{order}"
    index.save(path)
    return path


def test_the_grid_order_decides_the_width(built):
    order, net, index = built
    codes, vertex_codes, record = WIDTHS[order]
    assert index.embedding.order == order
    assert column_dtypes(net.max_out_degree, order)["codes"] == codes
    assert vertex_code_dtype(order) == vertex_codes
    assert index.store.codes.dtype == codes
    assert index.record_bytes == record
    assert index.make_storage().layout.records_per_page == 4096 // record
    assert index.vertex_codes.dtype == np.int64  # in memory, whatever the file


def test_the_last_blocks_end_at_the_grid_end(built):
    """Every end code is computed wider than the column (at order 8 the
    last ones are 65 536, one past uint16), and a probe of the last
    cell finds the block that ends there."""
    order, net, index = built
    store = index.store
    ends = compute_ends(store.codes, store.levels)
    assert ends.dtype == np.int64
    assert int(ends.max()) == 4**order
    last, hits = 4**order - 1, 0
    for v in net.vertices():
        table = index.tables[v]
        hit = table.lookup(last)
        if hit is not None:
            row, hits = hit[3], hits + 1
            assert table.codes[row] <= last < int(table.codes[row]) + 4 ** int(table.levels[row])
    assert hits
    assert store.validate(net.out_degrees()) is store


def test_the_files_take_the_width(built, saved):
    order, _, _ = built
    codes, vertex_codes, _ = WIDTHS[order]
    assert np.load(saved / "codes.npy").dtype == codes
    assert np.load(saved / "vertex_codes.npy").dtype == vertex_codes


def test_an_order_9_index_keeps_the_bytes_it_had(wide_index, tmp_path):
    assert wide_index.embedding.order == 9
    wide_index.save(tmp_path / "index")
    manifest = (tmp_path / "index" / MANIFEST_NAME).read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == ORDER_9_MANIFEST


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_a_loaded_index_answers_as_dijkstra(built, saved, mmap):
    order, net, built_index = built
    index = SILCIndex.load(saved, net, mmap=mmap)
    assert index.store.codes.dtype == WIDTHS[order][0]
    assert np.array_equal(index.vertex_codes, built_index.vertex_codes)
    D = distance_matrix(net)
    for s in net.vertices():
        got = [index.distance(s, t) for t in net.vertices()]
        np.testing.assert_allclose(got, D[s], rtol=1e-9)
    objects = random_vertex_objects(net, count=25, seed=2)
    object_index = ObjectIndex(net, objects, index.embedding)
    at = {o.oid: o.position.vertex for o in objects}
    for q in range(0, net.num_vertices, 8):
        want = sorted(D[q, v] for v in at.values())
        for k in (1, 8, 25):
            for variant in VARIANTS:
                result = best_first_knn(index, object_index, q, k, variant=variant, exact=True)
                dists = [n.distance for n in result.neighbors]
                for n in result.neighbors:
                    np.testing.assert_allclose(n.distance, D[q, at[n.oid]], rtol=1e-9)
                np.testing.assert_allclose(sorted(dists), want[:k], rtol=1e-9)
