"""The flat columnar store: views, the pooled build, persistence, mmap."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro import road_like_network
from repro.datasets import random_vertex_objects
from repro.errors import CorruptIndexError
from repro.network.errors import PathNotFound
from repro.objects import ObjectIndex
from repro.query.distances import QueryHandle
from repro.objects.model import VertexPosition
from repro.silc.store import FlatStore, empty_columns
from repro.silc.proximal import BEYOND, ProximalSILCIndex
from repro.silc import SILCIndex, update_index
from repro.silc.index import _REL_PAD
from reference import BlockTable, iter_nodes, table_of

TABLE_COLUMNS = ("codes", "levels", "colors", "lam_min", "lam_max")


def assert_identical(a: SILCIndex, b: SILCIndex) -> None:
    assert a.embedding.order == b.embedding.order
    assert a.embedding.bounds == b.embedding.bounds
    assert np.array_equal(a.vertex_codes, b.vertex_codes)
    assert len(a.tables) == len(b.tables)
    for ta, tb in zip(a.tables, b.tables):
        for col in TABLE_COLUMNS:
            ca, cb = getattr(ta, col), getattr(tb, col)
            assert ca.dtype == cb.dtype
            assert np.array_equal(ca, cb)


class TestFlatStore:
    def test_tables_are_views_of_the_columns(self, small_index):
        store = small_index.store
        for v in (0, 7, len(small_index.tables) - 1):
            table = small_index.tables[v]
            lo = int(store.offsets[v])
            assert np.shares_memory(table.codes, store.codes)
            assert table.codes[0] == store.codes[lo]

    def test_sizes_match_tables(self, small_index):
        store = small_index.store
        assert store.sizes.tolist() == [len(t) for t in small_index.tables]
        assert store.total_blocks == small_index.total_blocks()
        assert store.num_tables == small_index.network.num_vertices

    def test_empty_store(self):
        store = FlatStore(np.zeros(6, dtype=np.int64), **empty_columns())
        assert store.num_tables == 5
        assert store.total_blocks == 0
        assert len(store) == 5
        assert all(len(t) == 0 for t in store)

    def test_scattered_chunks_gather_into_vertex_order(self, small_index):
        """Tables dealt out by interleaved vertex sets, handed back last
        set first: one gather per column restores the store."""
        store = small_index.store
        columns = store.column_arrays()
        chunks = []
        for part in (2, 0, 1):
            vertices = np.arange(part, store.num_tables, 3)
            rows = np.concatenate(
                [np.arange(store.offsets[v], store.offsets[v + 1]) for v in vertices]
            )
            chunks.append(
                (vertices, store.sizes[vertices], {n: c[rows] for n, c in columns.items()})
            )
        gathered = FlatStore.from_chunks(store.num_tables, chunks).validate()
        assert np.array_equal(gathered.offsets, store.offsets)
        for name, column in gathered.column_arrays().items():
            assert column.dtype == columns[name].dtype
            assert np.array_equal(column, columns[name])

    def test_view_tables_answer_like_owned_tables(self, small_index):
        table = table_of(small_index, 3)
        owned = BlockTable(
            table.codes.copy(), table.levels.copy(), table.colors.copy(),
            table.lam_min.copy(), table.lam_max.copy(),
        )
        for code in table.codes[:10]:
            assert table.lookup(int(code)) == owned.lookup(int(code))
        assert table.ends.tolist() == owned.ends.tolist()


class TestPooledBuild:
    def test_pool_matches_serial(self, small_net, small_index):
        """Same columns, dtypes included, whatever order chunks finish
        in (``tests/test_cli.py`` checks the saved bytes, file by file)."""
        pooled = SILCIndex.build(small_net, workers=2, chunk_size=32)
        assert_identical(small_index, pooled)


class TestPersistenceLayouts:
    def test_directory_round_trip_identical(self, tmp_path, small_net, small_index):
        path = tmp_path / "index.silc"
        small_index.save(path)
        assert_identical(small_index, SILCIndex.load(path, small_net))

    def test_directory_round_trip_mmap(self, tmp_path, small_net, small_index):
        path = tmp_path / "index.silc"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net, mmap=True)
        assert isinstance(loaded.store.codes, np.memmap)
        assert_identical(small_index, loaded)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_a_file_is_not_an_index(self, tmp_path, small_net, mmap):
        """One error for anything that is not a directory, whatever its
        name; a path that is not there stays FileNotFoundError."""
        path = tmp_path / "index"
        with pytest.raises(FileNotFoundError):
            SILCIndex.load(path, small_net, mmap=mmap)
        path.write_bytes(b"PK\x03\x04 once an archive")
        with pytest.raises(CorruptIndexError, match="no longer read"):
            SILCIndex.load(path, small_net, mmap=mmap)

    def test_mmap_queries_with_storage(self, tmp_path, small_net, small_index, small_dist, rng):
        path = tmp_path / "index.silc"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net, mmap=True)
        sim = loaded.make_storage(cache_fraction=0.05)
        loaded.attach_storage(sim)
        try:
            n = small_net.num_vertices
            for _ in range(20):
                u, v = map(int, rng.integers(0, n, 2))
                assert loaded.distance(u, v) == pytest.approx(
                    small_dist[u, v], rel=1e-9
                )
            assert sim.stats.accesses > 0
        finally:
            loaded.detach_storage()

    def test_resident_bytes_count_each_page_within_its_column(
        self, tmp_path, small_net, small_index
    ):
        """``mincore(2)`` answers per page, and a column neither starts
        nor ends on a page boundary: a mapped index whose every page was
        just read counts exactly its column bytes, not the page-rounded
        span around them.  An index in memory has no reading."""
        small_index.save(tmp_path / "idx")
        store = SILCIndex.load(tmp_path / "idx", small_net, mmap=True).store
        if store.resident_bytes() is None:
            pytest.skip("no mincore(2) on this platform")
        for column in store.column_arrays().values():
            np.asarray(column).sum()  # faults every page of the column in
        assert store.resident_bytes() == store.nbytes()
        assert small_index.store.resident_bytes() is None

    def test_corrupt_file_rejected_at_load(self, tmp_path, small_net, small_index):
        """A scrambled column must fail loudly.  The checksum manifest
        now catches it before the per-table validating constructors
        even see the bytes, and names the bad column."""
        path = tmp_path / "index.silc"
        small_index.save(path)
        codes = np.load(path / "codes.npy")
        codes[: len(codes) // 2] = codes[: len(codes) // 2][::-1]
        np.save(path / "codes.npy", codes)
        with pytest.raises(CorruptIndexError, match="codes"):
            SILCIndex.load(path, small_net)

    def test_mmap_knn_matches_in_memory(self, tmp_path, small_net, small_index, small_object_index):
        from repro.query import knn

        path = tmp_path / "index.silc"
        small_index.save(path)
        loaded = SILCIndex.load(path, small_net, mmap=True)
        for q in (0, 31, 88):
            a = knn(small_index, small_object_index, q, 5, exact=True)
            b = knn(loaded, small_object_index, q, 5, exact=True)
            assert a.ids() == b.ids()


# ----------------------------------------------------------------------
# The columns are the probe structure: nothing is copied out of them,
# whichever way the index was obtained.
# ----------------------------------------------------------------------

def reference_probe(columns, offsets, source, cell):
    """``BlockTable.lookup`` by ``np.searchsorted`` on the store's arrays."""
    lo, hi = offsets[source], offsets[source + 1]
    codes = columns["codes"][lo:hi]
    row = int(np.searchsorted(codes, cell, side="right")) - 1
    if row < 0 or cell >= int(codes[row]) + 4 ** int(columns["levels"][lo + row]):
        return None
    return (
        int(columns["colors"][lo + row]),
        float(columns["lam_min"][lo + row]),
        float(columns["lam_max"][lo + row]),
        row,
    )


def trimmed(index):
    """``index`` with table 0 missing its first and last block and
    table 1 empty: cells before the first block, past the last one and
    in no table at all."""
    store = index.store
    sizes = store.sizes.copy()
    keep = np.ones(store.total_blocks, dtype=bool)
    keep[[0, sizes[0] - 1]] = False
    keep[sizes[0] : sizes[0] + sizes[1]] = False
    sizes[0] -= 2
    sizes[1] = 0
    columns = {name: col[keep] for name, col in store.column_arrays().items()}
    return SILCIndex(
        index.network, index.embedding, index.vertex_codes,
        FlatStore.from_columns(sizes, columns),
    )


def obtain(kind, net, index, tmp_path):
    if kind == "built":
        return index
    if kind == "trimmed":
        return trimmed(index)
    if kind == "proximal":
        return ProximalSILCIndex.build(net, radius=1e9)  # past the diameter
    if kind == "updated":
        closures = (
            net.without_edges([(a, b), (b, a)])
            for a in net.vertices() for b, _ in net.neighbors(a)
        )
        closed = next(
            c for c in closures if c.num_strongly_connected_components() == 1
        )
        patched, rebuilt = update_index(index, closed)
        assert rebuilt
        return patched
    index.save(tmp_path / "index")
    return SILCIndex.load(tmp_path / "index", net, mmap=kind == "mmap")


class TestColumnsAreTheProbeStructure:
    @pytest.mark.parametrize(
        "kind", ["built", "eager", "mmap", "proximal", "updated", "trimmed"]
    )
    def test_probes_agree_with_searchsorted(self, kind, small_net, small_index, tmp_path):
        index = obtain(kind, small_net, small_index, tmp_path)
        net = index.network
        columns = index.store.column_arrays()
        offsets = np.concatenate([[0], np.cumsum(index.store.sizes)]).tolist()
        cells = index.vertex_codes.tolist()
        xs, ys = net.xs.tolist(), net.ys.tolist()
        misses = 0
        # ``hop_and_interval`` probes the flat columns between two
        # offsets; the page it touches names the row it found.
        index.attach_storage(index.make_storage())
        layout = index.storage.layout
        pages = []
        index.storage.access = pages.append
        for s in range(net.num_vertices):
            table = index.tables[s]
            for t in range(net.num_vertices):
                expected = reference_probe(columns, offsets, s, cells[t])
                hit = table.lookup(cells[t])
                assert hit == expected
                if s == t:
                    continue
                if expected is None:
                    misses += 1
                    with pytest.raises(PathNotFound):
                        index.hop_and_interval(s, t)
                    continue
                assert all(type(x) is y for x, y in zip(hit, (int, float, float, int)))
                d_e = math.hypot(xs[s] - xs[t], ys[s] - ys[t])
                del pages[:]
                assert index.hop_and_interval(s, t) == (
                    expected[0],
                    expected[1] * d_e * (1.0 - _REL_PAD),
                    expected[2] * d_e * (1.0 + _REL_PAD),
                )
                page = layout.page_offsets[s] + expected[3] // layout.records_per_page
                assert pages == ([] if expected[0] < 0 else [page])
        index.detach_storage()
        if kind == "trimmed":
            # Before the first block, past the last one, an empty table.
            table = index.tables[0]
            assert any(c < table.codes[0] for c in cells)
            assert any(c >= table.codes[-1] + 4 ** int(table.levels[-1]) for c in cells)
            assert len(index.tables[1]) == 0
            assert misses >= 2 + (net.num_vertices - 1)
        else:
            assert misses == 0

    def test_a_mapped_table_reads_the_mapped_file(self, tmp_path, small_net, small_index):
        small_index.save(tmp_path / "index")
        loaded = SILCIndex.load(tmp_path / "index", small_net, mmap=True)
        # ``store.codes`` is the np.memmap (asserted on the attribute
        # above); a table's view is a slice of that very buffer.
        for name, view in zip(TABLE_COLUMNS, loaded.tables[7].columns):
            assert view.obj is getattr(loaded.store, name)
            assert view.readonly

    @pytest.mark.parametrize("column, value", [("colors", 123456), ("lam_min", 0.03125)])
    def test_a_written_row_is_what_the_next_probe_reads(
        self, tmp_path, small_net, small_index, column, value
    ):
        small_index.save(tmp_path / "index")
        index = SILCIndex.load(tmp_path / "index", small_net)  # eager, private
        source, target = 3, 120
        before = index.hop_and_interval(source, target)
        row = int(index.store.offsets[source]) + index.tables[source].lookup(
            int(index.vertex_codes[target])
        )[3]
        array = getattr(index.store, column)
        array.setflags(write=True)
        array[row] = value
        after = index.hop_and_interval(source, target)  # no invalidation call
        d_e = math.hypot(
            small_net.xs[source] - small_net.xs[target],
            small_net.ys[source] - small_net.ys[target],
        )
        if column == "colors":
            assert after == (value, *before[1:])
        else:
            assert after == (before[0], value * d_e * (1.0 - _REL_PAD), before[2])
        assert index.tables[source].lookup(int(index.vertex_codes[target]))[
            TABLE_COLUMNS.index(column) - 2
        ] == value

    def test_probing_every_pair_keeps_no_object_per_block(self, tmp_path):
        """Heap growth over all-pairs probes plus a bound from every
        vertex is a constant per table, whatever the rows per table:
        no boxed copy of a row outlives its probe."""
        per_table = {}
        for size in (60, 240):
            net = road_like_network(size, seed=5)
            path = tmp_path / f"index-{size}"
            SILCIndex.build(net).save(path)
            index = SILCIndex.load(path, net, mmap=True)
            n = net.num_vertices
            # One bound pays the process's one-off caches (the Morton
            # decode tables of this grid order, the grid's cell edges),
            # which would otherwise read as a cost per table.
            index.block_lower_bound(0, 0, index.embedding.order)
            gc.collect()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for s in range(n):
                    for t in range(n):
                        index.hop_and_interval(s, t)
                    index.block_lower_bound(s, 0, index.embedding.order)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()
            per_table[size] = (grown / n, index.total_blocks())
        (small, small_blocks), (large, large_blocks) = per_table[60], per_table[240]
        assert large_blocks >= 3 * small_blocks
        # Row lists kept per probed vertex read ~170 B per block: 3.6
        # and 8.5 KB per table here.  What is left is one-off, ~3 KB.
        assert small <= 256 and large <= 256, per_table

    def test_a_mapped_load_keeps_no_object_per_vertex(self, tmp_path):
        """The heap a mapped load retains is a few list entries per
        vertex, not a table object: the offsets (a list, what a probe
        reads), the vertex codes ``_vcodes`` and coordinates ``_xf`` /
        ``_yf`` the index mirrors as lists for the hot path, and their
        int64 arrays -- ~150 B per vertex.  The network is the caller's
        and is built before the load.  A ``BlockTable`` of five
        ``memoryview`` slices per vertex read ~1 160 B per vertex."""
        net = road_like_network(300, seed=5)
        SILCIndex.build(net).save(tmp_path / "index")
        SILCIndex.load(tmp_path / "index", net, mmap=True)  # one-off imports
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            index = SILCIndex.load(tmp_path / "index", net, mmap=True)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert index.total_blocks() > 0
        assert held / net.num_vertices <= 400, held


# ----------------------------------------------------------------------
# A table is a row range: an empty one never reads its neighbour's rows.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def empty_after_full(small_net, small_index):
    """``(index, u, w, node, object_index)``: an index built from
    every source but ``u``, so ``u``'s row range is empty and ends where
    ``u - 1``'s last block does; ``w``'s cell lies in that block and
    ``w``'s first hop toward ``u`` is not ``u``; ``node`` is a PMR node
    of ``object_index`` (an object on every vertex) inside that block."""
    n = small_net.num_vertices
    object_index = ObjectIndex(
        small_net, random_vertex_objects(small_net, count=n, seed=1),
        small_index.embedding, bucket_capacity=1,
    )
    nodes = list(iter_nodes(object_index.tree))
    offsets = small_index.store.offsets.tolist()
    codes, levels = small_index.store.codes.tolist(), small_index.store.levels.tolist()
    cells = small_index.vertex_codes.tolist()
    for u in range(1, n):
        last = offsets[u] - 1
        lo, hi = codes[last], codes[last] + 4 ** levels[last]
        ws = [
            w for w in range(n)
            if w not in (u, u - 1) and lo <= cells[w] < hi and small_index.next_hop(w, u) != u
        ]
        inside = [nd for nd in nodes if lo <= nd.code and nd.code + 4 ** nd.level <= hi]
        if ws and inside:
            break
    else:
        pytest.fail("no table's last block holds a vertex and a node")
    index = SILCIndex.build(small_net, sources=[v for v in range(n) if v != u])
    assert len(index.tables[u]) == 0 and len(index.tables[u - 1]) > 0
    return index, u, ws[0], inside[0], object_index


class TestAnEmptyTableIsEmpty:
    """Every reader, probing vertex ``u``'s empty row range for a cell
    that ``u - 1``'s last row contains: ``PathNotFound``, or no bound,
    never ``u - 1``'s row."""

    def test_hop_and_interval(self, empty_after_full):
        index, u, w, _, _ = empty_after_full
        with pytest.raises(PathNotFound):
            index.hop_and_interval(u, w)

    def test_a_new_state(self, empty_after_full):
        index, u, w, _, _ = empty_after_full
        with pytest.raises(PathNotFound):
            index.refinable(u, w)

    @pytest.mark.parametrize("walk", ["refine", "refine_fully"])
    def test_a_step_into_it(self, small_net, empty_after_full, walk):
        """A neighbour of ``u`` whose colour toward ``w`` is flipped to
        ``u`` (in a copy): its first step lands on ``u``."""
        index, u, w, _, _ = empty_after_full
        s = next(v for v, _ in small_net.neighbors(u) if v != w)
        index = SILCIndex(
            index.network, index.embedding, index.vertex_codes,
            FlatStore(index.store.offsets, **{
                name: col.copy() for name, col in index.store.column_arrays().items()
            }),
        )
        row = index.store.offsets[s] + index.tables[s].lookup(index._vcodes[w])[3]
        index.store.colors[row] = u
        state = index.refinable(s, w)
        with pytest.raises(PathNotFound):
            getattr(state, walk)()

    def test_walk_home(self, empty_after_full):
        index, u, w, _, _ = empty_after_full
        state = index.refinable(w, u)
        with pytest.raises(PathNotFound):
            state.walk_home({w: 0.0})

    def test_bounds(self, empty_after_full):
        index, u, _, node, object_index = empty_after_full
        assert index.bound_column(u) == []
        assert index.block_lower_bound(u, node.code, node.level) == math.inf
        handle = QueryHandle(index, object_index, VertexPosition(u))
        assert handle.block_bounds([node]) == [math.inf]

    def test_a_proximal_horizon_check(self, small_net):
        """The horizon check's own probe: ``u - 1``'s last row is beyond
        the horizon, ``u``'s table is empty -- ``PathNotFound``, not
        ``BeyondHorizonError``."""
        index = ProximalSILCIndex.build(small_net, radius=4.0)
        store = index.store
        offsets, colors = store.offsets.tolist(), store.colors.tolist()
        codes, levels = store.codes.tolist(), store.levels.tolist()
        cells = index.vertex_codes.tolist()
        for u in range(1, small_net.num_vertices):
            last = offsets[u] - 1
            if colors[last] != BEYOND:
                continue
            lo, hi = codes[last], codes[last] + 4 ** levels[last]
            ws = [w for w, c in enumerate(cells) if w != u and lo <= c < hi]
            if ws:
                break
        else:
            pytest.fail("no table's last block is beyond the horizon")
        sizes = store.sizes.copy()
        keep = np.ones(store.total_blocks, dtype=bool)
        keep[offsets[u] : offsets[u + 1]] = False
        sizes[u] = 0
        emptied = ProximalSILCIndex(
            small_net, index.embedding, index.vertex_codes,
            FlatStore.from_columns(
                sizes, {name: col[keep] for name, col in store.column_arrays().items()}
            ),
            index.radius,
        )
        with pytest.raises(PathNotFound):
            emptied.hop_and_interval(u, ws[0])
