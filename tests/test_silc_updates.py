"""Tests for localized index maintenance (the paper's update challenge)."""

import numpy as np
import pytest

from repro.network import distance_matrix, road_like_network
from repro.silc import SILCIndex
from repro.silc.updates import affected_sources, diff_edges, sources_using_edge, update_index


@pytest.fixture(scope="module")
def update_setup():
    net = road_like_network(120, seed=77)
    index = SILCIndex.build(net)
    return net, index


def close_edge_on_a_path(net, index, src=0, dst=110):
    """A bidirectional closure that keeps the network connected."""
    path = index.path(src, dst)
    for i in range(1, len(path) - 2):
        a, b = path[i], path[i + 1]
        closed = net.without_edges([(a, b), (b, a)])
        if closed.num_strongly_connected_components() == 1:
            return closed, (a, b)
    pytest.skip("no closable edge found on this path")


class TestDiffEdges:
    def test_no_changes(self, update_setup):
        net, _ = update_setup
        assert diff_edges(net, net) == []

    def test_removal_detected(self, update_setup):
        net, index = update_setup
        closed, (a, b) = close_edge_on_a_path(net, index)
        changes = {(c[0], c[1]): (c[2], c[3]) for c in diff_edges(net, closed)}
        assert changes[(a, b)][1] is None
        assert changes[(b, a)][1] is None
        assert len(changes) == 2

    def test_insertion_detected(self, update_setup):
        net, _ = update_setup
        # duplicate removal in reverse: diff(new, old) shows insertion
        extra = net.with_edges([(0, 100, 500.0)]) if not net.has_edge(0, 100) else net
        changes = diff_edges(net, extra)
        if extra is not net:
            assert changes == [(0, 100, None, 500.0)]

    def test_weight_change_detected(self, update_setup):
        net, _ = update_setup
        u, v, w = next(iter(net.iter_edges()))
        changed = net.without_edges([(u, v)]).with_edges([(u, v, w * 2)])
        changes = diff_edges(net, changed)
        assert changes == [(u, v, w, w * 2)]

    def test_vertex_change_rejected(self, update_setup):
        net, _ = update_setup
        other = road_like_network(120, seed=78)
        from repro.network.errors import GraphConstructionError

        with pytest.raises(GraphConstructionError):
            diff_edges(net, other)


class TestSourcesUsingEdge:
    def test_predicate_matches_definition(self, update_setup):
        net, _ = update_setup
        D = distance_matrix(net)
        u, v, w = next(iter(net.iter_edges()))
        got = sources_using_edge(net, u, v)
        expected = {
            s
            for s in range(net.num_vertices)
            if abs(D[s, u] + w - D[s, v]) <= 1e-6
        }
        assert got == expected

    def test_tail_is_always_included(self, update_setup):
        """The edge's own tail uses the edge iff it is a shortest link."""
        net, _ = update_setup
        D = distance_matrix(net)
        u, v, w = next(iter(net.iter_edges()))
        if abs(D[u, v] - w) <= 1e-9:
            assert u in sources_using_edge(net, u, v)


class TestUpdateIndex:
    def test_identity_update(self, update_setup):
        net, index = update_setup
        new_index, rebuilt = update_index(index, net)
        assert rebuilt == set()
        # No change: the whole flat store is shared, not copied.
        assert new_index.store is index.store

    def test_closure_matches_full_rebuild(self, update_setup, rng):
        net, index = update_setup
        closed, _ = close_edge_on_a_path(net, index)
        patched, rebuilt = update_index(index, closed)
        assert rebuilt, "a used edge closure must affect someone"
        D = distance_matrix(closed)
        for _ in range(120):
            u, v = map(int, rng.integers(0, net.num_vertices, 2))
            assert patched.distance(u, v) == pytest.approx(
                D[u, v], rel=1e-9, abs=1e-12
            )

    def test_unaffected_tables_carried_over(self, update_setup):
        net, index = update_setup
        closed, _ = close_edge_on_a_path(net, index)
        patched, rebuilt = update_index(index, closed)
        untouched = set(range(net.num_vertices)) - rebuilt
        assert untouched, "a local closure must leave most tables alone"
        # Untouched tables carry their columns over bit-for-bit into
        # the new flat store; only the rebuilt sources were recomputed
        # (and at least one of them actually changed).
        for s in untouched:
            old, new = index.tables[s], patched.tables[s]
            assert np.array_equal(old.codes, new.codes)
            assert np.array_equal(old.colors, new.colors)
            assert np.array_equal(old.lam_min, new.lam_min)
        assert any(
            not np.array_equal(index.tables[s].colors, patched.tables[s].colors)
            or not np.array_equal(index.tables[s].codes, patched.tables[s].codes)
            or not np.array_equal(index.tables[s].lam_max, patched.tables[s].lam_max)
            for s in rebuilt
        ), "a closure on a used edge must change at least one rebuilt table"

    def test_speedup_matches_full_rebuild(self, update_setup, rng):
        """A new fast edge (shortcut) must propagate to all users."""
        net, index = update_setup
        # shortcut between two far vertices
        D_old = distance_matrix(net)
        u, v = 0, int(np.argmax(D_old[0]))
        shortcut_w = net.euclidean(u, v)  # metric-respecting fast road
        boosted = net.with_edges([(u, v, shortcut_w), (v, u, shortcut_w)])
        patched, rebuilt = update_index(index, boosted)
        assert rebuilt
        D = distance_matrix(boosted)
        for _ in range(120):
            a, b = map(int, rng.integers(0, net.num_vertices, 2))
            assert patched.distance(a, b) == pytest.approx(
                D[a, b], rel=1e-9, abs=1e-12
            )

    def test_weight_increase_matches_full_rebuild(self, update_setup, rng):
        net, index = update_setup
        path = index.path(5, 100)
        a, b = path[1], path[2]
        w = net.edge_weight(a, b)
        slowed = net.without_edges([(a, b)]).with_edges([(a, b, w * 3)])
        patched, rebuilt = update_index(index, slowed)
        D = distance_matrix(slowed)
        for _ in range(100):
            s, t = map(int, rng.integers(0, net.num_vertices, 2))
            assert patched.distance(s, t) == pytest.approx(
                D[s, t], rel=1e-9, abs=1e-12
            )

    def test_rebuild_cost_is_local(self, update_setup):
        """Most sources survive a single local closure untouched."""
        net, index = update_setup
        closed, _ = close_edge_on_a_path(net, index)
        _, rebuilt = update_index(index, closed)
        assert len(rebuilt) < net.num_vertices
