"""Unit tests for progressive refinement."""

import bisect

import pytest

from repro.datasets import random_vertex_objects
from repro.objects import ObjectIndex
from repro.query.bestfirst import HOME_MIN_K, best_first_knn
from repro.silc import SILCIndex
from repro.silc.refinement import RefinableDistance, RefinementCounter


class TestRefinableDistance:
    def test_initial_interval_contains_truth(self, small_index, small_dist, rng):
        n = small_dist.shape[0]
        for _ in range(50):
            u, v = map(int, rng.integers(0, n, 2))
            r = small_index.refinable(u, v)
            assert r.interval.lo <= small_dist[u, v] <= r.interval.hi

    def test_monotone_refinement(self, small_index, small_dist, rng):
        """Lower bounds never decrease, upper bounds never increase."""
        n = small_dist.shape[0]
        for _ in range(30):
            u, v = map(int, rng.integers(0, n, 2))
            r = small_index.refinable(u, v)
            prev = r.interval
            while r.refine():
                cur = r.interval
                assert cur.lo >= prev.lo - 1e-12
                assert cur.hi <= prev.hi + 1e-12
                assert cur.lo <= small_dist[u, v] + 1e-9
                assert cur.hi >= small_dist[u, v] - 1e-9
                prev = cur

    def test_terminates_exact(self, small_index, small_dist, rng):
        n = small_dist.shape[0]
        for _ in range(30):
            u, v = map(int, rng.integers(0, n, 2))
            r = small_index.refinable(u, v)
            d = r.refine_fully()
            assert r.via == r.target
            assert d == pytest.approx(small_dist[u, v], rel=1e-9, abs=1e-12)

    def test_refine_on_exact_is_noop(self, small_index):
        r = small_index.refinable(3, 3)
        assert r.via == r.target
        assert not r.refine()

    def test_steps_equal_path_length(self, small_index):
        u, v = 0, 100
        path = small_index.path(u, v)
        r = small_index.refinable(u, v)
        steps = 0
        while r.refine():
            steps += 1
        assert steps == len(path) - 1

    def test_counter_shared_across_refinables(self, small_index):
        counter = RefinementCounter()
        r1 = small_index.refinable(0, 50, counter=counter)
        r2 = small_index.refinable(0, 80, counter=counter)
        r1.refine()
        r2.refine()
        r2.refine()
        assert counter.count == 3

    def test_offset_shifts_whole_interval(self, small_index, small_dist):
        base = small_index.refinable(0, 60)
        shifted = small_index.refinable(0, 60, offset=5.0)
        assert shifted.interval.lo == pytest.approx(base.interval.lo + 5.0)
        assert shifted.interval.hi == pytest.approx(base.interval.hi + 5.0)
        assert shifted.refine_fully() == pytest.approx(
            small_dist[0, 60] + 5.0, rel=1e-9
        )

    def test_negative_offset_rejected(self, small_index):
        with pytest.raises(ValueError):
            small_index.refinable(0, 1, offset=-1.0)

    def test_via_walks_the_shortest_path(self, small_index):
        u, v = 5, 110
        path = small_index.path(u, v)
        r = small_index.refinable(u, v)
        seen = [r.via]
        while r.refine():
            seen.append(r.via)
        assert seen == path

    def test_acc_tracks_prefix_distance(self, small_index, small_dist):
        u, v = 2, 90
        r = small_index.refinable(u, v)
        while r.refine():
            assert r.acc == pytest.approx(small_dist[u, r.via], rel=1e-9)

    def test_max_steps_guard(self, small_index):
        r = small_index.refinable(0, 100)
        with pytest.raises(RuntimeError):
            r.refine_fully(max_steps=1)


class TestWalkHome:
    """``walk_home`` on a network whose every edge has an equal-weight
    reverse: from the target back toward the source, stopping at the
    first vertex whose distance is known."""

    def test_lands_on_the_forward_walks_bits_and_links(self, small_index, rng):
        assert small_index.network.symmetric
        n = small_index.network.num_vertices
        for _ in range(40):
            u, v = map(int, rng.integers(0, n, 2))
            forward, home = RefinementCounter(), RefinementCounter()
            d = small_index.refinable(u, v, forward).refine_fully()
            state = small_index.refinable(u, v, home)
            assert state.walk_home({u: 0.0}) == d  # the same float fold
            assert (state.via, state.lo, state.hi) == (v, d, d)
            assert home.count == forward.count

    def test_a_walk_stops_where_an_earlier_one_passed(self, small_index):
        path, far = small_index.route(3, 120)
        assert len(path) > 4
        known = {3: 0.0}
        counter = RefinementCounter()
        small_index.refinable(3, 120, counter).walk_home(known)
        assert set(path) <= set(known)
        assert known[120] == far
        # A vertex on that path costs nothing more; a second walk pays
        # only for the links it did not share.
        near = path[len(path) // 2]
        before = counter.count
        state = small_index.refinable(3, near, counter)
        assert state.walk_home(known) == small_index.distance(3, near)
        assert counter.count == before

    @staticmethod
    def _detour(index, source, target, toward):
        """``(vertex, row, wrong)``: a vertex the walk toward ``toward``
        probes on the path from ``source`` to ``target``, its table row
        for ``toward``'s cell and the rank of an out-edge other than the
        row's colour, whose target's own path to ``toward`` avoids the
        vertex and which lands the walk outside the state's first bounds
        -- or None.  A forward walk probes the path's inner vertices; a walk
        home probes from the target down to the vertex after the
        source's first hop, which it knows from the state."""
        hi = index.refinable(source, target).hi
        path = index.route(source, target)[0]
        start = target if toward == source else source
        for vertex in path[2:] if toward == source else path[1:-1]:
            codes, _, colors, _, _ = index.tables[vertex].columns
            row = bisect.bisect_right(codes, index._vcodes[toward]) - 1
            for wrong, (neighbour, weight) in enumerate(index.network.out_edges[vertex]):
                rest, far = index.route(neighbour, toward)
                if wrong == colors[row] or vertex in rest:
                    continue
                if index.distance(start, vertex) + weight + far > hi * (1 + 1e-6):
                    return vertex, row, wrong
        return None

    @pytest.mark.parametrize("direction", ["forward", "home"])
    def test_a_walk_sent_through_a_wrong_neighbour_is_refused(self, small_net, direction):
        index = SILCIndex.build(small_net)  # a colour is flipped in place
        n = small_net.num_vertices
        for source, target in ((s, (s * 37 + 11) % n) for s in range(0, n, 7)):
            toward = target if direction == "forward" else source
            found = self._detour(index, source, target, toward)
            if found is not None:
                break
        else:
            pytest.fail("no detour leaves the bounds on this network")
        vertex, row, wrong = found
        index.tables[vertex].columns[2][row] = wrong
        state = index.refinable(source, target)
        with pytest.raises(ValueError, match="outside its bounds"):
            if direction == "forward":
                state.refine_fully()
            else:
                state.walk_home({source: 0.0})

    def test_a_search_refuses_a_first_walk_home_that_leaves_its_first_bounds(
        self, small_net, monkeypatch
    ):
        """An exact search for HOME_MIN_K or more walks a colliding
        vertex object home before any step has tightened it, so the walk
        is checked against the state's first, loose bounds: a colour
        flipped on its path to a detour that leaves them must raise, not
        be served.  A detour that stays inside those bounds still passes
        as an exact distance; that is the mapped-index integrity gap
        (ROADMAP item 2(d)), not a case this check can see."""
        index = SILCIndex.build(small_net)  # a colour is flipped in place
        object_index = ObjectIndex(
            small_net, random_vertex_objects(small_net, count=20, seed=4), index.embedding
        )
        real_walk = RefinableDistance.walk_home
        first_walks = []  # (source, target, unrefined) of each search's first walk

        def walk(state, known):
            if len(first_walks) == searches:
                first_walks.append((state.source, state.target, state.via == state.source))
            return real_walk(state, known)

        monkeypatch.setattr(RefinableDistance, "walk_home", walk)
        for searches, query in enumerate(range(0, small_net.num_vertices, 7)):
            best_first_knn(index, object_index, query, HOME_MIN_K, variant="inn", exact=True)
            source, target, unrefined = first_walks[-1]
            assert source == query and unrefined
            found = self._detour(index, source, target, source)
            if found is not None:
                break
        else:
            pytest.fail("no first walk can be sent out of its bounds on this network")
        vertex, row, wrong = found
        index.tables[vertex].columns[2][row] = wrong
        with pytest.raises(ValueError, match="outside its bounds"):
            best_first_knn(index, object_index, query, HOME_MIN_K, variant="inn", exact=True)
