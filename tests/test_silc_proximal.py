"""Tests for the horizon-limited (proximal) SILC index."""

import numpy as np
import pytest

from repro.network.errors import PathNotFound
from repro.network import distance_matrix, road_like_network
from repro.quadtree.blocks import BEYOND
import repro.silc.index as silc_index
import repro.silc.proximal as proximal
import repro.silc.refinement as refinement
from repro.silc import SILCIndex
from repro.silc.proximal import BeyondHorizonError, ProximalSILCIndex


@pytest.fixture(scope="module")
def proximal_setup():
    net = road_like_network(150, seed=5)
    D = distance_matrix(net)
    radius = float(np.quantile(D[np.isfinite(D)], 0.3))  # cover ~30% of pairs
    return net, D, radius, ProximalSILCIndex.build(net, radius=radius)


def within_horizon(prox, source, target):
    """Whether the direct probe from ``source`` answers ``target``."""
    try:
        prox.hop_and_interval(source, target)
    except BeyondHorizonError:
        return False
    return True


class TestBuild:
    def test_radius_validation(self, small_net):
        with pytest.raises(ValueError):
            ProximalSILCIndex.build(small_net, radius=0.0)

    def test_local_horizon_smaller_than_full_index(self, proximal_setup):
        """Savings appear once the horizon is genuinely local.

        A wide horizon can even cost extra blocks (its boundary is one
        more color region); the LBS payoff needs a small radius.
        """
        net, _, radius, prox = proximal_setup
        full = SILCIndex.build(net)
        local = ProximalSILCIndex.build(net, radius=radius / 3)
        assert local.total_blocks() < full.total_blocks()

    def test_tighter_radius_smaller_index(self, proximal_setup):
        net, _, radius, prox = proximal_setup
        tighter = ProximalSILCIndex.build(net, radius=radius / 3)
        assert tighter.total_blocks() <= prox.total_blocks()

    def test_horizon_fraction_tracks_radius(self, proximal_setup):
        net, D, radius, prox = proximal_setup
        n = net.num_vertices
        answered = sum(
            within_horizon(prox, u, v) for u in range(n) for v in range(n) if u != v
        )
        frac = answered / (n * (n - 1))
        finite = D[np.isfinite(D) & (D > 0)]
        expected = float(np.mean(finite <= radius))
        assert frac == pytest.approx(expected, abs=0.02)


class TestQueries:
    def test_within_horizon_exact(self, proximal_setup):
        net, D, radius, prox = proximal_setup
        checked = 0
        for u in range(0, net.num_vertices, 7):
            for v in range(0, net.num_vertices, 11):
                if u == v or D[u, v] > radius:
                    continue
                assert prox.next_hop(u, v) >= 0
                _, lo, hi = prox.hop_and_interval(u, v)
                assert lo - 1e-9 <= D[u, v] <= hi + 1e-9
                checked += 1
        assert checked > 20

    def test_beyond_horizon_raises(self, proximal_setup):
        net, D, radius, prox = proximal_setup
        u = 0
        v = int(np.argmax(D[u]))
        assert D[u, v] > radius
        with pytest.raises(BeyondHorizonError):
            prox.next_hop(u, v)
        with pytest.raises(BeyondHorizonError):
            prox.hop_and_interval(u, v)

    def test_beyond_horizon_probe_counts_no_page_access(self, proximal_setup):
        """Only answered probes are accounted; one that raises is not."""
        net, D, radius, prox = proximal_setup
        u = 0
        far = int(np.argmax(D[u]))
        near = int(np.argsort(D[u])[1])
        storage = prox.make_storage()
        prox.attach_storage(storage)
        try:
            with pytest.raises(BeyondHorizonError):
                prox.hop_and_interval(u, far)
            assert storage.stats.accesses == 0
            prox.hop_and_interval(u, near)
            assert storage.stats.accesses == 1
        finally:
            prox.detach_storage()

    def test_a_probe_bisects_once(self, proximal_setup, monkeypatch):
        """``hop_and_interval`` locates its row once, answered or beyond
        the horizon, and a refinement state's probe does too: the
        horizon is the colour of the row it found."""
        net, _, _, prox = proximal_setup
        bisects = []
        real = silc_index.bisect_right

        def counting(*args):
            bisects.append(args)
            return real(*args)

        # Every module a proximal probe runs in (proximal.py has no
        # bisect of its own: one it grew would be counted too).
        for module in (silc_index, refinement, proximal):
            monkeypatch.setattr(module, "bisect_right", counting, raising=False)
        answered = beyond = 0
        for source in range(0, net.num_vertices, 5):
            for target in range(net.num_vertices):
                if target == source:
                    continue
                for probe in (prox.hop_and_interval, prox.refinable):
                    del bisects[:]
                    try:
                        probe(source, target)
                        answered += 1
                    except BeyondHorizonError:
                        beyond += 1
                    assert len(bisects) == 1, (probe, source, target)
        assert answered > 100 and beyond > 100

    def test_a_step_that_raises_leaves_the_state_as_it_was(self, proximal_setup):
        """A refinement step whose probe finds the target past the next
        vertex's horizon raises and moves nothing: ``via``, ``acc``, the
        bounds and the query's counter are what they were before it, and
        the same step raises again."""
        net, D, radius, _ = proximal_setup
        prox = ProximalSILCIndex.build(net, radius=radius)  # private: the test edits it
        source = 0
        target = next(
            int(v) for v in np.argsort(D[source])
            if D[source, v] <= radius and len(prox.path(source, int(v))) >= 4
        )
        hop = prox.path(source, target)[1]
        # The hop's table now says the target lies past its horizon.
        table = prox.tables[hop]
        table.colors.setflags(write=True)
        table.colors[table.lookup(int(prox.vertex_codes[target]))[3]] = BEYOND
        counter = refinement.RefinementCounter()
        state = prox.refinable(source, target, counter=counter)
        before = (state.via, state.acc, state.lo, state.hi)
        for _ in range(2):
            with pytest.raises(BeyondHorizonError):
                state.refine()
            assert (state.via, state.acc, state.lo, state.hi) == before
            assert counter.count == 0

    def test_within_horizon_predicate(self, proximal_setup):
        net, D, radius, prox = proximal_setup
        for u in range(0, net.num_vertices, 13):
            for v in range(0, net.num_vertices, 17):
                if u == v:
                    assert within_horizon(prox, u, v)
                    continue
                expected = D[u, v] <= radius
                # allow float slack right at the horizon
                if abs(D[u, v] - radius) > 1e-6:
                    assert within_horizon(prox, u, v) == expected

    def test_multi_hop_operations_raise_beyond_horizon(self, proximal_setup):
        """path()/distance() fail fast when the target is out of range."""
        net, D, radius, prox = proximal_setup
        u = 0
        v = int(np.argmax(D[u]))
        assert D[u, v] > radius
        with pytest.raises(BeyondHorizonError):
            prox.path(u, v)
        with pytest.raises(BeyondHorizonError):
            prox.distance(u, v)

    def test_fallback_recipe(self, proximal_setup):
        """The documented fallback (A*) covers beyond-horizon targets."""
        from repro.network import shortest_path

        net, D, radius, prox = proximal_setup
        u = 0
        v = int(np.argmax(D[u]))
        try:
            d = prox.distance(u, v)
        except BeyondHorizonError:
            _, d, _ = shortest_path(net, u, v, heuristic_scale=1.0)
        assert d == pytest.approx(D[u, v], rel=1e-9)

    def test_exact_distance_within_horizon(self, proximal_setup, rng):
        net, D, radius, prox = proximal_setup
        done = 0
        while done < 30:
            u, v = map(int, rng.integers(0, net.num_vertices, 2))
            if D[u, v] > radius:
                continue
            assert prox.distance(u, v) == pytest.approx(D[u, v], rel=1e-9, abs=1e-12)
            done += 1
