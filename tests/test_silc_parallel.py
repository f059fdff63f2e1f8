"""Parallel SILC construction: identity with the serial build."""

import numpy as np
import pytest

from repro.network import road_like_network
from repro.silc.proximal import ProximalSILCIndex
from repro.silc import SILCIndex, available_workers
from repro.silc.parallel import resolve_workers

TABLE_COLUMNS = ("codes", "levels", "colors", "lam_min", "lam_max")


def assert_identical(a, b):
    assert a.embedding.order == b.embedding.order
    assert a.embedding.bounds == b.embedding.bounds
    assert np.array_equal(a.vertex_codes, b.vertex_codes)
    assert len(a.tables) == len(b.tables)
    for ta, tb in zip(a.tables, b.tables):
        for col in TABLE_COLUMNS:
            ca, cb = getattr(ta, col), getattr(tb, col)
            assert ca.dtype == cb.dtype
            assert np.array_equal(ca, cb)


class TestParallelBuild:
    def test_matches_serial_build(self, small_net):
        serial = SILCIndex.build(small_net)
        parallel = SILCIndex.build(small_net, workers=2)
        assert_identical(serial, parallel)

    def test_small_chunks_same_result(self, small_net):
        serial = SILCIndex.build(small_net)
        parallel = SILCIndex.build(small_net, workers=2, chunk_size=7)
        assert_identical(serial, parallel)

    def test_subset_sources(self, small_net):
        subset = list(range(0, small_net.num_vertices, 3))
        serial = SILCIndex.build(small_net, sources=subset)
        parallel = SILCIndex.build(small_net, sources=subset, workers=2)
        assert_identical(serial, parallel)
        # Unbuilt sources stay empty in both.
        unbuilt = set(range(small_net.num_vertices)) - set(subset)
        for v in unbuilt:
            assert len(parallel.tables[v]) == 0

    def test_progress_reaches_total(self, small_net):
        calls = []
        SILCIndex.build(
            small_net, workers=2, chunk_size=32,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls, "progress was never called"
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        assert calls[-1] == (small_net.num_vertices, small_net.num_vertices)

    def test_parallel_queries_work(self, small_net, small_dist):
        index = SILCIndex.build(small_net, workers=2)
        for u, v in [(0, 50), (10, 149), (77, 3)]:
            assert index.distance(u, v) == pytest.approx(small_dist[u, v])

    def test_proximal_parallel_matches_serial(self):
        net = road_like_network(120, seed=5)
        radius = 0.3 * float(np.hypot(np.ptp(net.xs), np.ptp(net.ys)))
        serial = ProximalSILCIndex.build(net, radius=radius)
        parallel = ProximalSILCIndex.build(net, radius=radius, workers=2)
        assert_identical(serial, parallel)
        assert parallel.radius == radius


class TestGeneratorSources:
    def test_generator_sources_build_nonempty(self, small_net):
        """Regression: a generator ``sources`` used to be exhausted by
        the ``len(list(sources))`` total probe, silently producing an
        all-empty index."""
        subset = list(range(40))
        from_list = SILCIndex.build(small_net, sources=subset)
        from_gen = SILCIndex.build(small_net, sources=(v for v in subset))
        assert sum(len(t) for t in from_gen.tables) > 0
        assert_identical(from_list, from_gen)

    def test_generator_sources_parallel(self, small_net):
        subset = list(range(40))
        from_list = SILCIndex.build(small_net, sources=subset)
        from_gen = SILCIndex.build(
            small_net, sources=(v for v in subset), workers=2
        )
        assert_identical(from_list, from_gen)

    def test_generator_progress_total(self, small_net):
        totals = set()
        SILCIndex.build(
            small_net,
            sources=(v for v in range(25)),
            progress=lambda done, total: totals.add(total),
        )
        assert totals == {25}


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_workers(0) == available_workers()

    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)
