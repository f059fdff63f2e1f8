"""QueryEngine: batched queries must match per-query calls exactly."""

import sys

import pytest

from repro import QueryEngine
from repro.geometry import Point
from repro.query.bestfirst import VARIANTS
from repro.query import best_first_knn
from repro.query.stats import QueryStats


@pytest.fixture()
def engine(small_index, small_object_index):
    return QueryEngine(small_index, small_object_index)


QUERIES = [0, 17, 42, 99, 149, 42]  # includes a repeat


class TestKnnBatch:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_per_query_knn(self, engine, small_index, small_object_index, variant):
        batch = engine.knn_batch(QUERIES, k=4, variant=variant)
        assert len(batch) == len(QUERIES)
        for q, result in zip(QUERIES, batch.results):
            single = best_first_knn(
                small_index, small_object_index, q, 4, variant=variant
            )
            assert result.ids() == single.ids()
            assert result.ordered == single.ordered
            assert [n.interval.lo for n in result.neighbors] == [
                n.interval.lo for n in single.neighbors
            ]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_exact_matches_per_query(self, engine, small_index, small_object_index, variant):
        batch = engine.knn_batch(QUERIES[:3], k=3, variant=variant, exact=True)
        for q, result in zip(QUERIES, batch.results):
            single = best_first_knn(
                small_index, small_object_index, q, 3, variant=variant, exact=True
            )
            assert result.ids() == single.ids()
            assert [n.distance for n in result.neighbors] == pytest.approx(
                [n.distance for n in single.neighbors]
            )

    def test_aggregated_stats_sum_counters(self, engine):
        batch = engine.knn_batch(QUERIES, k=4)
        assert isinstance(batch.stats, QueryStats)
        for counter in ("refinements", "queue_pushes", "objects_seen", "l_ops"):
            assert getattr(batch.stats, counter) == sum(
                getattr(r.stats, counter) for r in batch.results
            )
        assert batch.stats.elapsed == pytest.approx(
            sum(r.stats.elapsed for r in batch.results)
        )
        assert batch.elapsed >= batch.stats.elapsed * 0.5

    def test_empty_batch(self, engine):
        batch = engine.knn_batch([], k=3)
        assert len(batch) == 0
        assert batch.stats.refinements == 0
        assert batch.results == []

    def test_unknown_variant_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.knn_batch([0], k=3, variant="bogus")

    def test_batch_result_sequence_protocol(self, engine):
        batch = engine.knn_batch(QUERIES[:2], k=2)
        assert batch[0] is batch.results[0]
        assert list(batch) == batch.results


class RecordingOracle:
    """Stands in for a backend: records each call's keywords, then
    answers through the real one."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls: list[dict] = []

    def knn(self, position, k, **kwargs):
        self.calls.append(kwargs)
        return self.inner.knn(position, k, **kwargs)


class TestOneDispatch:
    def test_knn_and_batch_reach_the_oracle_with_the_same_keywords(self, engine):
        real = engine.oracles["silc"]
        fake = engine.oracles["silc"] = RecordingOracle(real)
        one = engine.knn(
            17, 3, variant="knn_m", exact=True, time_cap=60.0
        )
        batch = engine.knn_batch(
            [17, 42], 3, variant="knn_m", exact=True, time_cap=60.0
        )
        assert fake.calls[0] == {
            "variant": "knn_m", "exact": True, "time_budget": 60.0,
        }
        assert len(fake.calls) == 3
        for call in fake.calls[1:]:
            budget = call.pop("time_budget")
            assert 0.0 < budget <= 60.0  # what is left of the batch's cap
            assert call == {"variant": "knn_m", "exact": True}
        assert one.ids() == batch[0].ids() == real.knn(17, 3, exact=True).ids()


class TestLocationSharing:
    def test_locations_cached_across_calls(self, engine):
        engine.knn_batch([5, 5, 5], k=2)
        assert 5 in engine._positions
        pos = engine._positions[5]
        engine.knn(5, k=2)
        assert engine._positions[5] is pos

    def test_point_queries_resolve(self, engine, small_net):
        p = Point(float(small_net.xs[10]), float(small_net.ys[10]))
        batch = engine.knn_batch([p, p], k=3)
        single = engine.knn(10, k=3)
        assert batch.results[0].ids() == single.ids()
        assert p in engine._positions


class TestGeneratorQueries:
    def test_generator_batch_matches_list_batch(self, engine):
        """Regression: one-shot iterables must be consumed exactly once."""
        from_list = engine.knn_batch(QUERIES, k=3)
        from_gen = engine.knn_batch((q for q in QUERIES), k=3)
        assert len(from_gen) == len(QUERIES)
        assert [r.ids() for r in from_gen] == [r.ids() for r in from_list]

    def test_queries_iterated_exactly_once(self, engine):
        pulls = []

        def gen():
            for q in QUERIES:
                pulls.append(q)
                yield q

        batch = engine.knn_batch(gen(), k=2)
        assert pulls == QUERIES
        assert len(batch) == len(QUERIES)

    def test_invalid_variant_rejected_before_consuming(self, engine):
        gen = (q for q in QUERIES)
        with pytest.raises(ValueError):
            engine.knn_batch(gen, k=2, variant="bogus")
        assert list(gen) == QUERIES  # untouched, still usable


class TestBoundedLocationCache:
    def test_cache_never_exceeds_bound(self, small_index, small_object_index):
        engine = QueryEngine(small_index, small_object_index, max_locations=4)
        engine.knn_batch(range(20), k=2)
        assert len(engine._positions) == 4

    def test_lru_eviction_order(self, small_index, small_object_index):
        engine = QueryEngine(small_index, small_object_index, max_locations=3)
        engine.knn_batch([0, 1, 2], k=2)
        engine.knn(0, k=2)  # refresh 0: now 1 is the eviction victim
        engine.knn(3, k=2)
        assert set(engine._positions) == {0, 2, 3}

    def test_unbounded_when_none(self, small_index, small_object_index):
        engine = QueryEngine(small_index, small_object_index, max_locations=None)
        engine.knn_batch(range(50), k=2)
        assert len(engine._positions) == 50

    def test_bound_validated(self, small_index, small_object_index):
        with pytest.raises(ValueError):
            QueryEngine(small_index, small_object_index, max_locations=0)

    def test_evicted_location_still_answers_correctly(self, small_index, small_object_index):
        bounded = QueryEngine(small_index, small_object_index, max_locations=2)
        unbounded = QueryEngine(small_index, small_object_index)
        bounded.knn_batch(range(10), k=3)
        assert bounded.knn(0, k=3).ids() == unbounded.knn(0, k=3).ids()


class TestMidBatchFailure:
    """Satellite: the simulator must be restored when a query raises."""

    def test_storage_detached_after_mid_batch_error(self, small_index, small_object_index):
        engine = QueryEngine(small_index, small_object_index, cache_fraction=0.05)
        with pytest.raises(Exception):
            engine.knn_batch([0, 1, 10**9, 2], k=2)
        assert small_index.storage is None

    def test_caller_simulator_restored_after_error(self, small_index, small_object_index):
        theirs = small_index.make_storage(cache_fraction=0.05)
        small_index.attach_storage(theirs)
        try:
            engine = QueryEngine(small_index, small_object_index, cache_fraction=0.05)
            with pytest.raises(Exception):
                engine.knn_batch([0, 10**9], k=2)
            assert small_index.storage is theirs
            with pytest.raises(Exception):
                engine.knn(10**9, k=2)
            assert small_index.storage is theirs
        finally:
            small_index.detach_storage()

    def test_engine_still_serves_after_error(self, small_index, small_object_index):
        engine = QueryEngine(small_index, small_object_index, cache_fraction=0.05)
        with pytest.raises(Exception):
            engine.knn_batch([0, 10**9], k=2)
        batch = engine.knn_batch([0, 5], k=2)
        assert len(batch) == 2
        assert small_index.storage is None


class TestStorageReuse:
    def test_single_simulator_across_batch(self, small_index, small_object_index):
        engine = QueryEngine(
            small_index, small_object_index, cache_fraction=0.05
        )
        batch1 = engine.knn_batch(QUERIES, k=4)
        accesses_1 = engine.storage.stats.accesses
        assert batch1.stats.io_accesses == accesses_1
        # The same simulator keeps serving the next batch: its page
        # cache is warm, so the second identical batch misses less.
        batch2 = engine.knn_batch(QUERIES, k=4)
        assert engine.storage.stats.accesses == accesses_1 + batch2.stats.io_accesses
        assert batch2.stats.io_misses <= batch1.stats.io_misses
        # Results are unaffected by I/O accounting.
        no_io = QueryEngine(small_index, small_object_index).knn_batch(
            QUERIES, k=4
        )
        assert [r.ids() for r in batch1] == [r.ids() for r in no_io]

    def test_detaches_after_batch(self, small_index, small_object_index):
        engine = QueryEngine(
            small_index, small_object_index, cache_fraction=0.05
        )
        engine.knn_batch(QUERIES[:2], k=2)
        assert small_index.storage is None

    def test_restores_caller_attached_simulator(self, small_index, small_object_index):
        theirs = small_index.make_storage(cache_fraction=0.05)
        small_index.attach_storage(theirs)
        try:
            engine = QueryEngine(
                small_index, small_object_index, cache_fraction=0.05
            )
            engine.knn_batch(QUERIES[:2], k=2)
            assert small_index.storage is theirs
            engine.knn(0, k=2)
            assert small_index.storage is theirs
        finally:
            small_index.detach_storage()

    def test_simulator_matched_to_the_index_once(self, small_index, grid_index,
                                                 small_object_index):
        """A wrong simulator fails at construction, with attach_storage's
        error; after that no query re-derives the per-vertex table sizes
        (an O(num_vertices) comparison, too dear for every call)."""
        with pytest.raises(ValueError, match="does not match the index tables"):
            QueryEngine(
                small_index, small_object_index, storage=grid_index.make_storage()
            )
        engine = QueryEngine(small_index, small_object_index, cache_fraction=0.05)
        sizes_code = type(small_index.store).sizes.fget.__code__
        entered = 0

        def profiler(frame, event, arg):
            nonlocal entered
            if event == "call" and frame.f_code is sizes_code:
                entered += 1

        sys.setprofile(profiler)
        try:
            for q in range(10):
                engine.knn(q, k=2)
        finally:
            sys.setprofile(None)
        assert entered == 0
        assert engine.storage.stats.accesses > 0
        assert small_index.storage is None

    def test_storage_and_fraction_exclusive(self, small_index, small_object_index):
        with pytest.raises(ValueError):
            QueryEngine(
                small_index,
                small_object_index,
                storage=small_index.make_storage(),
                cache_fraction=0.05,
            )
