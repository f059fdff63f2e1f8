"""Tests for the cost-based query planner and engine backend routing.

The load-bearing property: whatever backend the planner picks, the
*answers* are the ones forced SILC would have given -- planning is a
performance decision, never a correctness one.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.engine import QueryEngine
from repro.errors import CorruptIndexError
from repro.faults import truncate_file
from repro.oracle.planner import COST_MODEL_FILE, WARM_PICKS, _cheapest
from repro.oracle import PLANNABLE, CostConstants, PrunedLabellingOracle, QueryPlanner, counted_ops
from repro.query.stats import QueryStats
from repro.storage.lru import CacheStats


def decisions(planner):
    """Per-backend planned picks, as the planner's registry counted them."""
    counted = {
        backend: planner.registry.counter_value(
            "planner_decisions_total", stage="plan", oracle=backend
        )
        for backend in PLANNABLE
    }
    return {backend: n for backend, n in counted.items() if n}


def counted(planner, name):
    return planner.registry.counter_value(name, stage="plan")


@pytest.fixture(scope="module")
def labelling(small_net):
    return PrunedLabellingOracle.build(small_net)


@pytest.fixture()
def engine(small_index, small_object_index, labelling):
    return QueryEngine(
        small_index, small_object_index, labelling=labelling, oracle="auto"
    )


class TestPlannerParity:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_auto_matches_forced_silc(self, engine, k):
        queries = [0, 23, 77, 130, 23]
        # exact=True on both sides: the SILC backend answers bounds by
        # default, so a timing-calibrated pick of SILC would otherwise
        # compare bounds against exact distances.
        auto = engine.knn_batch(queries, k, exact=True, oracle="auto")
        silc = engine.knn_batch(queries, k, exact=True, oracle="silc")
        assert [r.ids() for r in auto] == [r.ids() for r in silc]
        for a, s in zip(auto.results, silc.results):
            assert a.distances() == pytest.approx(s.distances(), rel=1e-9)

    @pytest.mark.parametrize("backend", ["labels", "ine"])
    def test_every_backend_matches_silc(self, engine, backend):
        for q in (0, 42, 101):
            got = engine.knn(q, 4, oracle=backend)
            want = engine.knn(q, 4, exact=True, oracle="silc")
            assert got.ids() == want.ids()
            assert got.distances() == pytest.approx(
                want.distances(), rel=1e-9
            )

    def test_planner_decisions_counted(self, engine):
        queries = [0, 23, 77, 130]
        engine.knn_batch(queries, 3, oracle="auto")
        assert sum(decisions(engine.planner).values()) == len(queries)
        assert counted(engine.planner, "planner_calibrations_total") == 1
        assert counted(engine.planner, "planner_calibration_queries_total") > 0


class TestForcedBackend:
    """A backend is forced by naming it (``oracle=``, ``--oracle``, a
    request's ``oracle``): the planner is never consulted."""

    def test_force_overrides_cost_model(self, small_index, small_object_index,
                                        labelling):
        engine = QueryEngine(
            small_index, small_object_index, labelling=labelling, oracle="auto"
        )
        result = engine.knn(23, 5, oracle="labels")
        assert result.stats.label_scans > 0
        assert engine.planner is None  # never built, never calibrated

    def test_force_unavailable_backend_rejected(self, small_index,
                                                small_object_index):
        engine = QueryEngine(small_index, small_object_index, oracle="auto")
        with pytest.raises(ValueError, match="not loaded"):
            engine.knn(0, 3, oracle="labels")
        assert engine.planner is None


class TestBackendValidation:
    def test_unknown_oracle_rejected(self, small_index, small_object_index):
        engine = QueryEngine(small_index, small_object_index)
        with pytest.raises(ValueError, match="unknown oracle"):
            engine.knn(0, 3, oracle="quantum")
        with pytest.raises(ValueError, match="unknown oracle"):
            QueryEngine(small_index, small_object_index, oracle="quantum")

    def test_labels_without_labelling_rejected(self, small_index,
                                               small_object_index):
        engine = QueryEngine(small_index, small_object_index)
        with pytest.raises(ValueError, match="not loaded"):
            engine.knn(0, 3, oracle="labels")

    def test_auto_without_labelling_still_answers(self, small_index,
                                                  small_object_index):
        engine = QueryEngine(small_index, small_object_index, oracle="auto")
        got = engine.knn(23, 4)
        want = engine.knn(23, 4, exact=True, oracle="silc")
        assert got.ids() == want.ids()


class TestCostModel:
    def test_constants_round_trip(self, tmp_path):
        constants = CostConstants(
            op_model={"silc": (3.0, 1.5), "labels": (40.0, 20.0)},
            op_seconds={"silc": 2e-5, "labels": 3e-7},
            miss_rate=0.25,
        )
        constants.save(tmp_path)
        loaded = CostConstants.load(tmp_path)
        assert loaded == constants
        assert CostConstants.load(tmp_path / "nope") is None

    @pytest.mark.parametrize(
        "damage", ["truncated", "not_json", "missing_key", "wrong_shape", "edited", "no_checksum"]
    )
    def test_damaged_cost_model_fails_typed(self, tmp_path, damage):
        """Outside input: like every other persisted artifact it fails
        as CorruptIndexError naming the file, never a bare traceback."""
        CostConstants(
            op_model={"silc": (3.0, 1.5)}, op_seconds={"silc": 2e-5}
        ).save(tmp_path)
        path = tmp_path / COST_MODEL_FILE
        if damage == "truncated":
            truncate_file(path)
        elif damage == "not_json":
            path.write_bytes(b"\x93NUMPY\x01\x00\xff\xfe")
        else:
            payload = json.loads(path.read_text())
            if damage == "missing_key":
                del payload["query_seconds"]  # every key save writes is required
            elif damage == "wrong_shape":
                payload["op_model"] = [1.0, 2.0]
            elif damage == "edited":  # well-formed, but not the values saved
                payload["op_seconds"]["silc"] = 9e-5
            else:  # a file written before cost models carried a checksum
                del payload["crc32"]
            path.write_text(json.dumps(payload))
        with pytest.raises(CorruptIndexError, match=COST_MODEL_FILE):
            CostConstants.load(tmp_path)

    def test_predicted_cost_linear_in_k(self):
        constants = CostConstants(
            op_model={"silc": (2.0, 3.0)}, op_seconds={"silc": 1.0}
        )
        assert constants.predicted_ops("silc", 4) == pytest.approx(14.0)
        assert constants.predicted_cost("silc", 4) == pytest.approx(14.0)

    def test_counted_ops_units(self):
        stats = QueryStats(refinements=7, label_scans=11, settled=13)
        stats.extras["post_refinements"] = 2
        assert counted_ops("silc", stats) == 9
        assert counted_ops("labels", stats) == 11
        assert counted_ops("ine", stats) == 13
        with pytest.raises(ValueError):
            counted_ops("quantum", stats)

    def test_preloaded_constants_skip_calibration(self, engine):
        constants = CostConstants(
            op_model={"silc": (1.0, 1.0), "labels": (1.0, 1.0),
                      "ine": (1.0, 1.0)},
            op_seconds={"silc": 1.0, "labels": 1e-9, "ine": 1.0},
        )
        engine.planner = QueryPlanner(engine.oracles, constants=constants)
        result = engine.knn(23, 3, oracle="auto")
        assert counted(engine.planner, "planner_calibrations_total") == 0
        assert decisions(engine.planner) == {"labels": 1}
        assert result.stats.label_scans > 0

    def test_explain_names_winner(self, engine):
        planner = engine.ensure_planner()
        line = planner.explain(4)
        assert "k=4" in line and "->" in line


class TestWarmPickReuse:
    """While the page cache is no colder than at calibration, ``choose``
    reuses its pick for a ``k``; colder, it prices every backend again.
    Either way it picks and counts what pricing every call would."""

    #: silc wins the middle ks, ine the small ones (k = 2 ties silc,
    #: which PLANNABLE breaks), labels the large ones; a colder cache
    #: scales silc up and hands its ks to the others.
    CONSTANTS = CostConstants(
        op_model={"silc": (2.0, 0.5), "labels": (5.0, 0.1), "ine": (1.0, 1.0)},
        op_seconds={"silc": 1e-6, "labels": 1e-6, "ine": 1e-6},
        miss_rate=0.25,
    )

    def test_reused_pick_is_the_priced_one_at_every_k_and_miss_rate(self):
        storage = SimpleNamespace(stats=CacheStats())
        planner = QueryPlanner(
            {"silc": None, "labels": None, "ine": None},
            constants=self.CONSTANTS, storage=storage,
        )
        rng = random.Random(36)
        expected = Counter()
        warm = cold = 0
        for step in range(2000):
            # Miss rates below, at and above calibration's, in a seeded order.
            misses = rng.choice((0, 100, 250, 251, 400, 900))
            storage.stats = CacheStats(accesses=1000, hits=1000 - misses, misses=misses)
            k = rng.randint(1, 64)
            costs = planner.predicted_costs(k)  # priced afresh, never reused
            want = min(costs, key=lambda b: (costs[b], PLANNABLE.index(b)))
            assert planner.choose(step, k) == want, (k, misses)
            expected[want] += 1
            warm += misses <= 250
            cold += misses > 250
        assert warm > 500 and cold > 500
        assert len(expected) == 3  # every backend won somewhere
        assert decisions(planner) == dict(expected)

    def test_picks_for_any_number_of_distinct_ks_keep_memory_flat(self):
        """``k`` is any client integer: after 200 000 distinct ones the
        planner keeps at most ``WARM_PICKS`` picks, 20 000 more grow its
        traced memory by under 16 KB (an entry per k grows it ~640 KB
        over them), and every pick is still the priced one."""
        planner = QueryPlanner(
            {"silc": None, "labels": None, "ine": None}, constants=self.CONSTANTS
        )
        picked = Counter()

        def run(ks):
            for k in ks:
                got = planner.choose(k, k)
                assert got == _cheapest(planner.predicted_costs(k)), k
                picked[got] += 1

        run(range(1, 200_001))
        assert len(planner._warm_picks) <= WARM_PICKS
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(range(200_001, 220_001))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024, grown
        assert set(picked) == {"silc", "labels", "ine"}
        assert decisions(planner) == dict(picked)

    def test_new_constants_are_priced_afresh(self):
        planner = QueryPlanner({"silc": None, "ine": None}, constants=self.CONSTANTS)
        assert planner.choose(0, 1) == "ine"
        planner.constants = CostConstants(
            op_model={"silc": (0.0, 0.0), "ine": (1.0, 1.0)},
            op_seconds={"silc": 1e-6, "ine": 1e-6},
        )
        assert planner.choose(0, 1) == "silc"


class TestEpsilonParity:
    def test_epsilon_zero_identical_to_exact(self, engine):
        queries = [0, 23, 77]
        base = engine.knn_batch(queries, 5, exact=True, oracle="silc")
        eps = engine.knn_batch(queries, 5, exact=True, epsilon=0.0,
                               oracle="silc")
        assert [r.ids() for r in eps] == [r.ids() for r in base]
        for a, b in zip(eps.results, base.results):
            assert a.distances() == pytest.approx(b.distances(), rel=1e-12)

    def test_epsilon_bounds_error(self, engine, small_dist, small_objects):
        epsilon = 0.5
        batch = engine.knn_batch([23], 5, epsilon=epsilon, oracle="silc")
        truth = sorted(
            float(small_dist[23, o.position.vertex]) for o in small_objects
        )
        kth = truth[4]
        for n in batch.results[0].neighbors:
            true_d = float(small_dist[23, small_objects[n.oid].position.vertex])
            assert true_d <= (1 + epsilon) * kth + 1e-9

    def test_epsilon_requires_silc(self, engine):
        with pytest.raises(ValueError, match="SILC"):
            engine.knn_batch([0], 3, epsilon=0.1, oracle="labels")
        with pytest.raises(ValueError, match="non-negative"):
            engine.knn_batch([0], 3, epsilon=-0.1)
