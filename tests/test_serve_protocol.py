"""Request/response protocol: validation and wire round-trips."""

import pytest

from repro.serve.protocol import KINDS, Completed, Expired, Failed, Rejected
from repro.serve import Request, request_from_dict, response_to_dict


class TestRequestValidation:
    def test_kinds_are_the_documented_five(self):
        assert KINDS == ("knn", "knn_batch", "path", "distance", "stats")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            Request(id=1, client="a", kind="bogus", queries=(0,))

    def test_path_needs_source_and_target(self):
        with pytest.raises(ValueError, match="source, target"):
            Request(id=1, client="a", kind="path", queries=(0,))

    def test_knn_needs_a_query(self):
        with pytest.raises(ValueError, match="at least one query"):
            Request(id=1, client="a", kind="knn", queries=())

    def test_deadline_must_be_positive(self):
        """NaN included: it is neither <= 0 nor > 0, and is not a budget."""
        for deadline in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="deadline must be a positive budget"):
                Request(id=1, client="a", kind="knn", queries=(0,), deadline=deadline)

    def test_cost_counts_engine_queries(self):
        assert Request(id=1, client="a", kind="knn", queries=(7,)).cost == 1
        assert Request(id=1, client="a", kind="knn_batch", queries=(1, 2, 3)).cost == 3
        assert Request(id=1, client="a", kind="path", queries=(0, 9)).cost == 1
        assert Request(id=1, client="a", kind="distance", queries=(0, 9)).cost == 1
        # Monitoring probes are free: they bypass admission entirely.
        assert Request(id=1, client="a", kind="stats").cost == 0

    def test_stats_kind_needs_no_queries(self):
        req = request_from_dict({"kind": "stats", "client": "ops"})
        assert req.kind == "stats"
        assert req.queries == ()


class TestWireFormat:
    def test_knn_round_trip(self):
        req = request_from_dict(
            {"id": 7, "client": "web", "kind": "knn", "query": 3, "k": 4,
             "variant": "knn_m", "exact": False, "deadline": 1.5}
        )
        assert req.queries == (3,)
        assert req.k == 4
        assert req.variant == "knn_m"
        assert req.exact is False
        assert req.deadline == 1.5

    def test_batch_and_pair_kinds(self):
        batch = request_from_dict(
            {"kind": "knn_batch", "queries": [1, 2, 3], "k": 2}
        )
        assert batch.queries == (1, 2, 3)
        pair = request_from_dict({"kind": "path", "source": 0, "target": 9})
        assert pair.queries == (0, 9)

    def test_defaults(self):
        req = request_from_dict({"kind": "knn", "query": 0})
        assert req.client == "default"
        assert req.k == 1
        assert req.exact is True
        assert req.deadline is None

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            request_from_dict([1, 2, 3])

    def test_unknown_kind_in_wire_rejected(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            request_from_dict({"kind": "teleport", "query": 0})

    @pytest.mark.parametrize(
        "k", [float("inf"), 1e400, float("nan"), 2.7, True, "3", None, 0, -2]
    )
    def test_k_is_validated_not_coerced(self, k):
        """``int(k)`` served 2.7 as 2 and ``true`` as 1, and raised
        ``OverflowError`` -- which nothing caught -- on ``Infinity``."""
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            request_from_dict({"kind": "knn", "query": 0, "k": k})

    def test_an_integral_float_is_an_integer_k(self):
        assert request_from_dict({"kind": "knn", "query": 0, "k": 2.0}).k == 2
        assert request_from_dict({"kind": "knn", "query": 0, "k": 10**30}).k == 10**30

    @pytest.mark.parametrize("deadline", [True, "1.5", [1]])
    def test_deadline_must_be_a_number(self, deadline):
        """``true`` was a one-second deadline."""
        with pytest.raises(ValueError, match="deadline must be a positive budget"):
            request_from_dict({"kind": "knn", "query": 0, "deadline": deadline})

    @pytest.mark.parametrize(
        "response,expected",
        [
            (
                Completed(id=1, client="a", result={"ids": [3]}, latency=0.25,
                          sched_delay=7),
                {"id": 1, "client": "a", "status": "ok", "ids": [3],
                 "latency": 0.25, "sched_delay": 7},
            ),
            (
                Rejected(id=2, client="b", retry_after=0.5, reason="rate_limited"),
                {"id": 2, "client": "b", "status": "rejected",
                 "retry_after": 0.5, "reason": "rate_limited"},
            ),
            (
                Expired(id=3, client="c", waited=2.0),
                {"id": 3, "client": "c", "status": "expired", "waited": 2.0},
            ),
            (
                Failed(id=4, client="d", error="boom"),
                {"id": 4, "client": "d", "status": "error", "error": "boom"},
            ),
        ],
    )
    def test_response_records(self, response, expected):
        assert response_to_dict(response) == expected
