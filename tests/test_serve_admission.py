"""Admission control: token buckets and the global in-flight cap."""

import pytest

from repro.serve import AdmissionController, Request
from repro.serve.admission import TokenBucket


class FakeClock:
    """A manually advanced monotonic clock for deterministic buckets."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def req(client="a", cost=1, rid=0):
    if cost == 1:
        return Request(id=rid, client=client, kind="knn", queries=(0,))
    return Request(id=rid, client=client, kind="knn_batch", queries=tuple(range(cost)))


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        for _ in range(3):
            ok, _ = bucket.try_acquire()
            assert ok
        ok, retry_after = bucket.try_acquire()
        assert not ok
        assert retry_after == pytest.approx(0.1)  # 1 token at 10/s

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
        bucket.try_acquire(5)
        clock.advance(0.25)  # 2.5 tokens back: 3 are 0.05 s away
        ok, retry_after = bucket.try_acquire(3)
        assert not ok and retry_after == pytest.approx(0.05)
        ok, _ = bucket.try_acquire(2)
        assert ok

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=4.0, clock=clock)
        clock.advance(60.0)
        ok, retry_after = bucket.try_acquire(5)
        assert not ok and retry_after == pytest.approx(0.01)
        assert bucket.try_acquire(4) == (True, 0.0)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


class TestInFlightCap:
    def test_admits_until_cap_then_sheds(self):
        ctl = AdmissionController(max_in_flight=5)
        r1, r2 = req(cost=3, rid=1), req(cost=2, rid=2)
        assert ctl.admit(r1)[0]
        assert ctl.admit(r2)[0]
        assert ctl.in_flight == 5
        admitted, retry_after, reason = ctl.admit(req(rid=3))
        assert not admitted
        assert reason == "in_flight_cap"
        assert retry_after > 0
        assert ctl.shed_count == 1

    def test_release_frees_budget(self):
        ctl = AdmissionController(max_in_flight=2)
        r = req(cost=2)
        assert ctl.admit(r)[0]
        assert not ctl.admit(req())[0]
        ctl.release(r)
        assert ctl.in_flight == 0
        assert ctl.admit(req())[0]

    def test_cap_is_on_queries_not_requests(self):
        ctl = AdmissionController(max_in_flight=10)
        ctl.admit(req(cost=6, rid=1))
        admitted, _, reason = ctl.admit(req(cost=6, rid=2))
        assert not admitted and reason == "in_flight_cap"

    def test_never_fitting_cost_is_terminal(self):
        """cost > cap can never succeed: no finite retry_after lie."""
        ctl = AdmissionController(max_in_flight=10)
        admitted, retry_after, reason = ctl.admit(req(cost=11))
        assert not admitted
        assert reason == "request_too_large"
        assert retry_after == 0
        assert ctl.shed_count == 1

    def test_cost_over_bucket_burst_is_terminal(self):
        clock = FakeClock()
        ctl = AdmissionController(max_in_flight=None, rate=2.0, burst=4.0, clock=clock)
        admitted, retry_after, reason = ctl.admit(req(cost=5))
        assert not admitted
        assert reason == "request_too_large"
        assert retry_after == 0
        # a fitting request from the same client still goes through
        assert ctl.admit(req(cost=4))[0]

    def test_uncapped_when_none(self):
        ctl = AdmissionController(max_in_flight=None)
        for i in range(100):
            assert ctl.admit(req(cost=50, rid=i))[0]

    def test_validates_cap(self):
        with pytest.raises(ValueError):
            AdmissionController(max_in_flight=0)

    def test_validates_rate_and_burst_eagerly(self):
        """A bad --rate must fail at startup, not on the first request."""
        with pytest.raises(ValueError, match="rate"):
            AdmissionController(rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            AdmissionController(rate=-1.0)
        with pytest.raises(ValueError, match="burst"):
            AdmissionController(rate=1.0, burst=0.0)
        # NaN passes a ``<= 0`` check, and a server started with it
        # answers every request ``retry_after: NaN``; a burst without a
        # rate has no bucket to size.
        nan = float("nan")
        with pytest.raises(ValueError, match="rate must be positive"):
            AdmissionController(rate=nan)
        with pytest.raises(ValueError, match="burst must be positive"):
            AdmissionController(rate=1.0, burst=nan)
        with pytest.raises(ValueError, match="burst needs a rate"):
            AdmissionController(burst=4.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=nan, burst=1.0)


class TestPerClientRate:
    def test_default_bucket_applies_per_client(self):
        clock = FakeClock()
        ctl = AdmissionController(max_in_flight=None, rate=2.0, clock=clock)
        assert ctl.admit(req("a"))[0]
        assert ctl.admit(req("a"))[0]
        admitted, retry_after, reason = ctl.admit(req("a"))
        assert not admitted and reason == "rate_limited"
        assert retry_after == pytest.approx(0.5)
        # an independent client has its own bucket
        assert ctl.admit(req("b"))[0]

    def test_rate_limit_recovers_with_time(self):
        clock = FakeClock()
        ctl = AdmissionController(max_in_flight=None, rate=2.0, clock=clock)
        ctl.admit(req("a", cost=2))
        assert not ctl.admit(req("a"))[0]
        clock.advance(1.0)  # 2 tokens back
        assert ctl.admit(req("a"))[0]

    def test_rate_below_one_still_admits_single_queries(self):
        """--rate 0.5 without --burst: one query every two seconds, not
        ``request_too_large`` on every request forever."""
        clock = FakeClock()
        ctl = AdmissionController(max_in_flight=None, rate=0.5, clock=clock)
        assert ctl.admit(req("a")) == (True, 0.0, "")
        admitted, retry_after, reason = ctl.admit(req("a"))
        assert (admitted, reason) == (False, "rate_limited")
        assert retry_after == pytest.approx(2.0)
        clock.advance(2.0)
        assert ctl.admit(req("a"))[0]
        # a batch above the one-query burst is still terminal
        assert ctl.admit(req("b", cost=2))[2] == "request_too_large"

    def test_unlimited_keeps_no_per_client_state(self):
        ctl = AdmissionController(max_in_flight=None)
        for i in range(1000):
            assert ctl.admit(req(f"client-{i}", rid=i))[0]
        assert ctl._buckets == {}

    def test_rejected_requests_do_not_consume_budget(self):
        ctl = AdmissionController(max_in_flight=3)
        ctl.admit(req(cost=3, rid=1))
        before = ctl.in_flight
        ctl.admit(req(cost=2, rid=2))
        assert ctl.in_flight == before
