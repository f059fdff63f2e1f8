"""Admission control: shed load explicitly instead of queueing it.

Two independent gates, both checked at submit time:

* a per-client **token bucket** (``rate`` tokens/second, ``burst``
  capacity, one token per engine query) that bounds each client's
  sustained throughput; and
* a **global in-flight cap** on engine queries admitted but not yet
  completed, which bounds the server's total queue no matter how many
  clients show up.

A request that fails either gate is *rejected now* with a computed
``retry_after`` rather than parked in an unbounded queue.  Time is
injected (any ``clock`` callable) so tests can drive the bucket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable

from repro.serve.protocol import Request


@dataclass
class TokenBucket:
    """A classic token bucket: ``rate`` per second, ``burst`` capacity."""

    rate: float
    burst: float
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ValueError("rate and burst must be positive")
        self._tokens = float(self.burst)
        self._stamp = self.clock()

    def _refill(self) -> None:
        now = self.clock()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self, n: float = 1.0) -> tuple[bool, float]:
        """Take ``n`` tokens if available; else ``(False, retry_after)``."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True, 0.0
        return False, (n - self._tokens) / self.rate


class AdmissionController:
    """Token-bucket rate limits per client plus a global in-flight cap.

    Parameters
    ----------
    max_in_flight:
        Engine queries admitted but not yet released; a knn_batch of
        500 queries counts as 500.  ``None`` disables the cap.
    rate / burst:
        Per-client token bucket (one token per engine query); ``burst``
        defaults to ``max(rate, 1)``, so a rate below one query per
        second still admits single queries.  ``rate=None`` disables
        rate limiting and keeps no per-client state.
    clock:
        Injected time source shared by every bucket.
    """

    def __init__(
        self,
        max_in_flight: int | None = 1024,
        rate: float | None = None,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1 (or None)")
        # Validate eagerly: a bad rate must fail at construction, not
        # blow up inside admit() on the first request of some client.
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None for unlimited)")
        if burst is not None and burst <= 0:
            raise ValueError("burst must be positive (or None to default to max(rate, 1))")
        self.max_in_flight = max_in_flight
        self._rate = rate
        self._burst = burst if burst is not None else (max(rate, 1.0) if rate else None)
        self.clock = clock
        #: One bucket per client seen, and none at all without a rate.
        self._buckets: dict[str, TokenBucket] = {}
        self.in_flight = 0
        self.shed_count = 0

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    def admit(self, request: Request) -> tuple[bool, float, str]:
        """Check both gates; returns ``(admitted, retry_after, reason)``.

        On success the request's cost is charged against the in-flight
        budget; the caller owes one :meth:`release` per admitted
        request once its response is produced.

        A request whose cost alone can *never* fit -- larger than the
        in-flight cap, or than its bucket's burst -- is rejected with
        the terminal reason ``request_too_large`` and ``retry_after``
        0: retrying cannot help, the client must split the batch.
        """
        cost = request.cost
        bucket = None
        if self._rate is not None:  # one bucket per client seen
            bucket = self._buckets.get(request.client) or self._buckets.setdefault(
                request.client, TokenBucket(self._rate, self._burst, self.clock))
        too_large_for_cap = self.max_in_flight is not None and cost > self.max_in_flight
        if too_large_for_cap or (bucket is not None and cost > bucket.burst):
            self.shed_count += 1
            return False, 0.0, "request_too_large"
        if self.max_in_flight is not None and self.in_flight + cost > self.max_in_flight:
            self.shed_count += 1
            # The server can't know when in-flight work completes ahead
            # of time; advertise a nominal backoff proportional to how
            # oversubscribed the request is.
            over = (self.in_flight + cost) / self.max_in_flight
            return False, min(1.0, 0.05 * over), "in_flight_cap"
        if bucket is not None:
            ok, retry_after = bucket.try_acquire(cost)
            if not ok:
                self.shed_count += 1
                return False, retry_after, "rate_limited"
        self.in_flight += cost
        return True, 0.0, ""

    def release(self, request: Request) -> None:
        """Return an admitted request's cost to the in-flight budget."""
        self.in_flight = max(0, self.in_flight - request.cost)
