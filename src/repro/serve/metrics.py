"""Server-side observability: latency percentiles and work counters.

:class:`ServerMetrics` accumulates per-response observations --
wall-clock latency, counted scheduling delay (engine queries that ran
ahead while the request waited; see
:mod:`repro.serve.scheduler`), shed/expired/failed outcomes, and the
merged :class:`~repro.query.stats.QueryStats` of everything executed
-- and renders an immutable :class:`MetricsSnapshot` on demand.

Per-request samples (latencies, delays) live in sliding windows of
the most recent :data:`DEFAULT_WINDOW` observations, so a long-lived
server's metrics memory stays flat; the scalar counters remain exact
over the full lifetime.  The set of *clients* tracked for delay
percentiles is LRU-bounded too (:data:`DEFAULT_MAX_CLIENTS`): an open
server fed ever-fresh client ids keeps flat memory, at the price of
forgetting the delay history of clients idle past the cap.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace

from repro.obs.registry import percentiles
from repro.query.stats import QueryStats

#: Samples kept per sliding window (percentiles reflect recent load).
DEFAULT_WINDOW = 4096

#: Clients whose delay windows are retained (LRU eviction past this).
DEFAULT_MAX_CLIENTS = 256


@dataclass(frozen=True)
class MetricsSnapshot:
    """One immutable reading of the server's counters.

    ``deadline_aborts`` counts the subset of ``expired`` whose budget
    ran out *mid-execution* (the engine's time cap stopped the
    search); ``degraded`` counts completed responses answered around a
    down shard under the ``degrade`` fault policy.
    """

    served: int
    shed: int
    expired: int
    failed: int
    p50: float
    p95: float
    p99: float
    queue_depths: dict[str, int]
    in_flight: int
    stats: QueryStats
    deadline_aborts: int = 0
    degraded: int = 0

    def format(self) -> str:
        lines = [
            f"served {self.served}  shed {self.shed}  expired {self.expired}  "
            f"(aborted {self.deadline_aborts})  failed {self.failed}  "
            f"degraded {self.degraded}  in-flight {self.in_flight}",
            f"latency p50 {self.p50 * 1e3:.2f} ms  p95 {self.p95 * 1e3:.2f} ms  "
            f"p99 {self.p99 * 1e3:.2f} ms",
            f"engine work: {self.stats.refinements} refinements, "
            f"{self.stats.io_misses} page faults",
        ]
        if self.queue_depths:
            depths = "  ".join(f"{c}={d}" for c, d in sorted(self.queue_depths.items()))
            lines.append(f"queue depth: {depths}")
        return "\n".join(lines)


@dataclass
class ServerMetrics:
    """Mutable accumulator the server feeds; snapshot() to read.

    ``window`` bounds every per-request sample series (a deque of the
    most recent observations) and ``max_clients`` bounds how many
    clients' delay windows are kept (least-recently-active evicted
    first), keeping a long-lived server's metrics memory flat on both
    axes.
    """

    served: int = 0
    shed: int = 0
    expired: int = 0
    failed: int = 0
    deadline_aborts: int = 0
    degraded: int = 0
    window: int = DEFAULT_WINDOW
    max_clients: int = DEFAULT_MAX_CLIENTS
    latencies: deque = field(default_factory=deque)
    #: Counted scheduling delays per client (engine queries that ran
    #: between a request's submit and its first dispatch), most
    #: recently active client last.
    sched_delays: OrderedDict = field(default_factory=OrderedDict)
    stats: QueryStats = field(default_factory=QueryStats)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1 sample")
        if self.max_clients < 1:
            raise ValueError("max_clients must be at least 1 client")
        self.latencies = deque(self.latencies, maxlen=self.window)
        self.sched_delays = OrderedDict(self.sched_delays)

    def record_completed(self, client: str, latency: float, sched_delay: int, *stats: QueryStats) -> None:
        """One completed response; ``stats`` are its chunks' counters."""
        self.served += 1
        self.latencies.append(latency)
        delays = self.sched_delays.get(client)
        if delays is None:
            delays = self.sched_delays[client] = deque(maxlen=self.window)
        else:
            self.sched_delays.move_to_end(client)
        delays.append(sched_delay)
        while len(self.sched_delays) > self.max_clients:
            self.sched_delays.popitem(last=False)
        for chunk_stats in stats:
            self.stats.add(chunk_stats)

    def record_shed(self) -> None:
        self.shed += 1

    def record_expired(self, aborted: bool = False) -> None:
        """``aborted=True``: the deadline stopped an *executing* query
        (engine time cap), not one still queued."""
        self.expired += 1
        if aborted:
            self.deadline_aborts += 1

    def record_degraded(self) -> None:
        """A completed response was answered around a down shard."""
        self.degraded += 1

    def record_failed(self) -> None:
        self.failed += 1

    def delay_percentile(self, client: str, q: float) -> float:
        """Percentile of one client's counted scheduling delays."""
        return percentiles(self.sched_delays.get(client, ()), (q,))[0]

    def snapshot(self, queue_depths: dict[str, int] | None = None, in_flight: int = 0) -> MetricsSnapshot:
        # One sort yields all three latency percentiles.
        p50, p95, p99 = percentiles(self.latencies, (50.0, 95.0, 99.0))
        return MetricsSnapshot(
            served=self.served,
            shed=self.shed,
            expired=self.expired,
            failed=self.failed,
            p50=p50,
            p95=p95,
            p99=p99,
            queue_depths=dict(queue_depths or {}),
            in_flight=in_flight,
            stats=replace(self.stats),  # the accumulator keeps counting
            deadline_aborts=self.deadline_aborts,
            degraded=self.degraded,
        )
