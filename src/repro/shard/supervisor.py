"""Shard worker supervision: crash detection, respawn, replay.

The shard tier's workers are real OS processes; real processes die.
Before this module, a worker crash hung the router forever (a
blocking ``conn.recv()`` with nobody on the other end) and the only
recovery was restarting the whole server.  :class:`ShardSupervisor`
makes worker failure a handled event:

* every pipe round trip goes through the poll-with-liveness receive
  of :meth:`~repro.shard.worker.ShardWorker.request`, so a dead
  worker raises :class:`~repro.errors.WorkerDied` instead of hanging;
* under the default ``respawn`` policy the supervisor re-spawns the
  dead worker (exponential backoff + deterministic jitter), pings it,
  and **replays the in-flight request** -- the caller sees a slower
  answer, never a wrong or missing one;
* under ``failover``/``degrade`` the supervisor kicks off the respawn
  in the background and immediately raises
  :class:`~repro.errors.ShardUnavailable`, letting the router answer
  *now* from the unsharded engine or the surviving shards;
* under ``error`` the failure surfaces to the caller unchanged.

Every fault event is counted in :class:`SupervisorStats` (absorbed
into the unified :class:`~repro.obs.registry.MetricsRegistry` by the
serving layer) and -- when the request is traced -- recorded as a
``respawn`` span under the failing shard's span, so ``trace-report``
shows exactly what recovery cost.

Invariant (docs/ARCHITECTURE.md): supervision never changes answers.
A replayed request re-runs the identical search against the identical
index files (a respawned worker refuses a directory whose manifest
changed); failover runs the same exact query unsharded.  Only
availability and latency move.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from collections.abc import Callable

from repro.errors import DeadlineExceeded, ShardUnavailable, WorkerDied
from repro.obs.trace import NULL_TRACE

#: Recovery policies, in decreasing order of how hard they try to
#: keep serving exact answers from the shard tier itself.
FAILURE_POLICIES = ("respawn", "failover", "degrade", "error")


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the supervisor reacts when a shard worker dies.

    Parameters
    ----------
    on_failure:
        ``respawn`` -- back off, respawn the worker in-line, replay
        the request (bounded by ``max_retries``); ``failover`` --
        respawn in the background, let the router answer via the
        unsharded engine meanwhile; ``degrade`` -- respawn in the
        background, let the router answer from the surviving shards
        with the response flagged degraded; ``error`` -- surface
        :class:`ShardUnavailable` immediately.
    max_retries:
        In-line respawn+replay attempts per request (``respawn``
        policy), and the background respawner's attempt budget.
    backoff_base / backoff_cap:
        Exponential backoff: attempt ``n`` sleeps
        ``min(cap, base * 2**(n-1))`` seconds before respawning.
    jitter:
        Fractional jitter added to each backoff, derived
        *deterministically* from ``(shard, attempt)`` so chaos tests
        replay identically while concurrent respawns still de-sync.
    """

    on_failure: str = "respawn"
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.on_failure not in FAILURE_POLICIES:
            raise ValueError(
                f"unknown on_failure policy {self.on_failure!r}; "
                f"expected one of {FAILURE_POLICIES}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")

    def backoff(self, attempt: int, shard: int) -> float:
        """Backoff before respawn ``attempt`` (1-based) of ``shard``."""
        base = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        # Deterministic jitter: a hash of (shard, attempt) in [0, 1).
        frac = ((shard * 2654435761 + attempt * 40503) % 9973) / 9973.0
        return base * (1.0 + self.jitter * frac)


@dataclass
class SupervisorStats:
    """Counted fault events, accumulated across the supervisor's life.

    ``worker_crashes`` counts detected deaths; ``respawns`` successful
    replacements; ``retries`` in-line request replays; ``failovers``
    and ``degraded_responses`` are incremented by the router when it
    answers around a down shard.  All monotone, so the registry's
    absolute-assignment absorption stays idempotent.
    """

    worker_crashes: int = 0
    respawns: int = 0
    respawn_failures: int = 0
    retries: int = 0
    failovers: int = 0
    degraded_responses: int = 0


class ShardSupervisor:
    """Owns the live worker handles and the recovery machinery.

    Parameters
    ----------
    spawner:
        ``shard_id -> ShardWorker``: spawns a fresh worker process for
        one shard (closes over the saved directory, network and object
        slices -- see :func:`repro.shard.worker.spawn_worker`).
    workers:
        The initially spawned handles.  The supervisor owns this dict
        from here on: respawns swap replacements in, and the router
        reads it live.
    policy / fault_injector:
        Recovery policy and the optional deterministic
        :class:`~repro.faults.FaultInjector` chaos hook (called before
        every pipe send).
    sleep:
        Injectable for tests; backoff sleeps go through it.
    """

    def __init__(
        self,
        spawner: Callable[[int], object],
        workers: dict[int, object],
        policy: SupervisionPolicy | None = None,
        fault_injector=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.spawner = spawner
        self.workers = workers
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.fault_injector = fault_injector
        self._sleep = sleep
        self.stats = SupervisorStats()
        self._stats_lock = threading.Lock()
        #: Per-shard respawn locks: concurrent callers hitting the same
        #: dead worker serialize here and the late ones find it healed.
        self._respawn_locks = {shard: threading.Lock() for shard in workers}
        self._respawning: set[int] = set()
        self._state_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health_check(self) -> dict[int, bool]:
        """Ping every worker; ``{shard: alive-and-answering}``."""
        out: dict[int, bool] = {}
        for shard, worker in list(self.workers.items()):
            try:
                out[shard] = worker.ping() == shard
            except (WorkerDied, RuntimeError):
                out[shard] = False
        return out

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def record(self, **deltas: int) -> None:
        """Public counter hook: the router records failovers and
        degraded responses here so every fault event lives in one
        :class:`SupervisorStats` (and one registry absorption)."""
        self._count(**deltas)

    # ------------------------------------------------------------------
    # The supervised request path
    # ------------------------------------------------------------------
    def knn(
        self,
        shard: int,
        position,
        k: int,
        variant: str,
        cap: float = math.inf,
        trace=None,
        time_cap: float | None = None,
    ):
        """One shard kNN with crash recovery per the policy.

        Returns ``(pairs, stats, worker_spans_or_None)``.  Raises
        :class:`ShardUnavailable` when the policy gives up (the router
        then degrades), :class:`DeadlineExceeded` when the worker's
        time budget ran out (never retried -- the deadline is global).
        """
        if trace is None:
            trace = NULL_TRACE
        attempt = 0
        while True:
            worker = self.workers.get(shard)
            if worker is None:
                raise ShardUnavailable(
                    f"shard {shard} has no worker", shard=shard
                )
            try:
                if not worker.alive:
                    raise WorkerDied(
                        f"shard worker {shard} found dead before send",
                        shard=shard,
                    )
                if self.fault_injector is not None:
                    self.fault_injector.before_request(shard, worker)
                return worker.knn(
                    position, k, variant, cap, trace=trace.enabled,
                    time_cap=time_cap,
                )
            except DeadlineExceeded:
                raise
            except WorkerDied as died:
                self._count(worker_crashes=1)
                if self.policy.on_failure == "error":
                    raise ShardUnavailable(
                        f"shard {shard} worker died ({died}); policy is "
                        "'error'",
                        shard=shard,
                    ) from died
                if self.policy.on_failure in ("failover", "degrade"):
                    self.respawn_async(shard)
                    raise ShardUnavailable(
                        f"shard {shard} worker died ({died}); respawning "
                        "in the background",
                        shard=shard,
                    ) from died
                attempt += 1
                if attempt > self.policy.max_retries:
                    raise ShardUnavailable(
                        f"shard {shard} still down after "
                        f"{self.policy.max_retries} respawn attempts",
                        shard=shard,
                    ) from died
                with trace.span("respawn", shard=shard) as span:
                    try:
                        self._respawn(shard, worker, attempt)
                    except ShardUnavailable:
                        raise
                    except (WorkerDied, OSError, EOFError,
                            RuntimeError, ValueError):
                        # Spawn/ping failures; retried by the loop.  A
                        # bug of any other type propagates.
                        continue
                    span.count(respawn_attempt=attempt)
                self._count(retries=1)
                # Loop replays the identical request on the new worker.

    # ------------------------------------------------------------------
    # Respawning
    # ------------------------------------------------------------------
    def _respawn(self, shard: int, dead_worker, attempt: int) -> None:
        """Replace a dead worker (serialized per shard)."""
        lock = self._respawn_locks.setdefault(shard, threading.Lock())
        with lock:
            current = self.workers.get(shard)
            if (
                current is not None
                and current is not dead_worker
                and current.alive
            ):
                return  # another caller already healed this shard
            if self._closed:
                raise ShardUnavailable(
                    f"supervisor closed while shard {shard} was down",
                    shard=shard,
                )
            if current is not None:
                # Make sure the old process is fully gone before its
                # replacement maps the same files.
                current.kill()
            delay = self.policy.backoff(attempt, shard)
            if delay > 0:
                self._sleep(delay)
            try:
                replacement = self.spawner(shard)
                replacement.ping()
            except Exception:
                self._count(respawn_failures=1)
                raise
            self.workers[shard] = replacement
            self._count(respawns=1)

    def respawn_async(self, shard: int) -> None:
        """Heal a shard in the background (failover/degrade policies)."""
        with self._state_lock:
            if self._closed or shard in self._respawning:
                return
            self._respawning.add(shard)
        thread = threading.Thread(
            target=self._respawn_background,
            args=(shard,),
            daemon=True,
            name=f"repro-respawn-{shard}",
        )
        thread.start()

    def _respawn_background(self, shard: int) -> None:
        try:
            for attempt in range(1, max(self.policy.max_retries, 1) + 1):
                if self._closed:
                    return
                dead = self.workers.get(shard)
                try:
                    self._respawn(shard, dead, attempt)
                    return
                except (ShardUnavailable, WorkerDied, OSError, EOFError,
                        RuntimeError, ValueError):
                    # Spawn/ping failures; retried with backoff until
                    # the attempt budget runs out.
                    continue
        finally:
            with self._state_lock:
                self._respawning.discard(shard)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop recovering, then stop every worker (join -> kill)."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        # Respawn threads observe _closed and bail; per-shard locks
        # keep a racing respawn from resurrecting a worker mid-close.
        for shard in list(self.workers):
            lock = self._respawn_locks.get(shard)
            if lock is None:
                self.workers[shard].stop()
                continue
            with lock:
                self.workers[shard].stop()
