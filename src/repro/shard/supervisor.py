"""Shard worker supervision: crash detection, respawn, replay.

The shard tier's workers are real OS processes, and they die.  Every
pipe round trip goes through the poll-with-liveness receive of
:meth:`~repro.shard.worker.ShardWorker.request`, so a dead worker
raises :class:`~repro.errors.WorkerDied` instead of hanging, and
:class:`ShardSupervisor` handles it per policy:

* ``respawn`` (the default) re-spawns the worker (exponential backoff,
  deterministic jitter), pings it, and **replays the in-flight
  request** -- the caller sees a slower answer, never a wrong one;
* ``failover`` respawns in the background and raises
  :class:`~repro.errors.ShardUnavailable` at once, so the shard group
  answers *now* on the unsharded engine;
* ``error`` surfaces the failure unchanged.

Every fault event is counted in the supervisor's
:class:`~repro.obs.registry.MetricsRegistry` as
``fault_events_total{stage=shard,event=...}`` (the
:class:`~repro.shard.worker.ShardGroup` counts its worker visits and
failovers there too) and, traced, recorded as a
``respawn`` span under the shard's span.

Invariant (docs/ARCHITECTURE.md): supervision never changes answers.
A replay re-runs the identical search on the identical index files (a
respawned worker refuses a directory whose manifest changed); failover
runs the same exact query unsharded.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from collections.abc import Callable

from repro.errors import DeadlineExceeded, ShardUnavailable, WorkerDied
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACE

#: Recovery policies, in decreasing order of how hard they try to
#: keep serving exact answers from the shard tier itself.
FAILURE_POLICIES = ("respawn", "failover", "error")

#: Respawn backoff: attempt ``n`` sleeps ``min(BACKOFF_CAP, BACKOFF_BASE
#: * 2**(n-1))`` seconds, stretched by up to a ``BACKOFF_JITTER``
#: fraction derived *deterministically* from ``(shard, attempt)``:
#: chaos tests replay identically while concurrent respawns de-sync.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the supervisor reacts when a shard worker dies.

    ``on_failure`` is one of :data:`FAILURE_POLICIES` (see the module
    docstring).  ``max_retries`` bounds in-line respawn+replay attempts
    per request, and the background respawner's attempts.
    """

    on_failure: str = "respawn"
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.on_failure not in FAILURE_POLICIES:
            raise ValueError(
                f"unknown on_failure policy {self.on_failure!r}; "
                f"expected one of {FAILURE_POLICIES}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def backoff(self, attempt: int, shard: int) -> float:
        """Backoff before respawn ``attempt`` (1-based) of ``shard``."""
        base = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1))
        # Deterministic jitter: a hash of (shard, attempt) in [0, 1).
        frac = ((shard * 2654435761 + attempt * 40503) % 9973) / 9973.0
        return base * (1.0 + BACKOFF_JITTER * frac)


class ShardSupervisor:
    """Owns the live worker handles and the recovery machinery.

    ``spawner(shard)`` starts a fresh worker for a slot (see
    :func:`repro.shard.worker.spawn_worker`).  The supervisor owns the
    ``workers`` dict: respawns swap replacements in under the same slot.
    ``fault_injector`` is the optional :class:`~repro.faults.FaultInjector`
    chaos hook, called before every pipe send.
    """

    def __init__(
        self,
        spawner: Callable[[int], object],
        workers: dict[int, object],
        policy: SupervisionPolicy | None = None,
        fault_injector=None,
    ) -> None:
        self.spawner = spawner
        self.workers = workers
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.fault_injector = fault_injector
        self.registry = MetricsRegistry()
        #: Per-slot respawn locks: a background respawn, a caller and
        #: close() never replace one worker at once.
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

    def count_fault(self, event: str) -> None:
        """Count one fault event (the shard group counts its failovers here)."""
        self.registry.inc("fault_events_total", stage="shard", event=event)

    # ------------------------------------------------------------------
    # The supervised request path
    # ------------------------------------------------------------------
    def knn(
        self,
        shard: int,
        position,
        k: int,
        variant: str,
        trace=None,
        time_cap: float | None = None,
    ):
        """One shard kNN with crash recovery per the policy.

        Returns ``(pairs, stats, worker_spans_or_None)``.  Raises
        :class:`ShardUnavailable` when the policy gives up (the shard
        group then fails over or surfaces it), :class:`DeadlineExceeded`
        when the worker's time budget ran out (never retried -- the
        deadline is global).
        """
        if trace is None:
            trace = NULL_TRACE
        attempt = 0
        while True:
            worker = self.workers[shard]
            try:
                if not worker.alive:
                    raise WorkerDied(f"shard worker {shard} found dead before send", shard=shard)
                if self.fault_injector is not None:
                    self.fault_injector.before_request(shard, worker)
                return worker.knn(
                    position, k, variant, trace=trace.enabled, time_cap=time_cap,
                )
            except DeadlineExceeded:
                raise
            except WorkerDied as died:
                self.count_fault("worker_crash")
                if self.policy.on_failure == "error":
                    raise ShardUnavailable(
                        f"shard {shard} worker died ({died}); policy is 'error'", shard=shard
                    ) from died
                if self.policy.on_failure == "failover":
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
                self.count_fault("retry")
                # Loop replays the identical request on the new worker.

    # ------------------------------------------------------------------
    # Respawning
    # ------------------------------------------------------------------
    def _respawn(self, shard: int, dead_worker, attempt: int) -> None:
        """Replace a dead worker (serialized per slot)."""
        with self._respawn_locks[shard]:
            current = self.workers[shard]
            if current is not dead_worker and current.alive:
                return  # already healed
            if self._closed:
                raise ShardUnavailable(f"supervisor closed with shard {shard} down", shard=shard)
            # The old process is fully gone before its replacement maps
            # the same files.
            current.kill()
            time.sleep(self.policy.backoff(attempt, shard))
            try:
                replacement = self.spawner(shard)
                replacement.ping()
            except Exception:
                self.count_fault("respawn_failure")
                raise
            self.workers[shard] = replacement
            self.count_fault("respawn")

    def respawn_async(self, shard: int) -> None:
        """Heal a shard in the background (failover policy)."""
        with self._state_lock:
            if self._closed or shard in self._respawning:
                return
            self._respawning.add(shard)
        threading.Thread(
            target=self._respawn_background, args=(shard,), daemon=True,
            name=f"repro-respawn-{shard}",
        ).start()

    def _respawn_background(self, shard: int) -> None:
        try:
            for attempt in range(1, max(self.policy.max_retries, 1) + 1):
                if self._closed:
                    return
                try:
                    self._respawn(shard, self.workers[shard], attempt)
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
        # Respawn threads observe _closed and bail; per-slot locks
        # keep a racing respawn from resurrecting a worker mid-close.
        for shard, lock in self._respawn_locks.items():
            with lock:
                self.workers[shard].stop()
