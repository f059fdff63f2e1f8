"""Long-lived shard worker processes and the group that runs them.

Each slot is served by one worker *process* -- its own interpreter, so
the pure-Python searches of different workers genuinely overlap
(threads share one GIL).  A worker maps the index directory the group
serves from with ``SILCIndex.load(directory, network, mmap=True)`` --
the load ``repro serve --mmap`` performs, every check included -- so
the OS page cache holds the index once; it indexes *every* object, so
it answers any kNN query alone, always with exact distances.

Pipe protocol (one pickled tuple per message, strictly
request/response; each kind has exactly one shape)::

    ("ping",)                           -> ("pong", shard_id)
    ("knn", position, k, variant, want_trace, time_budget)
        -> ("ok", [(oid, distance), ...], QueryStats, spans_or_None)
        or ("expired", message) when the budget runs out
    ("stop",)                           -> worker exits (no response)
    any failure                         -> ("error", "ExcType: message")

``want_trace`` has the worker trace the query and ship its spans back
(absolute ``perf_counter`` times, the clock the parent reads) for
:meth:`~repro.obs.trace.Trace.adopt`.  ``time_budget`` is the query's
remaining deadline budget in seconds (``None``: unbounded), passed to
the engine as its time cap.

**Crash safety**: the parent-side :class:`ShardWorker` never blocks
forever on a dead process -- a receive waits on the pipe and the
process sentinel together, so a crash surfaces as
:class:`~repro.errors.WorkerDied` the moment it happens, and ``stop()``
escalates join -> terminate -> kill.
Respawn, backoff and replay live in
:class:`~repro.shard.supervisor.ShardSupervisor`.

**Dispatch**: :class:`ShardGroup` lends each kNN query one idle worker
slot from a LIFO stack and takes it back once the reply is in.  The
slot returned last goes out first, so a single client always lands on
the same worker: dispatch is deterministic (counted metrics repeat
round after round) and that worker's caches stay warm.  Concurrent
callers each get a slot of their own, waiting when all are lent; none
is ever lent twice at once.  A slot whose worker is down goes back to
the *bottom* of the stack, so the next query takes a healthy worker
while that one heals.

**Integrity**: a mapped load checks sizes, dtypes and shapes, not
checksums, so :meth:`ShardGroup.from_engine` deep-verifies the
directory once before any worker exists, and every :class:`WorkerSpec`
carries the manifest bytes that passed.  A worker (first spawn or
respawn) that finds another manifest there refuses to start.
"""

from __future__ import annotations

import _thread
import contextlib
import multiprocessing as mp
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from operator import itemgetter
from pathlib import Path
from queue import LifoQueue
from collections.abc import Iterable

from repro.engine import BatchResult, run_batch
from repro.errors import CorruptIndexError, DeadlineExceeded, ShardUnavailable, WorkerDied
from repro.integrity import MANIFEST_NAME, verify_manifest
from repro.objects.index import ObjectIndex
from repro.objects.model import ObjectSet
from repro.obs.trace import NULL_TRACE, Tracer
from repro.query.bestfirst import VARIANTS
from repro.query.location import resolve_location
from repro.query.results import KNNResult, Neighbor
from repro.shard.partitioner import ShardMap
from repro.shard.supervisor import ShardSupervisor, SupervisionPolicy
from repro.silc.intervals import DistanceInterval

#: Fork keeps the already-parsed network and object payloads shared
#: with the parent; spawn re-pickles them (both work -- the payloads
#: are plain dataclasses).
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"

#: A worker's ``(oid, distance)`` pairs, ranked as every tier ranks.
_by_distance_then_oid = itemgetter(1, 0)


def _remaining(t_start: float, time_cap: float | None) -> float | None:
    """What is left of ``time_cap`` (None: unbounded); raises once spent."""
    if time_cap is None:
        return None
    left = time_cap - (time.perf_counter() - t_start)
    if left <= 0:
        raise DeadlineExceeded(
            f"query exceeded its {time_cap:.3f}s execution budget "
            "before a shard worker answered"
        )
    return left


def _shard_worker_main(conn, spec: WorkerSpec) -> None:
    """Entry point of one shard worker process."""
    from repro.engine import QueryEngine
    from repro.silc.index import SILCIndex

    shard_id = spec.shard_id
    try:
        index = SILCIndex.load(spec.directory, spec.network, mmap=True)
        # Read after the columns are mapped: a directory published
        # while they were being opened shows its own manifest here.
        if (Path(spec.directory) / MANIFEST_NAME).read_bytes() != spec.manifest:
            raise CorruptIndexError(
                "index directory changed since the shard tier started"
            )
        object_index = ObjectIndex(
            spec.network, ObjectSet(spec.objects), index.embedding
        )
        options = spec.storage_options
        storage = index.make_storage(**options) if options else None
        engine = QueryEngine(index, object_index, storage=storage)
    except Exception as exc:  # noqa: BLE001 - surfaced to the parent
        try:
            conn.send(("error", f"shard {shard_id} failed to start: {type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        try:
            if kind == "ping":
                conn.send(("pong", shard_id))
            elif kind == "knn":
                _, position, k, variant, want_trace, time_budget = msg
                trace = NULL_TRACE
                if want_trace:
                    trace = Tracer().start_trace(shard=shard_id)
                    # Rename the root so adopted spans read as
                    # worker-side work, not a nested request.
                    trace.spans[0].name = "worker"
                    trace.spans[0].labels["shard"] = str(shard_id)
                result = engine.knn(
                    position, k, variant=variant, exact=True,
                    trace=trace, time_cap=time_budget,
                )
                trace.finish("ok")
                pairs = [(n.oid, n.distance) for n in result.neighbors]
                spans = trace.spans_absolute() if want_trace else None
                conn.send(("ok", pairs, result.stats, spans))
            else:
                conn.send(("error", f"unknown request kind: {kind!r}"))
        except DeadlineExceeded as exc:
            conn.send(("expired", f"shard {shard_id}: {exc}"))
        except Exception as exc:  # noqa: BLE001 - surfaced to the parent
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
    conn.close()


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to (re)spawn one slot's worker process.

    A crashed worker is rebuilt identically -- same directory, network,
    objects and storage simulation -- which is what makes a replay
    answer-preserving, so it is checked: ``manifest`` is the directory's
    ``MANIFEST.json`` as the parent read it after its deep verify.
    """

    directory: str
    manifest: bytes = field(repr=False)
    network: object = field(repr=False)
    shard_id: int = 0
    objects: tuple = field(default=(), repr=False)
    storage_options: dict | None = None


def spawn_worker(spec: WorkerSpec) -> ShardWorker:
    """Start one worker process from its spec; does not ping it."""
    ctx = mp.get_context(_START_METHOD)
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_shard_worker_main,
        args=(child_conn, spec),
        daemon=True,
        name=f"repro-shard-{spec.shard_id}",
    )
    process.start()
    child_conn.close()
    return ShardWorker(spec.shard_id, process, parent_conn)


class ShardWorker:
    """Parent-side handle of one shard worker process.

    A lock serializes the send/receive pair, so threads can share the
    handle.  The receive side waits on the pipe and the process
    sentinel at once, so a worker that dies mid-request raises
    :class:`~repro.errors.WorkerDied` when it dies (a bare
    ``conn.recv()`` hangs when the child end leaked into siblings).
    """

    def __init__(self, shard_id: int, process, conn) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self._lock = _thread.allocate_lock()

    @property
    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self.process.is_alive()

    def request(self, message: tuple, timeout: float | None = None):
        """One request/response round trip (thread-safe, hang-proof).

        Raises :class:`WorkerDied` when the process is dead, dies
        mid-request, or does not answer within ``timeout`` seconds
        (unbounded by default).  A worker's ``("expired", ...)`` raises
        :class:`DeadlineExceeded`, its ``("error", ...)``
        ``RuntimeError``.
        """
        with self._lock:
            if not self.process.is_alive():
                raise WorkerDied(
                    f"shard worker {self.shard_id} is dead "
                    f"(exitcode {self.process.exitcode})",
                    shard=self.shard_id,
                )
            try:
                self.conn.send(message)
            except (OSError, ValueError, BrokenPipeError) as exc:
                raise WorkerDied(
                    f"shard worker {self.shard_id} pipe broke on send: {exc}",
                    shard=self.shard_id,
                ) from exc
            ready = wait([self.conn, self.process.sentinel], timeout)
            if not ready:
                raise WorkerDied(
                    f"shard worker {self.shard_id} unresponsive for "
                    f"{timeout:.3f}s",
                    shard=self.shard_id,
                )
            response = None
            if self.conn in ready:
                try:
                    response = self.conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerDied(
                        f"shard worker {self.shard_id} died mid-request",
                        shard=self.shard_id,
                    ) from exc
            else:
                # The process exited.  Drain any response that raced
                # the exit (suppressed errors mean there was none).
                with contextlib.suppress(EOFError, OSError):
                    if self.conn.poll(0):
                        response = self.conn.recv()
                if response is None:
                    raise WorkerDied(
                        f"shard worker {self.shard_id} died mid-request "
                        f"(exitcode {self.process.exitcode})",
                        shard=self.shard_id,
                    )
        if response[0] == "expired":
            raise DeadlineExceeded(response[1])
        if response[0] == "error":
            raise RuntimeError(response[1])
        return response

    def ping(self) -> int:
        """Round trip a ping; returns the worker's shard id."""
        return self.request(("ping",))[1]

    def knn(
        self,
        position,
        k: int,
        variant: str,
        trace: bool = False,
        time_cap: float | None = None,
    ):
        """The k nearest objects: ``([(oid, distance), ...], QueryStats,
        spans)``, exact distances; ``spans`` is ``None`` unless
        ``trace``.  :class:`DeadlineExceeded` when ``time_cap`` (the
        remaining deadline budget, seconds) runs out in the worker.
        """
        message = ("knn", position, k, variant, trace, time_cap)
        _, pairs, stats, spans = self.request(message)
        return pairs, stats, spans

    def kill(self) -> None:
        """SIGKILL, then reap: after this returns the process is gone and
        a replacement can safely map the same files."""
        with contextlib.suppress(OSError, ValueError, AttributeError):
            self.process.kill()
        self.process.join(5.0)
        with contextlib.suppress(OSError):
            self.conn.close()

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the process to exit; escalate join -> terminate -> kill,
        each stage a bounded join, so a wedged worker never hangs
        shutdown."""
        with contextlib.suppress(OSError, ValueError), self._lock:
            self.conn.send(("stop",))
        with contextlib.suppress(OSError):
            self.conn.close()
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)


class _IdleSlots(LifoQueue):
    """Idle worker slots, lent from the top: ``put((slot, down))``
    returns a slot on top, or at the bottom when its worker is down."""

    def _put(self, item: tuple[int, bool]) -> None:
        shard, down = item
        if down:
            self.queue.insert(0, shard)
        else:
            self.queue.append(shard)


class ShardGroup:
    """The sharded serving tier: verify, spawn, dispatch, supervise.

    Build one with :meth:`from_engine`; :meth:`knn` and
    :meth:`knn_batch` then answer exactly as the unsharded engine's
    exact path does, and any number of threads may call them at once.
    Always close it (or use it as a context manager): the workers are
    real processes.  ``shard_map`` is kept only for bench/'s layer
    ladder (see :class:`~repro.shard.partitioner.ShardMap`).
    """

    def __init__(
        self,
        engine,
        shard_map: ShardMap,
        supervisor: ShardSupervisor,
        directory: Path,
        owns_directory: bool,
    ) -> None:
        #: The unsharded engine: queries resolve against its network,
        #: and a failover answers on it.
        self.engine = engine
        self.shard_map = shard_map
        self.supervisor = supervisor
        self.directory = directory
        self._owns_directory = owns_directory
        self._closed = False
        #: Slot 0 is lent first.  Respawns swap the handle behind a
        #: slot, never the slots.
        self._idle = _IdleSlots()
        for shard in sorted(supervisor.workers, reverse=True):
            self._idle.put((shard, False))

    @property
    def workers(self) -> dict[int, ShardWorker]:
        """The live worker handles (respawns swap entries in place)."""
        return self.supervisor.workers

    @classmethod
    def from_engine(
        cls,
        engine,
        num_shards: int,
        directory: str | Path | None = None,
        worker_storage: dict | None = None,
        on_failure: str = "respawn",
        max_retries: int = 2,
        fault_injector=None,
    ) -> ShardGroup:
        """Serve ``engine``'s index and objects from ``num_shards``
        worker processes, each holding every object.

        Settles the directory the workers map, deep-verifies it once (a
        :class:`~repro.errors.CorruptIndexError` names the bad column
        before any worker exists) and spawns and pings every worker.  An
        explicit ``directory`` gets ``index.save``; otherwise a mapped
        index (``index.directory``) is served in place and nothing is
        written; otherwise the in-memory index is saved to a private
        temporary directory, removed on :meth:`close`.

        ``worker_storage`` (:meth:`~repro.silc.SILCIndex.make_storage`
        keywords) gives every worker its own storage simulator.
        ``on_failure`` / ``max_retries`` set the
        :class:`~repro.shard.supervisor.SupervisionPolicy`, and
        ``fault_injector`` plugs a :class:`~repro.faults.FaultInjector`
        into the request path.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        index = engine.index
        owns_directory = directory is None and index.directory is None
        if owns_directory:
            directory = tempfile.mkdtemp(prefix="repro-shards-")
        workers: dict[int, ShardWorker] = {}
        try:
            if directory is None:
                directory = index.directory  # served in place: nothing written
            else:
                directory = Path(directory)
                index.save(directory)
            verify_manifest(directory, deep=True)
            spec = WorkerSpec(
                directory=str(directory),
                manifest=(directory / MANIFEST_NAME).read_bytes(),
                network=index.network,
                objects=tuple(engine.object_index.objects),
                storage_options=worker_storage,
            )
            for shard in range(num_shards):
                workers[shard] = spawn_worker(replace(spec, shard_id=shard))
            for worker in workers.values():
                worker.ping()
        except BaseException:
            for worker in workers.values():
                worker.stop()
            if owns_directory:
                shutil.rmtree(directory, ignore_errors=True)
            raise
        supervisor = ShardSupervisor(
            spawner=lambda shard: spawn_worker(replace(spec, shard_id=shard)),
            workers=workers,
            policy=SupervisionPolicy(
                on_failure=on_failure, max_retries=max_retries
            ),
            fault_injector=fault_injector,
        )
        shard_map = ShardMap.from_index(index, num_shards)
        return cls(engine, shard_map, supervisor, directory, owns_directory)

    # ------------------------------------------------------------------
    # Dispatch: one kNN query, one worker slot
    # ------------------------------------------------------------------
    def knn(
        self,
        query,
        k: int,
        variant: str = "knn",
        trace=None,
        time_cap: float | None = None,
    ) -> KNNResult:
        """One exact kNN query, answered by one idle shard worker.

        ``query`` takes the forms :meth:`repro.engine.QueryEngine.knn`
        takes; ``variant`` never changes the answer (workers refine to
        exact distances).  The result is sorted by ``(distance, oid)``.
        ``trace`` records one ``shard:<id>`` span with the worker's own
        spans grafted underneath; it never changes the worker chosen.
        What is left of ``time_cap`` (seconds) once a worker is in hand
        goes down the pipe, so the worker's search stops at the deadline
        with :class:`~repro.errors.DeadlineExceeded`, never a late
        result.  A worker that stays down past the policy's retries
        fails over to the unsharded engine (``respawn``, ``failover``)
        or raises :class:`ShardUnavailable` (``error``).
        """
        # The kernel's own checks and texts, made before anything is
        # sent: a bad request fails the same way sharded or local.
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if k < 1:
            raise ValueError("k must be at least 1")
        if trace is None:
            trace = NULL_TRACE
        t_start = time.perf_counter()
        position = resolve_location(self.engine.index.network, query)
        pairs = None
        down = False
        shard = self._idle.get()  # waits while every slot is lent
        try:
            budget = _remaining(t_start, time_cap=time_cap)
            with trace.span(f"shard:{shard}", shard=shard) as span:
                pairs, stats, spans = self.supervisor.knn(
                    shard, position, k, variant, trace=trace, time_cap=budget,
                )
                if spans is not None:
                    trace.adopt(spans, parent=span)
                span.add_stats(stats)
        except ShardUnavailable:
            down = True
            if self.supervisor.policy.on_failure == "error":
                raise
        finally:
            self._idle.put((shard, down))
        if pairs is None:
            return self._failover(
                query, k, variant, trace, time_cap=_remaining(t_start, time_cap=time_cap)
            )
        pairs.sort(key=_by_distance_then_oid)
        neighbors = [
            Neighbor(oid, DistanceInterval.exact(d), distance=d) for oid, d in pairs
        ]
        registry = self.supervisor.registry
        registry.inc("router_queries_total", stage="route")
        registry.inc("router_shards_total", stage="route", event="visited")
        registry.inc("router_candidates_total", len(neighbors), stage="route")
        return KNNResult(neighbors=neighbors, stats=stats, ordered=True)

    def _failover(
        self, query, k: int, variant: str, trace, time_cap: float | None
    ) -> KNNResult:
        """Answer on the unsharded engine: the identical exact search
        over the same objects, so only latency moves."""
        self.supervisor.count_fault("failover")
        with trace.span("failover", oracle="silc"):
            result = self.engine.knn(
                query, k, variant=variant, exact=True, trace=trace, time_cap=time_cap,
            )
        result.stats.extras["failover"] = True
        registry = self.supervisor.registry
        registry.inc("router_queries_total", stage="route")
        registry.inc("router_candidates_total", len(result.neighbors), stage="route")
        return result

    def knn_batch(
        self,
        queries: Iterable,
        k: int,
        variant: str = "knn",
        trace=None,
        time_cap: float | None = None,
    ) -> BatchResult:
        """A batch through :meth:`knn`, one query at a time (parallelism
        comes from concurrent callers, each on a thread of its own);
        ``time_cap`` bounds the whole batch (each query gets what
        remains when it starts)."""
        return run_batch(
            queries,
            lambda query, budget: self.knn(
                query, k, variant=variant, trace=trace, time_cap=budget
            ),
            time_cap=time_cap,
        )

    def health_check(self) -> dict[int, bool]:
        """Per-shard liveness, via the supervisor (never raises)."""
        return self.supervisor.health_check()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker process and clean up the owned directory."""
        if self._closed:
            return
        self._closed = True
        self.supervisor.close()
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> ShardGroup:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
