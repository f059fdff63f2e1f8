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

**Recovery** (one path, no knob): :class:`ShardGroup` respawns a worker
found dead after a backoff (:func:`backoff`), pings it and replays the
request with what is left of its deadline, up to :data:`MAX_RETRIES`
times; a slot still down after that answers on the unsharded engine.
Either way the caller gets the identical exact answer, only later (a
replacement refuses a directory whose manifest changed).  Every fault
event is counted in the group's registry as
``fault_events_total{stage=shard,event=...}`` and, traced, a respawn
is a ``respawn`` span under the shard's span.

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
from repro.errors import CorruptIndexError, DeadlineExceeded, WorkerDied
from repro.integrity import MANIFEST_NAME, verify_manifest
from repro.objects.index import ObjectIndex
from repro.objects.model import ObjectSet
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACE, Tracer
from repro.query.bestfirst import VARIANTS
from repro.query.location import resolve_location
from repro.query.results import KNNResult, Neighbor
from repro.shard.partitioner import ShardMap
from repro.silc.intervals import DistanceInterval

#: Fork keeps the already-parsed network and object payloads shared
#: with the parent; spawn re-pickles them (both work -- the payloads
#: are plain dataclasses).
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"

#: A worker's ``(oid, distance)`` pairs, ranked as every tier ranks.
_by_distance_then_oid = itemgetter(1, 0)

#: Respawn+replay attempts per request before a slot answers on the
#: unsharded engine.
MAX_RETRIES = 2

#: Respawn backoff: attempt ``n`` sleeps ``min(BACKOFF_CAP, BACKOFF_BASE
#: * 2**(n-1))`` seconds, stretched by up to a ``BACKOFF_JITTER``
#: fraction derived *deterministically* from ``(shard, attempt)``:
#: chaos tests replay identically while concurrent respawns de-sync.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
BACKOFF_JITTER = 0.25


def backoff(attempt: int, shard: int) -> float:
    """Seconds to wait before respawn ``attempt`` (1-based) of ``shard``."""
    base = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1))
    # Deterministic jitter: a hash of (shard, attempt) in [0, 1).
    frac = ((shard * 2654435761 + attempt * 40503) % 9973) / 9973.0
    return base * (1.0 + BACKOFF_JITTER * frac)


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
    """The sharded serving tier: verify, spawn, dispatch, recover.

    Build one with :meth:`from_engine`; :meth:`knn` and
    :meth:`knn_batch` then answer exactly as the unsharded engine's
    exact path does, and any number of threads may call them at once.
    Always close it (or use it as a context manager): the workers are
    real processes.  ``shard_map`` is kept only for bench/'s layer
    ladder (see :class:`~repro.shard.partitioner.ShardMap`).
    ``registry`` counts fault events and worker visits; a
    :class:`~repro.faults.FaultInjector` given as ``fault_injector`` is
    called before every pipe send.
    """

    def __init__(
        self,
        engine,
        shard_map: ShardMap,
        spec: WorkerSpec,
        workers: dict[int, ShardWorker],
        directory: Path,
        owns_directory: bool,
        fault_injector=None,
    ) -> None:
        #: The unsharded engine: queries resolve against its network,
        #: and a slot that stays down answers on it.
        self.engine = engine
        self.shard_map = shard_map
        #: What a respawn starts (with the slot's ``shard_id``).
        self.spec = spec
        #: The live worker handles; a respawn swaps an entry in place.
        self.workers = workers
        self.directory = directory
        self.fault_injector = fault_injector
        self.registry = MetricsRegistry()
        self._owns_directory = owns_directory
        #: Held to swap in a replacement and to mark the group closed,
        #: so a respawn never brings back a slot close() has stopped.
        self._lock = _thread.allocate_lock()
        self._closed = False
        #: Slot 0 is lent first.  Respawns swap the handle behind a
        #: slot, never the slots.
        self._idle = _IdleSlots()
        for shard in sorted(workers, reverse=True):
            self._idle.put((shard, False))

    @classmethod
    def from_engine(
        cls,
        engine,
        num_shards: int,
        directory: str | Path | None = None,
        worker_storage: dict | None = None,
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
        keywords) gives every worker its own storage simulator, and
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
        shard_map = ShardMap.from_index(index, num_shards)
        return cls(
            engine, shard_map, spec, workers, directory, owns_directory, fault_injector
        )

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
        What is left of ``time_cap`` (seconds) goes down the pipe with
        every attempt, a replay after a respawn included, so the search
        stops at the deadline with
        :class:`~repro.errors.DeadlineExceeded`, never a late result.  A
        slot still down after :data:`MAX_RETRIES` respawns answers on
        the unsharded engine.
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
        down = False
        shard = self._idle.get()  # waits while every slot is lent
        try:
            with trace.span(f"shard:{shard}", shard=shard) as span:
                reply = self._visit(
                    shard, position, k, variant, trace, t_start, time_cap=time_cap,
                )
                down = reply is None
                if not down:
                    pairs, stats, spans = reply
                    if spans is not None:
                        trace.adopt(spans, parent=span)
                    span.add_stats(stats)
        finally:
            self._idle.put((shard, down))
        if down:
            return self._failover(
                query, k, variant, trace, time_cap=_remaining(t_start, time_cap=time_cap)
            )
        pairs.sort(key=_by_distance_then_oid)
        neighbors = [
            Neighbor(oid, DistanceInterval.exact(d), distance=d) for oid, d in pairs
        ]
        self.registry.inc("router_queries_total", stage="route")
        self.registry.inc("router_shards_total", stage="route", event="visited")
        self.registry.inc("router_candidates_total", len(neighbors), stage="route")
        return KNNResult(neighbors=neighbors, stats=stats, ordered=True)

    def _visit(
        self, shard: int, position, k: int, variant: str, trace, t_start: float,
        time_cap: float | None,
    ):
        """Ask ``shard``'s worker: ``(pairs, stats, spans_or_None)``, or
        ``None`` when the slot is still down after :data:`MAX_RETRIES`
        respawns.  A dead worker is respawned and the identical request
        replayed with what is left of ``time_cap`` since ``t_start``."""
        attempt = 0
        while True:
            budget = _remaining(t_start, time_cap=time_cap)
            worker = self.workers[shard]
            if worker.alive:
                if self.fault_injector is not None:
                    self.fault_injector.before_request(shard, worker)
                try:
                    return worker.knn(position, k, variant, trace=trace.enabled, time_cap=budget)
                except WorkerDied:
                    pass
            self._count_fault("worker_crash")
            attempt += 1
            if attempt > MAX_RETRIES or self._closed:
                return None
            with trace.span("respawn", shard=shard) as span:
                if not self._respawn(shard, attempt):
                    continue
                span.count(respawn_attempt=attempt)
            self._count_fault("retry")

    def _respawn(self, shard: int, attempt: int) -> bool:
        """Replace ``shard``'s dead worker after the backoff; ``False``
        when the replacement did not start or the group closed."""
        # The old process is fully gone before its replacement maps the
        # same files.
        self.workers[shard].kill()
        time.sleep(backoff(attempt, shard))
        try:
            replacement = spawn_worker(replace(self.spec, shard_id=shard))
            replacement.ping()
        except (OSError, EOFError, RuntimeError, ValueError):
            # Spawn or ping failed (WorkerDied is a RuntimeError); the
            # caller retries.  A bug of any other type propagates.
            self._count_fault("respawn_failure")
            return False
        with self._lock:
            swapped = not self._closed
            if swapped:
                self.workers[shard] = replacement
        if not swapped:
            replacement.stop()
            return False
        self._count_fault("respawn")
        return True

    def _failover(
        self, query, k: int, variant: str, trace, time_cap: float | None
    ) -> KNNResult:
        """Answer on the unsharded engine: the identical exact search
        over the same objects, so only latency moves."""
        self._count_fault("failover")
        with trace.span("failover", oracle="silc"):
            result = self.engine.knn(
                query, k, variant=variant, exact=True, trace=trace, time_cap=time_cap,
            )
        result.stats.extras["failover"] = True
        self.registry.inc("router_queries_total", stage="route")
        self.registry.inc("router_candidates_total", len(result.neighbors), stage="route")
        return result

    def _count_fault(self, event: str) -> None:
        self.registry.inc("fault_events_total", stage="shard", event=event)

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
        """Ping every worker: ``{shard: alive-and-answering}`` (never
        raises)."""
        out: dict[int, bool] = {}
        for shard, worker in self.workers.items():
            try:
                out[shard] = worker.ping() == shard
            except RuntimeError:  # WorkerDied included
                out[shard] = False
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker process and clean up the owned directory."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for worker in self.workers.values():
            worker.stop()
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> ShardGroup:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
