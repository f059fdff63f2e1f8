"""Long-lived shard worker processes and the group that runs them.

Each slot is one worker *process* (its own interpreter, so searches
overlap; threads share one GIL).  It maps the group's index directory
with ``SILCIndex.load(directory, network, mmap=True)`` -- every check
of ``repro serve --mmap``; the page cache holds the index once -- and
indexes *every* object, so it answers any kNN query alone with the
``QueryEngine.knn`` call the unsharded engine makes.

Pipe protocol, strictly request/response, one shape per kind.  A
message is one frame on the pipe's descriptor -- its body's length (8
bytes, little-endian), then ``pickle.dumps(msg, 5)`` -- moved with
``os.write`` / ``os.read``::

    ("ping",)                           -> ("pong", shard_id)
    ("knn", query, k, variant, want_trace, time_budget, exact)
        -> ("ok", [(oid, lo, hi), ...], stats_values, spans_or_None)
        or ("expired", message) when the budget runs out
    ("stop",)                           -> worker exits (no response)
    any failure                         -> ("error", "ExcType: message")

A ``knn`` reply is flat: the neighbours' bounds in the engine's order
and the :class:`~repro.query.stats.QueryStats` values in field order,
from which the parent rebuilds the unsharded engine's very result.
``want_trace`` ships the worker's spans back (absolute ``perf_counter``
times) for :meth:`~repro.obs.trace.Trace.adopt`; untraced, the worker
passes ``trace=None``.  ``time_budget`` is what is left of the deadline
(seconds, ``None``: unbounded), the engine's time cap.

**Crash safety**: :class:`ShardWorker` polls the pipe and the process
sentinel (one ``select.poll``, registered at spawn) before every read,
so a worker that dies -- before its reply or between a frame's header
and body -- or stays silent past a timeout raises
:class:`~repro.errors.WorkerDied`; ``stop()`` escalates join ->
terminate -> kill.  The other way round, a worker reads EOF and exits
when its parent dies without ``stop()``: it closes the parent's ends of
the pipes it inherited at the fork first thing.

**Recovery** (one path, no knob): :class:`ShardGroup` respawns a dead
worker after a backoff (:func:`backoff`), pings it and replays the
request with what is left of its deadline, up to :data:`MAX_RETRIES`
times; a slot still down answers on the unsharded engine.  Either way
the answer is identical, only later.  Each fault event is counted as
``fault_events_total{stage=shard,event=...}``; traced, a respawn is a
``respawn`` span under the shard's span.

**Dispatch**: each kNN query borrows one idle slot from a LIFO stack,
so a single client always lands on the same (warm) worker and counted
metrics repeat; concurrent callers each get their own slot, waiting
when all are lent.  A slot whose worker is down goes back to the
*bottom*, so the next query takes a healthy worker.

**Integrity**: a mapped load checks sizes, dtypes and shapes, not
checksums, so :meth:`ShardGroup.from_engine` deep-verifies the
directory before any worker exists, and a worker (spawn or respawn)
that finds another ``MANIFEST.json`` than the one that passed refuses
to start.
"""

from __future__ import annotations

import _thread
import contextlib
import multiprocessing as mp
import os
import pickle
import select
import shutil
import struct
import tempfile
import time
import weakref
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from queue import SimpleQueue

from repro.engine import BatchResult, run_batch
from repro.errors import CorruptIndexError, DeadlineExceeded, WorkerDied
from repro.integrity import MANIFEST_NAME, verify_manifest
from repro.objects.index import ObjectIndex
from repro.objects.model import ObjectSet
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.query.bestfirst import VARIANTS
from repro.query.location import resolve_location
from repro.query.results import KNNResult, Neighbor
from repro.query.stats import QueryStats
from repro.shard.partitioner import ShardMap
from repro.silc.intervals import DistanceInterval

#: Fork keeps the already-parsed network and object payloads shared
#: with the parent; spawn re-pickles them (both work -- the payloads
#: are plain dataclasses).
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"

#: The parent's end of every shard pipe this process has open.  A
#: forked worker inherits each of them, its own pipe's included, and
#: closes them first thing: otherwise a parent that dies without
#: ``stop()`` leaves its workers waiting on pipes that never read EOF
#: (each holds the write end of its own, and of its elder siblings').
_PARENT_ENDS: weakref.WeakSet = weakref.WeakSet()

#: A frame's header: the length of the pickled body that follows.
_HEADER = struct.Struct("<Q")

#: A ``knn`` reply's counted ops: every :class:`QueryStats` field, in
#: field order, so ``QueryStats(*values)`` rebuilds them.
_stats_values = attrgetter(*(f.name for f in fields(QueryStats)))

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
            f"query exceeded its {time_cap:.3f}s execution budget before a shard worker answered"
        )
    return left


def _send_frame(fd: int, message: tuple) -> None:
    """Write ``message`` to ``fd`` as one frame (``OSError`` when the
    pipe is closed or broken)."""
    body = pickle.dumps(message, 5)
    frame = memoryview(_HEADER.pack(len(body)) + body)
    while frame:
        frame = frame[os.write(fd, frame):]


def _recv_frame(fd: int, wait=None):
    """The next message on ``fd``, or ``None`` when the other end closed
    (or reset) the pipe first, mid-frame included.  ``wait()``, when
    given, runs before every read and raises rather than block."""
    need, header, chunks = _HEADER.size, True, []
    while need:
        if wait is not None:
            wait()
        try:
            chunk = os.read(fd, need)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        need -= len(chunk)
        if header and not need:
            (need,), header, chunks = _HEADER.unpack(b"".join(chunks)), False, []
    return pickle.loads(b"".join(chunks))


def _shard_worker_main(conn, spec: WorkerSpec) -> None:
    """Entry point of one shard worker process."""
    from repro.engine import QueryEngine
    from repro.silc.index import SILCIndex

    for end in list(_PARENT_ENDS):  # empty under spawn: nothing inherited
        end.close()
    shard_id = spec.shard_id
    fd = conn.fileno()
    try:
        index = SILCIndex.load(spec.directory, spec.network, mmap=True)
        # Read after the columns are mapped: a directory published
        # while they were being opened shows its own manifest here.
        if (Path(spec.directory) / MANIFEST_NAME).read_bytes() != spec.manifest:
            raise CorruptIndexError("index directory changed since the shard tier started")
        object_index = ObjectIndex(spec.network, ObjectSet(spec.objects), index.embedding)
        options = spec.storage_options
        storage = index.make_storage(**options) if options else None
        engine = QueryEngine(index, object_index, storage=storage)
    except Exception as exc:  # noqa: BLE001 - surfaced to the parent
        try:
            _send_frame(fd, ("error", f"shard {shard_id} failed to start: "
                                      f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    while True:
        msg = _recv_frame(fd)
        if msg is None or msg[0] == "stop":  # the parent went away, or asked
            break
        kind = msg[0]
        try:
            if kind == "ping":
                reply = ("pong", shard_id)
            elif kind == "knn":
                _, query, k, variant, want_trace, time_budget, exact = msg
                trace = None
                if want_trace:
                    trace = Tracer().start_trace(shard=shard_id)
                    # Rename the root so adopted spans read as
                    # worker-side work, not a nested request.
                    trace.spans[0].name = "worker"
                    trace.spans[0].labels["shard"] = str(shard_id)
                result = engine.knn(
                    query, k, variant=variant, exact=exact, trace=trace, time_cap=time_budget
                )
                spans = None
                if trace is not None:
                    trace.finish("ok")
                    spans = trace.spans_absolute()
                neighbors = [(n.oid, n.interval.lo, n.interval.hi) for n in result.neighbors]
                reply = ("ok", neighbors, _stats_values(result.stats), spans)
            else:
                reply = ("error", f"unknown request kind: {kind!r}")
        except DeadlineExceeded as exc:
            reply = ("expired", f"shard {shard_id}: {exc}")
        except Exception as exc:  # noqa: BLE001 - surfaced to the parent
            reply = ("error", f"{type(exc).__name__}: {exc}")
        _send_frame(fd, reply)
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
    _PARENT_ENDS.add(parent_conn)
    process = ctx.Process(
        target=_shard_worker_main, args=(child_conn, spec), daemon=True,
        name=f"repro-shard-{spec.shard_id}",
    )
    process.start()
    child_conn.close()
    return ShardWorker(spec.shard_id, process, parent_conn)


class ShardWorker:
    """Parent-side handle of one shard worker process.

    A lock serializes the send/receive pair, so threads can share the
    handle.  Every read first polls the pipe and the process sentinel,
    so a worker that dies mid-request raises
    :class:`~repro.errors.WorkerDied` when it dies.  ``conn`` owns the
    pipe; frames go through its descriptor.
    """

    def __init__(self, shard_id: int, process, conn) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self._fd = conn.fileno()
        # The pipe is registered first, so it leads whatever poll()
        # returns whenever it is readable.
        self._poll = select.poll()
        self._poll.register(self._fd, select.POLLIN)
        self._poll.register(process.sentinel, select.POLLIN)
        self._deadline: float | None = None
        self._lock = _thread.allocate_lock()

    def request(self, message: tuple, timeout: float | None = None):
        """One request/response round trip (thread-safe, hang-proof).

        Raises :class:`WorkerDied` when the process is dead, dies
        mid-request, or does not answer within ``timeout`` seconds
        (unbounded by default).  A worker's ``("expired", ...)`` raises
        :class:`DeadlineExceeded`, its ``("error", ...)``
        ``RuntimeError``.
        """
        with self._lock:
            try:
                _send_frame(self._fd, message)
            except OSError as exc:
                raise self._died(f"pipe broke on send: {exc}") from exc
            self._deadline = None if timeout is None else time.monotonic() + timeout
            response = _recv_frame(self._fd, self._wait)
            if response is None:
                raise self._died("died mid-request")
        if response[0] == "expired":
            raise DeadlineExceeded(response[1])
        if response[0] == "error":
            raise RuntimeError(response[1])
        return response

    def _wait(self) -> None:
        """Return once the pipe is readable -- a reply that raced the
        process's exit included; :class:`WorkerDied` when the process
        exits first or the request's deadline passes."""
        deadline = self._deadline
        ready = self._poll.poll(
            None if deadline is None else max(0.0, (deadline - time.monotonic()) * 1e3)
        )
        if not ready:
            raise self._died("unresponsive past its timeout")
        if ready[0][0] != self._fd:
            raise self._died(f"died mid-request (exitcode {self.process.exitcode})")

    def _died(self, what: str) -> WorkerDied:
        return WorkerDied(f"shard worker {self.shard_id} {what}", shard=self.shard_id)

    def ping(self) -> int:
        """Round trip a ping; returns the worker's shard id."""
        return self.request(("ping",))[1]

    def knn(
        self, query, k: int, variant: str, trace: bool = False,
        time_cap: float | None = None, exact: bool = True,
    ):
        """The k nearest objects: ``([(oid, lo, hi), ...], QueryStats,
        spans)``, in the engine's order; ``spans`` is ``None`` unless
        ``trace``.  :class:`DeadlineExceeded` when ``time_cap`` (the
        remaining deadline budget, seconds) runs out in the worker.
        """
        _, bounds, stats, spans = self.request(("knn", query, k, variant, trace, time_cap, exact))
        return bounds, QueryStats(*stats), spans

    def _close(self) -> None:
        # Nothing is written to the descriptor once it may be reused.
        self._fd = -1
        with contextlib.suppress(OSError):
            self.conn.close()

    def kill(self) -> None:
        """SIGKILL, then reap: after this returns the process is gone and
        a replacement can safely map the same files."""
        with contextlib.suppress(OSError, ValueError, AttributeError):
            self.process.kill()
        self.process.join(5.0)
        self._close()

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the process to exit; escalate join -> terminate -> kill,
        each stage a bounded join, so a wedged worker never hangs
        shutdown."""
        with contextlib.suppress(OSError), self._lock:
            _send_frame(self._fd, ("stop",))
        self._close()
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)


class _IdleSlots:
    """Idle worker slots, lent from the top of ``queue``: ``put((slot,
    down))`` returns a slot on top, or at the bottom when its worker is
    down.  ``get`` waits while every slot is lent: it takes one of the
    tokens ``put`` leaves, one per idle slot, before it pops one."""

    def __init__(self) -> None:
        self.queue: list[int] = []
        self._tokens: SimpleQueue = SimpleQueue()
        self._lock = _thread.allocate_lock()

    def get(self) -> int:
        self._tokens.get()
        with self._lock:
            return self.queue.pop()

    def put(self, item: tuple[int, bool]) -> None:
        shard, down = item
        with self._lock:
            if down:
                self.queue.insert(0, shard)
            else:
                self.queue.append(shard)
        self._tokens.put(None)


class ShardGroup:
    """The sharded serving tier: verify, spawn, dispatch, recover.

    Build one with :meth:`from_engine`; :meth:`knn` and
    :meth:`knn_batch` then answer as the unsharded engine's SILC path
    does, from any number of threads at once.  Always close it (or use
    it as a context manager): the workers are real processes.
    ``shard_map`` is kept only for bench/'s layer ladder.  ``registry``
    counts fault events and worker visits; a ``fault_injector``
    (:class:`~repro.faults.FaultInjector`) is called before every send.
    """

    def __init__(
        self, engine, shard_map: ShardMap, spec: WorkerSpec, workers: dict[int, ShardWorker],
        directory: Path, owns_directory: bool, fault_injector=None,
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
        cls, engine, num_shards: int, directory: str | Path | None = None,
        worker_storage: dict | None = None, fault_injector=None,
    ) -> ShardGroup:
        """Serve ``engine``'s index and objects from ``num_shards``
        worker processes, each holding every object.

        Deep-verifies the directory the workers map (a
        :class:`~repro.errors.CorruptIndexError` names the bad column
        before any worker exists), then spawns and pings every worker.
        An explicit ``directory`` gets ``index.save``; a mapped index is
        served in place (nothing written); an in-memory one is saved to
        a private temporary directory, removed on :meth:`close`.
        ``worker_storage`` (:meth:`~repro.silc.SILCIndex.make_storage`
        keywords) gives every worker its own storage simulator.
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
        return cls(engine, shard_map, spec, workers, directory, owns_directory, fault_injector)

    # ------------------------------------------------------------------
    # Dispatch: one kNN query, one worker slot
    # ------------------------------------------------------------------
    def knn(
        self, query, k: int, variant: str = "knn", exact: bool = True, trace=None,
        time_cap: float | None = None,
    ) -> KNNResult:
        """One kNN query, answered by one idle shard worker.

        The worker makes the unsharded engine's SILC call with the same
        ``query``, ``variant`` and ``exact``, so the result -- neighbours
        in their order, ``ordered``, counted ops -- is that engine's.
        ``trace`` records one ``shard:<id>`` span with the worker's spans
        grafted underneath.  What is left of ``time_cap`` (seconds) goes
        down the pipe with every attempt, a replay included, so the
        search stops at the deadline with
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
        t_start = time.perf_counter()
        # Resolved here only to fail a bad location the engine's way;
        # the worker is sent the query as given.
        resolve_location(self.engine.index.network, query)
        down = False
        shard = self._idle.get()  # waits while every slot is lent
        try:
            if trace is None:
                reply = self._visit(shard, query, k, variant, exact, None, t_start,
                                    time_cap=time_cap)
            else:
                with trace.span(f"shard:{shard}", shard=shard) as span:
                    reply = self._visit(shard, query, k, variant, exact, trace, t_start,
                                        time_cap=time_cap)
                    if reply is not None:
                        if reply[2] is not None:
                            trace.adopt(reply[2], parent=span)
                        span.add_stats(reply[1])
            down = reply is None
        finally:
            self._idle.put((shard, down))
        if down:
            return self._failover(
                query, k, variant, exact, trace, time_cap=_remaining(t_start, time_cap=time_cap)
            )
        bounds, stats, _ = reply
        neighbors = [Neighbor(oid, DistanceInterval(lo, hi), lo if lo == hi else None)
                     for oid, lo, hi in bounds]
        self.registry.inc("router_queries_total", stage="route")
        self.registry.inc("router_shards_total", stage="route", event="visited")
        self.registry.inc("router_candidates_total", len(neighbors), stage="route")
        return KNNResult(neighbors=neighbors, stats=stats, ordered=variant != "knn_m")

    def _visit(
        self, shard: int, query, k: int, variant: str, exact: bool, trace,
        t_start: float, time_cap: float | None,
    ):
        """Ask ``shard``'s worker: ``(bounds, stats, spans_or_None)``, or
        ``None`` when the slot is still down after :data:`MAX_RETRIES`
        respawns.  A dead worker is respawned and the identical request
        replayed with what is left of ``time_cap`` since ``t_start``."""
        attempt = 0
        while True:
            budget = _remaining(t_start, time_cap=time_cap)
            worker = self.workers[shard]
            if self.fault_injector is not None:
                self.fault_injector.before_request(shard, worker)
            try:
                return worker.knn(query, k, variant,
                                  trace=trace is not None, time_cap=budget, exact=exact)
            except WorkerDied:
                pass
            self._count_fault("worker_crash")
            attempt += 1
            if attempt > MAX_RETRIES or self._closed:
                return None
            if trace is None:
                respawned = self._respawn(shard, attempt)
            else:
                with trace.span("respawn", shard=shard) as span:
                    respawned = self._respawn(shard, attempt)
                    if respawned:
                        span.count(respawn_attempt=attempt)
            if respawned:
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
        self, query, k: int, variant: str, exact: bool, trace, time_cap: float | None
    ) -> KNNResult:
        """Answer on the unsharded engine: the identical search over the
        same objects, so only latency moves."""
        self._count_fault("failover")
        span = trace.span("failover", oracle="silc") if trace is not None else None
        with span or contextlib.nullcontext():
            result = self.engine.knn(query, k, variant=variant, exact=exact, oracle="silc",
                                     trace=trace, time_cap=time_cap)
        result.stats.extras["failover"] = True
        self.registry.inc("router_queries_total", stage="route")
        self.registry.inc("router_candidates_total", len(result.neighbors), stage="route")
        return result

    def _count_fault(self, event: str) -> None:
        self.registry.inc("fault_events_total", stage="shard", event=event)

    def knn_batch(
        self, queries: Iterable, k: int, variant: str = "knn", exact: bool = True, trace=None,
        time_cap: float | None = None,
    ) -> BatchResult:
        """A batch through :meth:`knn`, one query at a time (parallelism
        comes from concurrent callers, each on a thread of its own);
        ``time_cap`` bounds the whole batch (each query gets what
        remains when it starts)."""
        return run_batch(queries, lambda query, budget: self.knn(
            query, k, variant=variant, exact=exact, trace=trace, time_cap=budget
        ), time_cap=time_cap)

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
