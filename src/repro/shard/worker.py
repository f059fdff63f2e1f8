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
forever on a dead process -- receives poll with a liveness check, so a
crash surfaces as :class:`~repro.errors.WorkerDied` within about one
poll interval, and ``stop()`` escalates join -> terminate -> kill.
Respawn, backoff and replay live in
:class:`~repro.shard.supervisor.ShardSupervisor`.

**Integrity**: a mapped load checks sizes, dtypes and shapes, not
checksums, so :meth:`ShardGroup.from_engine` deep-verifies the
directory once before any worker exists, and every :class:`WorkerSpec`
carries the manifest bytes that passed.  A worker (first spawn or
respawn) that finds another manifest there refuses to start.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from collections.abc import Iterable

from repro.errors import CorruptIndexError, DeadlineExceeded, WorkerDied
from repro.integrity import MANIFEST_NAME, verify_manifest
from repro.objects.index import ObjectIndex
from repro.objects.model import ObjectSet
from repro.obs.trace import NULL_TRACE, Tracer
from repro.shard.partitioner import ShardMap
from repro.shard.router import Dispatcher
from repro.shard.supervisor import ShardSupervisor, SupervisionPolicy

#: Fork keeps the already-parsed network and object payloads shared
#: with the parent; spawn re-pickles them (both work -- the payloads
#: are plain dataclasses).
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"


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
    handle.  The receive side polls the pipe at :attr:`poll_interval`
    and re-checks process liveness between polls, so a worker that dies
    mid-request raises :class:`~repro.errors.WorkerDied` promptly (a
    bare ``conn.recv()`` hangs when the child end leaked into siblings).
    """

    #: Seconds between liveness checks while awaiting a response.
    poll_interval = 0.05

    def __init__(self, shard_id: int, process, conn) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self._lock = threading.Lock()

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
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                try:
                    if self.conn.poll(self.poll_interval):
                        response = self.conn.recv()
                        break
                except (EOFError, OSError) as exc:
                    raise WorkerDied(
                        f"shard worker {self.shard_id} died mid-request",
                        shard=self.shard_id,
                    ) from exc
                if not self.process.is_alive():
                    # Drain any response that raced the process exit
                    # (suppressed errors mean there was none to drain).
                    with contextlib.suppress(EOFError, OSError):
                        if self.conn.poll(0):
                            response = self.conn.recv()
                            break
                    raise WorkerDied(
                        f"shard worker {self.shard_id} died mid-request "
                        f"(exitcode {self.process.exitcode})",
                        shard=self.shard_id,
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise WorkerDied(
                        f"shard worker {self.shard_id} unresponsive for "
                        f"{timeout:.3f}s",
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


class ShardGroup:
    """The sharded serving tier: verify, spawn, dispatch, supervise.

    Build one with :meth:`from_engine`; :meth:`knn` and
    :meth:`knn_batch` then answer exactly as the unsharded engine's
    exact path does.  Always close it (or use it as a context manager):
    the workers are real processes.  ``shard_map`` is kept only for
    bench/'s layer ladder (see :class:`~repro.shard.partitioner.ShardMap`).
    """

    def __init__(
        self,
        shard_map: ShardMap,
        supervisor: ShardSupervisor,
        router: Dispatcher,
        directory: Path,
        owns_directory: bool,
    ) -> None:
        self.shard_map = shard_map
        self.supervisor = supervisor
        self.router = router
        self.directory = directory
        self._owns_directory = owns_directory
        self._closed = False

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
        before any worker exists), spawns and pings every worker, and
        fronts them with a :class:`~repro.shard.router.Dispatcher`.  An
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
        router = Dispatcher(index.network, supervisor, fallback=engine)
        shard_map = ShardMap.from_index(index, num_shards)
        return cls(shard_map, supervisor, router, directory, owns_directory)

    # ------------------------------------------------------------------
    # Query surface (mirrors QueryEngine's)
    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The router's accumulated :class:`RouterStats`."""
        return self.router.stats

    def knn(self, query, k: int, variant: str = "knn", trace=None,
            time_cap: float | None = None):
        """One kNN query, answered by one idle shard worker."""
        return self.router.knn(
            query, k, variant=variant, trace=trace, time_cap=time_cap
        )

    def knn_batch(self, queries: Iterable, k: int, variant: str = "knn",
                  trace=None, time_cap: float | None = None):
        """A batch of kNN queries (sequential; parallelism comes from
        concurrent callers, e.g. the serving layer's dispatch threads)."""
        return self.router.knn_batch(
            queries, k, variant=variant, trace=trace, time_cap=time_cap
        )

    def ping(self) -> list[int]:
        """Round trip every worker; returns the live shard ids."""
        return [worker.ping() for worker in self.workers.values()]

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
