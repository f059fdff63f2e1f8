"""Long-lived shard worker processes and the group that runs them.

Each shard is served by one worker *process* -- its own interpreter,
so the pure-Python best-first search of different shards genuinely
overlaps (threads cannot do that; they share one GIL).  A worker

* maps the index directory the group serves from with
  ``SILCIndex.load(directory, network, mmap=True)`` -- the load
  ``repro serve --mmap`` itself performs, every check of it included --
  so every process maps the same files and the OS page cache holds the
  index once;
* indexes only *its* objects, so its search space is the shard's
  slice of the object set;
* answers a tiny request/response pipe protocol, always with exact
  distances (the router merges candidates by comparing them).

Pipe protocol (one pickled tuple per message, strictly
request/response; each kind has exactly one shape)::

    ("ping",)                           -> ("pong", shard_id)
    ("knn", position, k, variant, cap, want_trace, time_budget)
        -> ("ok", [(oid, distance), ...], QueryStats, spans_or_None)
        or ("expired", message) when the budget runs out
    ("stop",)                           -> worker exits (no response)
    any failure                         -> ("error", "ExcType: message")

``cap`` is the router's current global k-th distance (``inf`` until k
candidates exist): the worker may omit anything farther, which makes
visits to shards that cannot improve the answer nearly free.

``want_trace`` asks the worker to *trace* the query: it runs a local
:class:`~repro.obs.trace.Tracer` and ships the resulting spans back
(absolute ``perf_counter`` times -- the same system-wide monotonic
clock the parent reads) so the router can graft them into the
request's trace with :meth:`~repro.obs.trace.Trace.adopt`; untraced,
the engine gets the shared no-op trace and the reply's last element
is ``None``.  ``time_budget`` is the query's *remaining deadline
budget* in seconds (``None``: unbounded); the worker passes it into
the engine as a time cap and answers ``("expired", message)`` if the
search overruns it (the parent raises
:class:`~repro.errors.DeadlineExceeded`).

**Crash safety** (this is the serving tier's availability story): the
parent-side :class:`ShardWorker` never blocks forever on a dead
process.  Receives go through ``poll()`` with a short interval and a
process-liveness check, so a crashed worker surfaces as
:class:`~repro.errors.WorkerDied` within ~one poll interval instead
of hanging the router; ``stop()`` escalates join -> terminate -> kill
so a wedged worker can never zombie the shutdown path.  Recovery --
respawn/backoff/replay -- lives one level up in
:class:`~repro.shard.supervisor.ShardSupervisor`, which rebuilds
workers from their :class:`WorkerSpec` via :func:`spawn_worker`.

**Integrity**: a mapped load checks sizes, dtypes and shapes, not
checksums, so :meth:`ShardGroup.from_engine` runs one deep
``verify_manifest`` over the directory in the parent before any worker
exists, and every :class:`WorkerSpec` carries the manifest bytes that
pass verified.  A worker -- first spawn or respawn -- that finds another
manifest in the directory refuses to start: a directory republished
under a running tier is never served by half of it.

:class:`ShardGroup` bundles partitioning, worker spawning, supervision
and the :class:`~repro.shard.router.PartitionRouter` behind the
``knn``/``knn_batch`` surface the serving layer calls.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing as mp
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable

from repro.errors import CorruptIndexError, DeadlineExceeded, WorkerDied
from repro.integrity import MANIFEST_NAME, verify_manifest
from repro.objects.index import ObjectIndex
from repro.objects.model import ObjectSet
from repro.obs.trace import NULL_TRACE, Tracer
from repro.shard.partitioner import ShardMap, split_objects
from repro.shard.router import PartitionRouter
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
            conn.send(
                (
                    "error",
                    f"shard {shard_id} failed to start: "
                    f"{type(exc).__name__}: {exc}",
                )
            )
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
                _, position, k, variant, cap, want_trace, time_budget = msg
                trace = NULL_TRACE
                if want_trace:
                    trace = Tracer().start_trace(shard=shard_id)
                    # Rename the root so adopted spans read as
                    # worker-side work, not a nested request.
                    trace.spans[0].name = "worker"
                    trace.spans[0].labels["shard"] = str(shard_id)
                result = engine.knn(
                    position, k, variant=variant, exact=True,
                    max_distance=cap, trace=trace, time_cap=time_budget,
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
    """Everything needed to (re)spawn one shard's worker process.

    The supervisor keeps these around so a crashed worker can be
    rebuilt identically: same index directory, same network, same
    object slice, same storage simulation.  That identity is what
    makes replay-after-respawn answer-preserving, so it is checked:
    ``manifest`` is the directory's ``MANIFEST.json`` as the parent
    read it after its deep verify, and a worker that finds other bytes
    there does not start.
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

    A lock serializes the send/receive pair, so any number of serving
    threads can share the handle; different workers have independent
    locks (and pipes), which is exactly where the parallelism comes
    from.

    The receive side never blocks indefinitely: it polls the pipe at
    :attr:`poll_interval` and re-checks process liveness between
    polls, so a worker that dies mid-request raises
    :class:`~repro.errors.WorkerDied` promptly instead of hanging the
    caller forever (which is what a bare ``conn.recv()`` on a dead
    pipe's parent end does when the child end leaked into siblings).
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
        mid-request, or fails to answer within ``timeout`` seconds
        (unbounded by default -- liveness, not latency, is what the
        poll loop enforces).  A worker-reported ``("expired", ...)``
        raises :class:`DeadlineExceeded`; ``("error", ...)`` keeps its
        historical ``RuntimeError``.
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
        cap: float = math.inf,
        trace: bool = False,
        time_cap: float | None = None,
    ):
        """The shard's k nearest of its own objects, with exact distances.

        ``cap`` lets the worker omit objects farther than the caller's
        current global bound.  ``time_cap`` is the query's remaining
        deadline budget in seconds; the worker aborts the search and
        this raises :class:`DeadlineExceeded` if it runs out.  Returns
        ``([(oid, distance), ...], QueryStats, spans)``: with
        ``trace=True`` the worker traces the query and ``spans`` holds
        its span dicts (absolute times, ready for
        :meth:`~repro.obs.trace.Trace.adopt`); otherwise ``None``.
        """
        message = ("knn", position, k, variant, cap, trace, time_cap)
        _, pairs, stats, spans = self.request(message)
        return pairs, stats, spans

    def kill(self) -> None:
        """Hard-kill the worker process (fault injection / cleanup).

        SIGKILL, then reap: after this returns the process is gone and
        a replacement can safely map the same files.
        """
        with contextlib.suppress(OSError, ValueError, AttributeError):
            self.process.kill()
        self.process.join(5.0)
        with contextlib.suppress(OSError):
            self.conn.close()

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the process to exit; escalate join -> terminate -> kill.

        A wedged or already-dead worker can never hang shutdown: if the
        polite stop does not land within ``timeout`` the process is
        terminated (SIGTERM), and if *that* does not land, killed
        (SIGKILL) -- each stage followed by a bounded join.
        """
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
    """The sharded serving tier: partition, verify, spawn, route, supervise.

    Build one with :meth:`from_engine`; then :meth:`knn` and
    :meth:`knn_batch` answer queries through the partition router and
    the worker processes, with results identical to the unsharded
    engine's exact path.  Worker crashes are handled by the embedded
    :class:`~repro.shard.supervisor.ShardSupervisor` per the
    ``on_failure`` policy.  Always close (or use as a context
    manager): the workers are real processes.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        supervisor: ShardSupervisor,
        router: PartitionRouter,
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
        """Shard a :class:`~repro.engine.QueryEngine`'s index and objects.

        Partitions the network into ``num_shards`` Morton ranges,
        settles the index directory the workers map, deep-verifies it
        (every byte against its manifest checksum, once, before any
        worker exists: a :class:`~repro.errors.CorruptIndexError`
        names the bad column), spawns one worker process per shard
        that holds objects, pings each (so construction only returns
        once every worker has the index mapped), and fronts them with
        a :class:`~repro.shard.router.PartitionRouter` that prunes
        with the parent's own index.

        The directory follows from what is there to see: an explicit
        ``directory`` gets ``index.save`` (which replaces it wholesale,
        like any save); otherwise an index that is itself a view of
        files (``index.directory``, set by ``SILCIndex.load(...,
        mmap=True)``) is served in place and nothing is written;
        otherwise the index only exists in memory and ``index.save``
        goes to a private temporary directory, removed on
        :meth:`close`.

        ``worker_storage`` (:meth:`~repro.silc.SILCIndex.make_storage`
        keywords, e.g. ``{"cache_fraction": 0.05}``) gives every worker
        its own storage simulator -- the benchmark's disk-resident
        regime.

        ``on_failure`` picks the supervision policy (``respawn`` /
        ``failover`` / ``degrade`` / ``error`` -- see
        :class:`~repro.shard.supervisor.SupervisionPolicy`),
        ``max_retries`` bounds respawn+replay attempts per request,
        and ``fault_injector`` plugs a deterministic
        :class:`~repro.faults.FaultInjector` into the request path for
        chaos tests.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        index = engine.index
        network = index.network
        objects = engine.object_index.objects
        shard_map = ShardMap.from_index(index, num_shards)
        per_shard, has_edge = split_objects(
            network, objects, index.embedding, shard_map
        )
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
            manifest = (directory / MANIFEST_NAME).read_bytes()
            specs = {
                shard: WorkerSpec(
                    directory=str(directory),
                    manifest=manifest,
                    network=network,
                    shard_id=shard,
                    objects=tuple(per_shard[shard]),
                    storage_options=worker_storage,
                )
                for shard in range(num_shards)
                if per_shard[shard]
            }
            for shard, spec in specs.items():
                workers[shard] = spawn_worker(spec)
            for worker in workers.values():
                worker.ping()
        except BaseException:
            for worker in workers.values():
                worker.stop()
            if owns_directory:
                shutil.rmtree(directory, ignore_errors=True)
            raise
        supervisor = ShardSupervisor(
            spawner=lambda shard: spawn_worker(specs[shard]),
            workers=workers,
            policy=SupervisionPolicy(
                on_failure=on_failure, max_retries=max_retries
            ),
            fault_injector=fault_injector,
        )
        router = PartitionRouter(
            index,
            shard_map,
            supervisor,
            has_edge=has_edge,
            object_counts=[len(objs) for objs in per_shard],
            fallback=engine,
        )
        return cls(shard_map, supervisor, router, directory, owns_directory)

    # ------------------------------------------------------------------
    # Query surface (mirrors QueryEngine's)
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.shard_map.num_shards

    @property
    def stats(self):
        """The router's accumulated :class:`RouterStats`."""
        return self.router.stats

    def knn(self, query, k: int, variant: str = "knn", trace=None,
            time_cap: float | None = None):
        """One kNN query, scatter-gathered across the shard workers."""
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
