"""Awaitable facade over :class:`~repro.engine.QueryEngine`.

``AsyncEngine`` gives the serving layer non-blocking access to the
synchronous query engine through one hand-off: a call is queued as
``(loop, functools.partial, done)``, a plain worker thread runs it,
and the outcome comes back as ``loop.call_soon_threadsafe(done, value,
exc)`` -- one thread wake-up out, one loop turn back, while the event
loop keeps accepting and scheduling requests.
:class:`~repro.serve.SILCServer` passes its completion callback as
``done``; without one the query methods return a future resolved by
that same path, so ``await engine.knn(...)`` works.  The loop is taken
per call (engines are built before one runs).

An engine runs one query at a time: there is one worker thread per
shard, so without a shard tier calls are strictly serialized (the
search is pure Python and GIL-bound, and the engine's
:class:`~repro.storage.StorageSimulator` is one LRU that must not be
interleaved).  Parallelism is processes: with ``shards > 1`` kNN
queries run on :class:`~repro.shard.ShardGroup` (always exact there),
one query per worker process, and a worker thread's job is to wait on
that worker's pipe.  Calls that land on the local engine all the same
(``path``/``distance``, a non-SILC oracle, failover) are still
one-at-a-time work, which :class:`~repro.serve.SILCServer` guarantees
by keeping one chunk in flight.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Callable, Iterable
from functools import partial
from queue import SimpleQueue

from repro.engine import QueryEngine

#: ``done(value, exc)``: how a call's outcome reaches the caller's loop.
Done = Callable[[object, BaseException | None], None]


def _resolve(future: asyncio.Future, value, exc: BaseException | None) -> None:
    """The ``done`` of a caller that awaits instead of passing its own."""
    if future.done():
        return  # the awaiting caller was cancelled meanwhile
    if exc is None:
        future.set_result(value)
    else:
        future.set_exception(exc)


class AsyncEngine:
    """``await``-able kNN/path/distance queries over one shared engine.

    Parameters
    ----------
    engine:
        The synchronous engine whose caches and storage are shared.
    shards:
        Shard worker *processes* for kNN execution.  ``1`` (the
        default) keeps everything in-process; with more, construction
        deep-verifies the index directory once and spawns ``shards``
        worker processes that each map it and hold every object (see
        :class:`~repro.shard.ShardGroup`).  There are ``shards``
        worker threads, so that many sharded queries can be in flight
        at once, each on its own worker process -- each thread mostly
        waits on a worker's pipe, and that concurrency is what the
        worker processes turn into parallelism.
    shard_dir:
        Directory the index is saved to for the workers to map
        (default: the directory a mapped index was loaded from, served
        in place; for an index in memory, a private temporary
        directory removed on :meth:`close`).
    on_shard_failure / max_retries / fault_injector:
        Shard-tier fault handling, forwarded to
        :meth:`~repro.shard.ShardGroup.from_engine`:
        ``on_shard_failure`` picks the supervision policy (``respawn``
        / ``failover`` / ``error``), ``max_retries``
        bounds respawn+replay attempts per request, and
        ``fault_injector`` plugs a deterministic
        :class:`~repro.faults.FaultInjector` into the worker request
        path for chaos tests.  All ignored when ``shards == 1``.
    """

    def __init__(
        self,
        engine: QueryEngine,
        shards: int = 1,
        shard_dir=None,
        on_shard_failure: str = "respawn",
        max_retries: int = 2,
        fault_injector=None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.engine = engine
        self.shards = shards
        self.shard_group = None
        if shards > 1:
            from repro.shard import ShardGroup

            self.shard_group = ShardGroup.from_engine(
                engine, shards, directory=shard_dir,
                on_failure=on_shard_failure, max_retries=max_retries,
                fault_injector=fault_injector,
            )
        self._closed = False
        self._calls: SimpleQueue = SimpleQueue()
        # Started last, so the shard processes fork from one thread;
        # daemons, so an engine nobody closed does not hold up exit.
        self._workers = [
            threading.Thread(target=self._work, name=f"repro-serve_{i}", daemon=True)
            for i in range(shards)
        ]
        for worker in self._workers:
            worker.start()

    def _work(self) -> None:
        """A worker thread: run calls until :meth:`close`'s ``None``."""
        while (call := self._calls.get()) is not None:
            loop, fn, done = call
            try:
                outcome = fn(), None
            except BaseException as exc:  # noqa: BLE001 - raised again by whoever reads `done`
                outcome = None, exc
            try:
                loop.call_soon_threadsafe(done, *outcome)
            except RuntimeError:
                pass  # that loop closed while the call ran: nobody waits

    def _run(self, done: Done | None, fn, *args, **kwargs) -> asyncio.Future | None:
        """Hand ``fn(*args, **kwargs)`` to a worker; its outcome goes to
        ``done(value, exc)`` on the calling loop (``None``: to the
        future this returns)."""
        if self._closed:
            raise RuntimeError("AsyncEngine is closed")
        loop = asyncio.get_running_loop()
        future = None
        if done is None:
            future = loop.create_future()
            done = partial(_resolve, future)
        self._calls.put((loop, partial(fn, *args, **kwargs), done))
        return future

    def _knn_target(self, exact: bool, oracle: str | None):
        """Where a kNN request runs, and the keywords only that target takes.

        ``oracle=None`` falls back to the engine's default, so a
        shard-tier deployment started with ``--oracle labels`` does not
        silently route unlabelled requests back to SILC shards.
        """
        effective = oracle if oracle is not None else getattr(self.engine, "oracle", "silc")
        if self.shard_group is not None and effective == "silc":
            # The sharded tier always refines to exact distances, so
            # `exact` is subsumed rather than forwarded.  Its workers
            # run the SILC search, so a non-SILC oracle request bypasses
            # the shard tier and runs on the local engine instead.
            return self.shard_group, {}
        return self.engine, {"exact": exact, "oracle": oracle}

    # ------------------------------------------------------------------
    # Queries (mirror QueryEngine's surface)
    # ------------------------------------------------------------------
    def knn(
        self, query, k: int, variant: str = "knn", exact: bool = False,
        oracle: str | None = None, trace=None, time_cap: float | None = None,
        done: Done | None = None,
    ) -> asyncio.Future | None:
        target, only = self._knn_target(exact, oracle)
        return self._run(
            done, target.knn, query, k, variant=variant, trace=trace,
            time_cap=time_cap, **only,
        )

    def knn_batch(
        self, queries: Iterable, k: int, variant: str = "knn", exact: bool = False,
        oracle: str | None = None, trace=None, time_cap: float | None = None,
        done: Done | None = None,
    ) -> asyncio.Future | None:
        target, only = self._knn_target(exact, oracle)
        return self._run(
            done, target.knn_batch, queries, k, variant=variant, trace=trace,
            time_cap=time_cap, **only,
        )

    def path(self, source: int, target: int, done: Done | None = None) -> asyncio.Future | None:
        return self._run(done, self.engine.index.path, source, target)

    def distance(self, source: int, target: int, done: Done | None = None) -> asyncio.Future | None:
        return self._run(done, self.engine.index.distance, source, target)

    def route(self, source: int, target: int, done: Done | None = None) -> asyncio.Future | None:
        """``(path, distance)`` in one hand-off (one index walk)."""
        return self._run(done, self.engine.index.route, source, target)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire the worker threads; calls already handed off finish first."""
        if not self._closed:
            self._closed = True
            for _ in self._workers:
                self._calls.put(None)
            for worker in self._workers:
                worker.join()
            if self.shard_group is not None:
                self.shard_group.close()

    async def __aenter__(self) -> AsyncEngine:
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
