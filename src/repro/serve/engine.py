"""Awaitable facade over :class:`~repro.engine.QueryEngine`.

``AsyncEngine`` gives the serving layer the synchronous engine behind
one hand-off: a call runs inline on the event loop's thread and its
outcome goes to ``done(value, exc)`` before the call returns.
:class:`~repro.serve.SILCServer` passes its completion callback as
``done`` (which schedules the next chunk, so nothing recurses); without
one a query method returns a future resolved by that same path, so
``await engine.knn(...)`` works.

There is no thread: the search is GIL-bound, the engine's
:class:`~repro.storage.StorageSimulator` is one LRU that must not be
interleaved, and the server keeps one chunk in flight, so a worker
thread would overlap nothing and cost two context switches per
request.  Parallelism is processes: with ``shards > 1`` SILC kNN
queries run on :class:`~repro.shard.ShardGroup` (the same answer as
in process), and the loop thread waits on the worker's pipe, so
callers that ``gather`` sharded queries get them one after another.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Iterable

from repro.engine import QueryEngine

#: ``done(value, exc)``: how a call's outcome reaches the caller.
Done = Callable[[object, Exception | None], None]


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
        :class:`~repro.shard.ShardGroup`).  A sharded query runs on
        the loop thread, which waits on its worker's pipe.
    shard_dir:
        Directory the index is saved to for the workers to map
        (default: the directory a mapped index was loaded from, served
        in place; for an index in memory, a private temporary
        directory removed on :meth:`close`).
    fault_injector:
        A deterministic :class:`~repro.faults.FaultInjector` plugged
        into the worker request path for chaos tests, forwarded to
        :meth:`~repro.shard.ShardGroup.from_engine`; ignored when
        ``shards == 1``.
    """

    def __init__(
        self,
        engine: QueryEngine,
        shards: int = 1,
        shard_dir=None,
        fault_injector=None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.engine = engine
        self.shard_group = None
        if shards > 1:
            from repro.shard import ShardGroup

            self.shard_group = ShardGroup.from_engine(
                engine, shards, directory=shard_dir, fault_injector=fault_injector,
            )
        self._closed = False

    def _run(self, done: Done | None, fn, *args, **kwargs) -> asyncio.Future | None:
        """Run ``fn(*args, **kwargs)`` here; its outcome goes to
        ``done(value, exc)`` (``None``: to the future this returns).
        Raises only if nothing ran: ``done``'s own errors are reported."""
        if self._closed:
            raise RuntimeError("AsyncEngine is closed")
        loop = asyncio.get_running_loop()
        try:
            value, exc = fn(*args, **kwargs), None
        except Exception as error:  # noqa: BLE001 - raised again by whoever reads `done`
            value, exc = None, error
        if done is None:
            future = loop.create_future()
            future.set_result(value) if exc is None else future.set_exception(exc)
            return future
        try:
            done(value, exc)
        except Exception as error:  # noqa: BLE001 - the caller's callback, not the call
            loop.call_exception_handler({"message": "done failed", "exception": error})
        return None

    def _knn_target(self, oracle: str | None):
        """Where a kNN request runs, and the keywords only that target takes.

        The shard tier's workers run the SILC search, so a request for
        another oracle runs on the local engine.  ``oracle=None`` falls
        back to the engine's default, so a shard-tier deployment started
        with ``--oracle labels`` does not silently route unlabelled
        requests back to SILC shards.
        """
        effective = oracle if oracle is not None else getattr(self.engine, "oracle", "silc")
        if self.shard_group is not None and effective == "silc":
            return self.shard_group, {}
        return self.engine, {"oracle": oracle}

    # ------------------------------------------------------------------
    # Queries (mirror QueryEngine's surface)
    # ------------------------------------------------------------------
    def knn(
        self, query, k: int, variant: str = "knn", exact: bool = False,
        oracle: str | None = None, trace=None, time_cap: float | None = None,
        done: Done | None = None,
    ) -> asyncio.Future | None:
        target, only = self._knn_target(oracle)
        return self._run(
            done, target.knn, query, k, variant=variant, exact=exact, trace=trace,
            time_cap=time_cap, **only,
        )

    def knn_batch(
        self, queries: Iterable, k: int, variant: str = "knn", exact: bool = False,
        oracle: str | None = None, trace=None, time_cap: float | None = None,
        done: Done | None = None,
    ) -> asyncio.Future | None:
        target, only = self._knn_target(oracle)
        return self._run(
            done, target.knn_batch, queries, k, variant=variant, exact=exact, trace=trace,
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
        """Refuse further calls and stop the shard tier (outcomes already
        handed over are still delivered)."""
        if not self._closed:
            self._closed = True
            if self.shard_group is not None:
                self.shard_group.close()

    async def __aenter__(self) -> AsyncEngine:
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
