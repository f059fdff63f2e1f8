"""Awaitable facade over :class:`~repro.engine.QueryEngine`.

``AsyncEngine`` gives the serving layer non-blocking access to the
synchronous query engine: every call runs on a bounded
``ThreadPoolExecutor`` so the asyncio event loop keeps accepting and
scheduling requests while a query grinds through refinement steps.

With ``max_workers == 1`` (the default) the engine behaves as before:
one warm thread, queries strictly serialized.

With ``max_workers > 1`` queries genuinely execute in parallel.  The
historical blocker was the shared
:class:`~repro.storage.StorageSimulator`: its single LRU is not safe
to interleave and the per-query attach/restore handshake mutates
``index.storage``.  The facade therefore

* upgrades the engine's simulator to a
  :class:`~repro.storage.ShardedStorageSimulator` (per-thread LRU
  shards and counters, merged on read) unless it already is one, and
* attaches it to the index for the facade's lifetime, so the
  per-query attach handshake becomes a no-op read instead of a
  mutation.

After that, no lock guards query execution at all: per-query state is
local, the location cache locks internally, and storage accounting is
thread-sharded.  True CPU parallelism is still GIL-bound for the
pure-Python search, but everything that *releases* the GIL -- numpy
column scans and, in the I/O-simulating benchmark regime, real
per-fault latency -- now overlaps across workers.

With ``shards > 1`` the facade goes one step further and runs kNN
queries on the spatially-sharded *process* tier
(:class:`~repro.shard.ShardGroup`): the index is partitioned by
Morton-key ranges, one worker process serves each shard's slice of
the store and objects, and a partition router prunes shards by
distance bound before scatter-gathering candidates.  kNN answers are
then always exact; ``path``/``distance`` requests keep running on the
local engine (they are single index walks with nothing to shard).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Iterable
from functools import partial

from repro.engine import BatchResult, QueryEngine
from repro.query.results import KNNResult
from repro.storage.concurrent import ShardedStorageSimulator


class AsyncEngine:
    """``await``-able kNN/path/distance queries over one shared engine.

    Parameters
    ----------
    engine:
        The synchronous engine whose caches and storage are shared.
    max_workers:
        Executor threads.  With more than one, the engine's storage is
        upgraded to per-thread shards (see module docstring) and
        queries run without any global lock.

        The upgrade **rebinds** ``engine.storage`` when it was a plain
        serial simulator: a reference you held to the original object
        stops seeing traffic, and its accumulated counters and cache
        warmth are not carried over (shards start cold).  Read
        ``engine.storage`` after construction for the live simulator,
        or pass a :class:`ShardedStorageSimulator` yourself to keep
        control of the object.
    shards:
        Spatial shard *processes* for kNN execution.  ``1`` (the
        default) keeps everything in-process; with more, construction
        partitions the engine's index and objects, writes the sharded
        store layout, and spawns one worker process per populated
        shard (see :class:`~repro.shard.ShardGroup`).  The executor is
        widened to at least ``shards`` threads so that many sharded
        queries can be in flight at once -- that concurrency is what
        the worker processes turn into parallelism.
    shard_dir:
        Directory for the sharded store layout (default: a private
        temporary directory, removed on :meth:`close`).
    on_shard_failure / max_retries / fault_injector:
        Shard-tier fault handling, forwarded to
        :meth:`~repro.shard.ShardGroup.from_engine`:
        ``on_shard_failure`` picks the supervision policy (``respawn``
        / ``failover`` / ``degrade`` / ``error``), ``max_retries``
        bounds respawn+replay attempts per request, and
        ``fault_injector`` plugs a deterministic
        :class:`~repro.faults.FaultInjector` into the worker request
        path for chaos tests.  All ignored when ``shards == 1``.
    """

    def __init__(
        self,
        engine: QueryEngine,
        max_workers: int = 1,
        shards: int = 1,
        shard_dir=None,
        on_shard_failure: str = "respawn",
        max_retries: int = 2,
        fault_injector=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self.engine = engine
        self.max_workers = max_workers
        self.shards = shards
        self._executor = ThreadPoolExecutor(
            max_workers=max(max_workers, shards),
            thread_name_prefix="repro-serve",
        )
        self._attached = False
        self._previous_storage = None
        if max_workers > 1:
            self._prepare_parallel()
        self.shard_group = None
        if shards > 1:
            from repro.shard import ShardGroup

            self.shard_group = ShardGroup.from_engine(
                engine, shards, directory=shard_dir,
                on_failure=on_shard_failure, max_retries=max_retries,
                fault_injector=fault_injector,
            )
        self._closed = False

    def _prepare_parallel(self) -> None:
        """Make shared state safe for lock-free parallel queries."""
        engine = self.engine
        if engine.storage is not None and not getattr(
            engine.storage, "concurrent_safe", False
        ):
            engine.storage = ShardedStorageSimulator.from_simulator(engine.storage)
        index = engine.index
        if engine.storage is not None:
            # Pre-attach for the facade's lifetime: QueryEngine._attached
            # then sees ``index.storage is self.storage`` on every query
            # and never mutates shared state mid-flight.
            self._previous_storage = index.storage
            index.attach_storage(engine.storage)
            self._attached = True
        elif index.storage is not None and not getattr(
            index.storage, "concurrent_safe", False
        ):
            raise ValueError(
                "AsyncEngine(max_workers > 1) needs a concurrency-safe "
                "storage simulator; the index has a serial StorageSimulator "
                "attached directly. Attach a ShardedStorageSimulator (or "
                "give the engine its own storage) instead."
            )

    async def _run(self, fn, *args, **kwargs):
        # No lock in either mode: a single-worker executor serializes
        # inherently, and the parallel mode's shared state was made
        # safe up front by _prepare_parallel.
        if self._closed:
            raise RuntimeError("AsyncEngine is closed")
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, partial(fn, *args, **kwargs)
        )

    def _knn_target(self, exact: bool, oracle: str | None):
        """Where a kNN request runs, and the keywords only that target takes.

        ``oracle=None`` falls back to the engine's default, so a
        shard-tier deployment started with ``--oracle labels`` does not
        silently route unlabelled requests back to SILC shards.
        """
        effective = oracle if oracle is not None else getattr(self.engine, "oracle", "silc")
        if self.shard_group is not None and effective == "silc":
            # The sharded tier always refines to exact distances (the
            # router merges candidates by comparing them), so `exact`
            # is subsumed rather than forwarded.  Its router prunes by
            # SILC block bounds, so a non-SILC oracle request bypasses
            # the shard tier and runs on the local engine instead.
            return self.shard_group, {}
        return self.engine, {"exact": exact, "oracle": oracle}

    # ------------------------------------------------------------------
    # Queries (mirror QueryEngine's surface)
    # ------------------------------------------------------------------
    async def knn(
        self,
        query,
        k: int,
        variant: str = "knn",
        exact: bool = False,
        oracle: str | None = None,
        trace=None,
        time_cap: float | None = None,
    ) -> KNNResult:
        target, only = self._knn_target(exact, oracle)
        return await self._run(
            target.knn, query, k, variant=variant, trace=trace,
            time_cap=time_cap, **only,
        )

    async def knn_batch(
        self,
        queries: Iterable,
        k: int,
        variant: str = "knn",
        exact: bool = False,
        oracle: str | None = None,
        trace=None,
        time_cap: float | None = None,
    ) -> BatchResult:
        target, only = self._knn_target(exact, oracle)
        return await self._run(
            target.knn_batch, queries, k, variant=variant, trace=trace,
            time_cap=time_cap, **only,
        )

    async def path(self, source: int, target: int) -> list[int]:
        return await self._run(self.engine.index.path, source, target)

    async def distance(self, source: int, target: int) -> float:
        return await self._run(self.engine.index.distance, source, target)

    async def route(self, source: int, target: int) -> tuple[list[int], float]:
        """Path and distance in one executor trip (one index walk)."""
        return await self._run(self.engine.index.route, source, target)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the executor down; pending calls finish first."""
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)
            if self.shard_group is not None:
                self.shard_group.close()
            if self._attached:
                self._attached = False
                index = self.engine.index
                if self._previous_storage is None:
                    index.detach_storage()
                else:
                    index.attach_storage(self._previous_storage)

    async def __aenter__(self) -> AsyncEngine:
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
