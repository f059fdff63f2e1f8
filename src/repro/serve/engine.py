"""Awaitable facade over :class:`~repro.engine.QueryEngine`.

``AsyncEngine`` gives the serving layer non-blocking access to the
synchronous query engine: every call runs on a bounded
``ThreadPoolExecutor`` so the asyncio event loop keeps accepting and
scheduling requests while a query grinds through refinement steps.

An engine runs one query at a time: without a shard tier the executor
has a single warm thread and calls are strictly serialized (the search
is pure Python and GIL-bound, and the engine's
:class:`~repro.storage.StorageSimulator` is one LRU that must not be
interleaved).  Parallelism is processes:

With ``shards > 1`` the facade runs kNN queries on the
spatially-sharded *process* tier (:class:`~repro.shard.ShardGroup`):
the index is partitioned by Morton-key ranges, one worker process
serves each shard's slice of the store and objects, and a partition
router prunes shards by distance bound before scatter-gathering
candidates.  kNN answers are then always exact; ``path``/``distance``
requests keep running on the local engine (they are single index
walks with nothing to shard).  The executor then has ``shards``
threads, whose job is to wait on worker pipes; calls that land on the
local engine (``path``/``distance``, a non-SILC oracle, failover) are
still one-at-a-time work, which :class:`~repro.serve.SILCServer`
guarantees by awaiting one chunk at a time.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Iterable
from functools import partial

from repro.engine import BatchResult, QueryEngine
from repro.query.results import KNNResult


class AsyncEngine:
    """``await``-able kNN/path/distance queries over one shared engine.

    Parameters
    ----------
    engine:
        The synchronous engine whose caches and storage are shared.
    shards:
        Spatial shard *processes* for kNN execution.  ``1`` (the
        default) keeps everything in-process; with more, construction
        partitions the engine's index and objects, writes the sharded
        store layout, and spawns one worker process per populated
        shard (see :class:`~repro.shard.ShardGroup`).  The executor
        has ``shards`` threads, so that many sharded queries can be in
        flight at once -- each thread mostly waits on a worker's pipe,
        and that concurrency is what the worker processes turn into
        parallelism.
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
        self._executor = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="repro-serve"
        )
        self.shard_group = None
        if shards > 1:
            from repro.shard import ShardGroup

            self.shard_group = ShardGroup.from_engine(
                engine, shards, directory=shard_dir,
                on_failure=on_shard_failure, max_retries=max_retries,
                fault_injector=fault_injector,
            )
        self._closed = False

    async def _run(self, fn, *args, **kwargs):
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

    async def __aenter__(self) -> AsyncEngine:
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
