"""Spatially-sharded process-parallel serving.

The pure-Python best-first search is GIL-bound, so threads cannot
overlap it and an engine runs one query at a time.  This package is
the system's one form of query parallelism: worker *processes* over
spatial shards:

* :mod:`repro.shard.partitioner` splits the network into contiguous
  Morton-key ranges and assigns every object to the shard(s) its
  part points fall in;
* :mod:`repro.shard.worker` runs one long-lived process per shard,
  speaking a request/response pipe protocol; every worker maps the one
  saved index directory (``SILCIndex.load(..., mmap=True)``, the
  server's own when it mapped one), deep-verified once before the
  first worker starts, so the OS page cache holds the index once;
* :mod:`repro.shard.router` fronts them with a
  :class:`~repro.shard.router.PartitionRouter` that prunes shards
  whose Morton range provably lies beyond the query's current kNN
  distance bound and scatter-gathers the survivors' candidates into
  one global result heap.

:class:`~repro.shard.worker.ShardGroup` bundles all of the above
behind the two calls the serving layer needs (``knn``/``knn_batch``);
``AsyncEngine(shards=N)`` and ``repro serve --shards N`` wire it in.

Worker processes crash; :mod:`repro.shard.supervisor` owns surviving
them.  A :class:`~repro.shard.supervisor.ShardSupervisor` sits between
the router and the workers, detects deaths (a broken pipe, a failed
liveness check), respawns with exponential backoff, and applies a
configurable :class:`~repro.shard.supervisor.SupervisionPolicy` --
replay on the fresh worker, fail over to the unsharded engine, or
degrade to the surviving shards.
"""

from repro.shard.partitioner import ShardMap, split_objects
from repro.shard.router import PartitionRouter, RouterStats
from repro.shard.supervisor import (
    FAILURE_POLICIES,
    ShardSupervisor,
    SupervisionPolicy,
    SupervisorStats,
)
from repro.shard.worker import ShardGroup, ShardWorker

__all__ = [
    "FAILURE_POLICIES",
    "PartitionRouter",
    "RouterStats",
    "ShardGroup",
    "ShardMap",
    "ShardSupervisor",
    "ShardWorker",
    "SupervisionPolicy",
    "SupervisorStats",
    "split_objects",
]
