"""Process-parallel serving: shard workers, each a full replica.

The pure-Python search is GIL-bound, so threads cannot overlap it; this
package is the system's one form of query parallelism, worker
*processes*:

* :mod:`repro.shard.worker` runs them.  Every worker maps the one
  saved index directory (deep-verified once before the first starts,
  so the OS page cache holds the index once) and holds every object.
  Its :class:`~repro.shard.worker.ShardGroup` is the pool behind
  ``knn`` / ``knn_batch``: each kNN query goes to one idle worker,
  taken from a LIFO stack;
* :mod:`repro.shard.supervisor` survives worker crashes: it respawns
  with backoff and replays, fails over to the unsharded engine, or
  surfaces the error, per :class:`~repro.shard.supervisor.SupervisionPolicy`.

``AsyncEngine(shards=N)`` and ``repro serve --shards N`` wire the
group in.  N workers buy N queries in flight, not a partition: one
query never visits more than one worker.
"""

from repro.shard.partitioner import ShardMap
from repro.shard.supervisor import FAILURE_POLICIES, ShardSupervisor, SupervisionPolicy
from repro.shard.worker import ShardGroup, ShardWorker

__all__ = [
    "FAILURE_POLICIES",
    "ShardGroup",
    "ShardMap",
    "ShardSupervisor",
    "ShardWorker",
    "SupervisionPolicy",
]
