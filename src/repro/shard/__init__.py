"""Process-parallel serving: shard workers, each a full replica.

The pure-Python search is GIL-bound, so threads cannot overlap it; this
package is the system's one form of query parallelism, worker
*processes*.  :mod:`repro.shard.worker` runs them: every worker maps
the one saved index directory (deep-verified once before the first
starts, so the OS page cache holds the index once) and holds every
object.  Its :class:`~repro.shard.worker.ShardGroup` is the pool behind
``knn`` / ``knn_batch``: each kNN query goes to one idle worker, taken
from a LIFO stack, and a worker that dies is respawned and the query
replayed, or answered on the unsharded engine once the slot stays down.

``AsyncEngine(shards=N)`` and ``repro serve --shards N`` wire the
group in, one query in flight; N concurrent callers of the group get
N in flight.  One query never visits more than one worker.
"""

from repro.shard.partitioner import ShardMap
from repro.shard.worker import ShardGroup

__all__ = ["ShardGroup", "ShardMap"]
