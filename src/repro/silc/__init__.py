"""SILC: the paper's core contribution.

Shortest-path maps, shortest-path quadtrees, the per-network
:class:`SILCIndex`, distance intervals and progressive refinement.
"""

from repro.silc.index import SILCIndex
from repro.silc.parallel import available_workers
from repro.silc.updates import update_index

__all__ = ["SILCIndex", "available_workers", "update_index"]
