"""Per-query work counters.

Every figure in the paper's evaluation is a plot of one of these
counters (or of wall-clock/I/O time), so the query algorithms record
everything the benchmark harness needs in a single dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from time import perf_counter

#: The single sanctioned wall-clock hook for the counted kernels.
#:
#: The reproduction measures query work in *counted operations*
#: (machine-independent); the kernels still need a clock for deadline
#: checks and the supplementary ``elapsed`` stat.  They must take it
#: from here -- ``repro check`` (rule RPR004) flags any direct
#: ``time``/``datetime`` use inside a kernel module, so this alias is
#: the one auditable place where wall-clock enters the hot path.
counted_clock = perf_counter


@dataclass
class QueryStats:
    """Counters accumulated while answering one query.

    SILC-family counters
    --------------------
    refinements:
        Links advanced inside the search (fig p.35's unit): one per
        progressive-refinement step, and one per link of a walk to
        exact.  The exact pass after the search is not in here: its
        links are ``extras["post_refinements"]``, so the two together
        are every link a query walked.  Where every edge's reverse
        exists with the same weight (``network.symmetric``), a vertex
        query for ``HOME_MIN_K`` (10) or more neighbours walks a vertex
        object *home*, from the object toward the query, and stops at
        the first vertex an earlier walk of the query passed
        (``RefinableDistance.walk_home``): a link counts once, when its
        far end first gets its distance, so the walks of one query
        count the union of the answers' shortest paths, not the sum.
        There an exact search of any variant walks every colliding
        vertex object home instead of stepping it.  Elsewhere a walk
        runs forward from the query and counts every link it takes,
        and only an exact ``knn`` walks inside the search: a colliding
        object already inside ``Dk``.
    max_queue:
        Peak size of the main priority queue ``Q`` (fig p.34's unit).
    collisions:
        Objects popped whose upper bound was above the head of ``Q``,
        so Theorem 1 could not confirm them yet: kNN-M may accept one
        against KMINDIST; every other gets one refinement step or one
        walk to exact.
    l_ops:
        Operations on the result queue ``L`` -- every insertion, every
        update and every read of ``Dk``: the paper's "kNN-PQ" series
        (fig p.38), as a count.
    kmindist_accepts:
        Objects accepted directly against KMINDIST without further
        refinement (fig p.36's unit; kNN-M only).
    d0k / kmindist_final / dk_final:
        The estimator values at termination (fig p.37's units).
    io_accesses / io_misses / io_time:
        Simulated page traffic, when a storage simulator is attached.

    Baseline counters
    -----------------
    settled / relaxed:
        Dijkstra work (INE and IER).
    index_probes:
        Object-index lookups (INE probes one per settled vertex).
    nd_computations:
        Point-to-point network-distance computations (IER).
    label_scans:
        Label entries scanned by 2-hop labelling distance merges
        (:class:`~repro.oracle.PrunedLabellingOracle`'s counted unit).
    """

    # SILC family
    refinements: int = 0
    max_queue: int = 0
    queue_pushes: int = 0
    objects_seen: int = 0
    leaf_expansions: int = 0
    nonleaf_expansions: int = 0
    collisions: int = 0
    confirmations: int = 0
    kmindist_accepts: int = 0
    l_ops: int = 0
    d0k: float | None = None
    kmindist_final: float | None = None
    dk_final: float | None = None
    # storage
    io_accesses: int = 0
    io_misses: int = 0
    io_time: float = 0.0
    # baselines
    settled: int = 0
    relaxed: int = 0
    index_probes: int = 0
    nd_computations: int = 0
    label_scans: int = 0
    # wall clock
    elapsed: float = 0.0

    extras: dict = field(default_factory=dict)

    def add(self, other: QueryStats) -> QueryStats:
        """Sum ``other``'s counters into this one, in place; returns self.

        The two instance dicts are read and written directly: a
        subscript where ``getattr`` / ``setattr`` are calls."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _SUMMED:
            value = theirs[name]
            if value:  # most counters of one query are 0
                mine[name] += value
        return self


#: The fields :meth:`QueryStats.add` sums: every plain counter and time
#: (estimator values and extras describe one query and have no sum).
_SUMMED = tuple(f.name for f in fields(QueryStats) if f.type in ("int", "float"))
