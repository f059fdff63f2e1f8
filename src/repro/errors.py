"""Cross-layer fault-tolerance exceptions.

These live at the package root because they cross layer boundaries:
:class:`CorruptIndexError` is raised by every persistence reader
(:mod:`repro.silc.store`, :mod:`repro.silc.index`,
:mod:`repro.oracle.labelling`, :mod:`repro.oracle.planner`) and
handled by the CLI and tests;
:class:`DeadlineExceeded` travels from the innermost search loop
(:func:`repro.query.bestfirst.best_first_knn`) through the shard pipe
protocol up to the serving layer, which turns it into an
:class:`~repro.serve.protocol.Expired` response.
"""

from __future__ import annotations


class CorruptIndexError(RuntimeError):
    """A persisted index/labelling failed its integrity verification.

    Raised *at load time* -- before any query can run against the bad
    data -- when a column file is missing, truncated, fails its
    manifest checksum, or cannot be parsed, or when the manifest
    itself is.  ``column`` names the offending column file (without
    the ``.npy`` suffix) when there is one.
    """

    def __init__(self, message: str, column: str | None = None) -> None:
        super().__init__(message)
        self.column = column


class DeadlineExceeded(RuntimeError):
    """A query's end-to-end deadline ran out during *execution*.

    Distinct from queue-time expiry (which the server detects before
    dispatch): this is raised from inside the engine when the
    remaining budget hits zero mid-search, so a request never returns
    a late result.  The serving layer maps it to an
    :class:`~repro.serve.protocol.Expired` response with
    ``aborted=True``.
    """


class WorkerDied(RuntimeError):
    """A shard worker process crashed (or vanished) around a request.

    Raised by the parent-side :class:`~repro.shard.worker.ShardWorker`
    handle when the process is found dead, the pipe breaks on send,
    or the receive poll hits EOF/liveness failure.  The
    :class:`~repro.shard.supervisor.ShardSupervisor` catches it and
    applies the configured recovery policy; it subclasses
    ``RuntimeError`` so un-supervised callers keep their historical
    failure type.
    """

    def __init__(self, message: str, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard


class ShardUnavailable(RuntimeError):
    """A shard stayed down after the supervision policy was exhausted.

    Raised to the router, which then acts per policy: fail over to the
    unsharded engine, or surface the error.
    """

    def __init__(self, message: str, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard
