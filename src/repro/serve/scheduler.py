"""Per-client fair scheduling: FIFO lanes served round-robin.

A synchronous queue discipline (the asyncio server wraps it): each
client gets one FIFO *lane*, and :meth:`FairScheduler.next_chunk`
sweeps the lanes round-robin, one chunk per occupied lane per sweep.
A batch is split into :class:`Chunk`\\ s on submit, so a 10k-query
batch occupies its lane one chunk at a time instead of monopolizing
the server.

Progress is counted, not timed: the scheduler keeps a serial of engine
queries dispatched, and a request's scheduling delay is how many
queries of other requests ran between its submit and its first
dispatch -- what the fairness benchmark asserts on.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from collections.abc import Iterator

from repro.serve.protocol import Request

#: Queries per scheduler chunk: small enough that an interactive
#: request waits at most a few chunks behind any bulk batch.
DEFAULT_CHUNK_SIZE = 32


@dataclass
class Chunk:
    """A scheduler-sized slice of one request's queries.

    ``cost`` is its engine queries (must agree with Request.cost): a
    path/distance chunk carries ``(source, target)`` but is one engine
    query, not two -- counting it as two would inflate the dispatch
    serial, queue depths, and every sched_delay derived from them, and
    disagree with admission's in-flight accounting.
    """

    request: Request
    queries: tuple
    offset: int
    last: bool
    cost: int


class FairScheduler:
    """Round-robin over per-client FIFO lanes.

    Parameters
    ----------
    chunk_size:
        Maximum queries per dispatched chunk; batch requests are split
        into ceil(n / chunk_size) chunks at submit time.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.chunk_size = chunk_size
        #: One FIFO of pending chunks per client, in first-seen order.
        self._lanes: OrderedDict[str, deque] = OrderedDict()
        self._cursor: int = 0
        #: Chunks waiting across every lane.
        self.queued: int = 0
        #: Monotone count of engine queries handed out by next_chunk().
        self.dispatched: int = 0
        #: Serial at which each pending request was submitted.
        self._submit_serial: dict = {}
        #: Per-request scheduling delay, filled at first dispatch.
        self.sched_delays: dict = {}

    # ------------------------------------------------------------------
    # Lanes
    # ------------------------------------------------------------------
    def depths(self) -> dict[str, int]:
        """Pending engine queries per lane (the metrics queue depth)."""
        return {c: sum(ch.cost for ch in lane) for c, lane in self._lanes.items() if lane}

    def pending(self) -> int:
        """Total engine queries waiting across every lane."""
        return sum(self.depths().values())

    def __len__(self) -> int:
        return self.queued

    # ------------------------------------------------------------------
    # Submit / dispatch
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> int:
        """Enqueue a request, splitting batches; returns the chunk count."""
        lane = self._lanes.get(request.client)
        if lane is None:
            lane = self._lanes[request.client] = deque()
        queries = request.queries
        unit = request.kind in ("path", "distance")  # (source, target) is one unit of work
        if unit or 0 < len(queries) <= self.chunk_size:
            pieces = [queries]
        else:
            pieces = [
                queries[i : i + self.chunk_size]
                for i in range(0, len(queries), self.chunk_size)
            ]
        for i, piece in enumerate(pieces):
            lane.append(Chunk(
                request, piece, i * self.chunk_size, i == len(pieces) - 1, 1 if unit else len(piece)
            ))
        self.queued += len(pieces)
        self._submit_serial[id(request)] = self.dispatched
        return len(pieces)

    def next_chunk(self) -> Chunk | None:
        """Dispatch the next chunk round-robin, or None.

        The cursor indexes the occupied lanes and moves on after every
        chunk, so one sweep serves each waiting client one chunk.
        """
        if not self.queued:
            self._cursor = 0
            return None
        lanes = list(filter(None, self._lanes.values()))  # the occupied ones
        self._cursor %= len(lanes)
        chunk = lanes[self._cursor].popleft()
        self._cursor = (self._cursor + 1) % len(lanes)
        self.queued -= 1
        self.dispatched += chunk.cost
        key = id(chunk.request)
        if key in self._submit_serial:
            # First chunk of this request to dispatch: the scheduling
            # delay is the number of *other* requests' queries that ran
            # in between (this chunk's own cost is excluded).
            self.sched_delays[key] = self.dispatched - chunk.cost - self._submit_serial.pop(key)
        return chunk

    def drain(self) -> Iterator[Chunk]:
        """Dispatch until empty (the synchronous/benchmark driver)."""
        return iter(self.next_chunk, None)

    def sched_delay(self, request: Request) -> int:
        """Counted scheduling delay of a dispatched request's first chunk."""
        return self.sched_delays.get(id(request), 0)
