"""Per-client fair scheduling: FIFO lanes served round-robin.

A synchronous queue discipline (the asyncio server wraps it): each
client gets one FIFO *lane*, and :meth:`FairScheduler.next_chunk`
sweeps the lanes round-robin, one chunk per occupied lane per sweep.
Large batch requests are transparently split into
scheduler-sized :class:`Chunk`\\ s on submit, so a 10k-query batch
occupies its lane one chunk at a time instead of monopolizing the
server -- the head-of-line-blocking fix the ROADMAP asks for.

Progress is measured in *counted operations*, not wall-clock: the
scheduler keeps a monotone serial of engine queries dispatched, and
every request records the serial at submit and at first dispatch.
The difference -- how many queries from other requests ran while this
one waited -- is the scheduling delay the fairness benchmark asserts
on (wall-clock-free, per the repo's flakiness lessons).
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
    """A scheduler-sized slice of one request's queries."""

    request: Request
    queries: tuple
    offset: int
    last: bool

    @property
    def cost(self) -> int:
        """Engine queries in this chunk (must agree with Request.cost).

        A path/distance chunk carries ``(source, target)`` but is one
        engine query, not two -- counting it as two would inflate the
        dispatch serial, queue depths, and every sched_delay derived
        from them, and disagree with admission's in-flight accounting.
        """
        if self.request.kind in ("path", "distance"):
            return 1
        return len(self.queries)


def _depth(lane: deque) -> int:
    """Pending engine queries in a lane (counted, not chunks)."""
    return sum(c.cost for c in lane)


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
        return {c: _depth(lane) for c, lane in self._lanes.items() if lane}

    def pending(self) -> int:
        """Total engine queries waiting across every lane."""
        return sum(_depth(lane) for lane in self._lanes.values())

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    # ------------------------------------------------------------------
    # Submit / dispatch
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> int:
        """Enqueue a request, splitting batches; returns the chunk count."""
        lane = self._lanes.get(request.client)
        if lane is None:
            lane = self._lanes[request.client] = deque()
        queries = request.queries
        if request.kind in ("path", "distance"):
            pieces = [queries]  # (source, target) is one unit of work
        else:
            pieces = [
                queries[i : i + self.chunk_size]
                for i in range(0, len(queries), self.chunk_size)
            ]
        for i, piece in enumerate(pieces):
            lane.append(
                Chunk(
                    request=request,
                    queries=piece,
                    offset=i * self.chunk_size,
                    last=(i == len(pieces) - 1),
                )
            )
        self._submit_serial[id(request)] = self.dispatched
        return len(pieces)

    def next_chunk(self) -> Chunk | None:
        """Dispatch the next chunk round-robin, or None.

        The cursor indexes the occupied lanes and moves on after every
        chunk, so one sweep serves each waiting client one chunk.
        """
        lanes = [lane for lane in self._lanes.values() if lane]
        if not lanes:
            self._cursor = 0
            return None
        self._cursor %= len(lanes)
        chunk = lanes[self._cursor].popleft()
        self._cursor = (self._cursor + 1) % len(lanes)
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
        while True:
            chunk = self.next_chunk()
            if chunk is None:
                return
            yield chunk

    def sched_delay(self, request: Request) -> int:
        """Counted scheduling delay of a dispatched request's first chunk."""
        return self.sched_delays.get(id(request), 0)
