"""Deterministic fault injection for chaos testing the serving tier.

Fault-tolerance code is only trustworthy when its failure paths run on
every CI push, not just in outages.  :class:`FaultInjector` makes the
three failures the stack defends against *reproducible*:

* **Worker crashes** -- :meth:`kill_worker_at` hard-kills a shard
  worker process immediately before its Nth request is sent, so the
  shard group's crash-detection/respawn/replay path is exercised at a
  deterministic point of the workload;
* **Slow pipes** -- a delay set per shard in :attr:`_delay` sleeps
  before each request to that shard, simulating a slow host without
  changing any answer (the tests' ``delay_pipe`` sets it);
* **Corrupt files** -- :func:`truncate_file` / :func:`corrupt_file`
  damage persisted index columns the way a crashed save or a bad disk
  would, driving the :class:`~repro.errors.CorruptIndexError`
  verification path.

The injector hooks the *parent* side of the worker pipe (the
:class:`~repro.shard.worker.ShardGroup` calls :meth:`before_request`
right before a worker's request), so no fault code ships into worker
processes and the kill point is exact: the request counter is the
group's own send order.  Every injected
fault is appended to :attr:`events` for assertions.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path


class FaultInjector:
    """Scripted, deterministic faults against the shard tier.

    Thread-safe: concurrent callers of a shard group drive many shards
    at once; per-shard request counters and the event log are guarded
    by one lock (sleeps happen outside it).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: shard -> set of 1-based request ordinals to kill at.
        self._kill_at: dict[int, set[int]] = {}
        #: shard -> seconds of added latency per request.
        self._delay: dict[int, float] = {}
        #: shard -> requests seen so far.
        self.request_counts: dict[int, int] = {}
        #: Chronological ``(event, shard, detail)`` log of fired faults.
        self.events: list[tuple[str, int, object]] = []

    # ------------------------------------------------------------------
    # Scripting
    # ------------------------------------------------------------------
    def kill_worker_at(self, shard: int, nth_request: int) -> FaultInjector:
        """Kill ``shard``'s worker right before its Nth request (1-based).

        The ordinal counts *sends to that shard*, including replays
        after a respawn -- so ``kill_worker_at(0, 3)`` fires exactly
        once, on the third message the shard group tries to deliver.
        Returns ``self`` for chaining.
        """
        if nth_request < 1:
            raise ValueError("nth_request is 1-based and must be >= 1")
        with self._lock:
            self._kill_at.setdefault(shard, set()).add(nth_request)
        return self

    # ------------------------------------------------------------------
    # Hook (called by the shard group before each pipe send)
    # ------------------------------------------------------------------
    def before_request(self, shard: int, worker) -> None:
        """Fire any fault scheduled for this shard's next request.

        ``worker`` is the parent-side handle; a scheduled kill uses its
        :meth:`~repro.shard.worker.ShardWorker.kill` so the process is
        dead (not merely asked to stop) before the request goes out --
        the send/receive then fails exactly as a real mid-request crash
        does.
        """
        with self._lock:
            n = self.request_counts.get(shard, 0) + 1
            self.request_counts[shard] = n
            kill = n in self._kill_at.get(shard, ())
            if kill:
                self._kill_at[shard].discard(n)
            delay = self._delay.get(shard, 0.0)
        if delay:
            time.sleep(delay)
            with self._lock:
                self.events.append(("pipe_delay", shard, delay))
        if kill:
            worker.kill()
            with self._lock:
                self.events.append(("worker_kill", shard, n))

    def fired(self, event: str) -> int:
        """How many logged events of the given type have fired."""
        with self._lock:
            return sum(1 for e, _, _ in self.events if e == event)


# ----------------------------------------------------------------------
# File-level faults (crash-safe persistence tests)
# ----------------------------------------------------------------------

def truncate_file(path: str | Path, keep_bytes: int | None = None) -> int:
    """Truncate a file the way an interrupted write would.

    Keeps the first ``keep_bytes`` bytes (default: half the file, so
    the numpy header usually survives and only the data is short --
    the nastiest real-world shape).  Returns the new size.
    """
    path = Path(path)
    size = path.stat().st_size
    if keep_bytes is None:
        keep_bytes = size // 2
    if not 0 <= keep_bytes <= size:
        raise ValueError(f"keep_bytes must be within [0, {size}]")
    with open(path, "r+b") as handle:
        handle.truncate(keep_bytes)
    return keep_bytes


def corrupt_file(path: str | Path, offset: int = -1, flip: int = 0xFF) -> None:
    """XOR one byte of a file in place (size-preserving corruption).

    ``offset`` indexes from the end when negative (the default hits
    the last byte -- past the numpy header, inside the data).  Size
    checks cannot catch this; the checksum every load verifies does.
    """
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        raise ValueError(f"cannot corrupt empty file {path}")
    if offset < 0:
        offset += size
    if not 0 <= offset < size:
        raise ValueError(f"offset out of range for {size}-byte file")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ flip]))
