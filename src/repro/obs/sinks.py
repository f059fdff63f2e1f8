"""Trace sinks: where finished traces go.

Two destinations, composable:

* :class:`JsonlTraceSink` -- append every finished trace as one JSON
  line (the ``repro serve --trace-file`` target and the input format
  of ``repro trace-report``);
* :class:`SlowQueryLog` -- tee the *full span trees* of the requests
  over a latency line to their own JSON-lines file (``repro serve
  --slow-log``), so a latency spike leaves behind exactly the traces
  an operator needs to triage it.
"""

from __future__ import annotations

import json
import threading


class JsonlTraceSink:
    """Append trace records to a path or stream as JSON lines.

    Writes are serialized under a lock and flushed per record, so a
    reader tailing the file (or a test reading it after the server
    stops) always sees whole lines.
    """

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._stream = target
            self._owns = False
        else:
            # Held for the sink's lifetime; closed by close().
            self._stream = open(target, "a", encoding="utf-8")  # noqa: SIM115
            self._owns = True
        self._lock = threading.Lock()
        self.written = 0

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._owns:
                self._stream.close()

    def __enter__(self) -> JsonlTraceSink:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SlowQueryLog:
    """The trace records that crossed a latency line.

    ``offer`` is called with every finished trace record; records whose
    ``duration`` is at or over ``threshold`` seconds are written
    through to ``sink`` when one is attached.  ``captured`` counts
    every crossing, so the registry can expose slow-query volume.
    """

    def __init__(self, threshold: float, sink=None) -> None:
        if not threshold >= 0:  # NaN fails too
            raise ValueError("threshold must be non-negative seconds")
        self.threshold = threshold
        self.sink = sink
        self.captured = 0
        self._lock = threading.Lock()

    def offer(self, record: dict) -> bool:
        """Consider one finished trace; return True when captured."""
        if record.get("duration", 0.0) < self.threshold:
            return False
        with self._lock:
            self.captured += 1
        if self.sink is not None:
            self.sink.write(record)
        return True
