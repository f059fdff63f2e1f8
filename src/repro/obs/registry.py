"""The one metrics model: named, labelled counters/gauges/histograms.

Every component that counts owns a :class:`MetricsRegistry` and counts
into it when the event happens: the server (its tracer's registry:
request outcomes, latency, span timings), the
:class:`~repro.oracle.planner.QueryPlanner` (per-backend decisions) and
the :class:`~repro.shard.worker.ShardGroup` (fault events and worker
visits).  Every reading is a *sample* -- a
metric name plus a small label set (``{"stage": ..., "oracle": ...,
"event": ...}``) -- and :meth:`MetricsRegistry.snapshot` renders one
JSON-serializable dict, with the counters of any other registries
passed to it summed in by key: that merge is the reply to the serve
protocol's ``stats`` request kind.

Counters only grow, so polling never double counts, and a counter
whose event has not happened yet is absent.  Gauges are point-in-time
readings, set when polled.

This module is the bottom of the observability layer: it imports
nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterable, Sequence
from functools import lru_cache
from pathlib import Path
from typing import Any

#: Samples kept per histogram window (percentiles reflect recent load).
WINDOW = 4096

#: The QueryStats counters rendered as ``engine_ops_total`` samples.
ENGINE_OPS = (
    "refinements",
    "queue_pushes",
    "objects_seen",
    "kmindist_accepts",
    "l_ops",
    "io_accesses",
    "io_misses",
    "settled",
    "relaxed",
    "index_probes",
    "nd_computations",
    "label_scans",
)


def percentiles(values: Iterable[float], qs: Sequence[float]) -> list[float]:
    """Linear-interpolated percentiles of ``values`` from **one** sort.

    ``qs`` is a sequence of percentile points in ``[0, 100]``; the
    result is in the same order.  One call sorts once however many
    points are requested -- the p50/p95/p99 triple every snapshot
    needs costs a single ``O(n log n)`` pass instead of three.
    """
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return [0.0] * len(qs)
    n = len(ordered)
    out: list[float] = []
    for q in qs:
        if n == 1:
            out.append(float(ordered[0]))
            continue
        pos = (n - 1) * (q / 100.0)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out.append(float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac))
    return out


def process_memory(pid: int | str = "self") -> dict[str, int]:
    """The kB-valued fields of ``/proc/<pid>/status`` in bytes: ``VmRSS``
    (resident), ``VmHWM`` (its peak), ``RssAnon`` (heap), ``RssFile``
    (mapped file pages, the index among them).  Empty where there is no
    ``/proc`` or the process is gone, so callers omit the reading.
    """
    try:
        lines = Path(f"/proc/{pid}/status").read_text().splitlines()
    except OSError:
        return {}
    fields = (line.replace(":", " ").split() for line in lines)
    return {f[0]: int(f[1]) * 1024 for f in fields if len(f) == 3 and f[2] == "kB"}


@lru_cache(maxsize=1024)
def _key(name: str, items: tuple) -> tuple:
    """A sample's address from ``(name, tuple(labels.items()))``.
    Memoised: requests count into the same few label sets over and
    over, and a hit enters no Python frame."""
    return (name, tuple(sorted((str(k), str(v)) for k, v in items)))


def _summary(window: Sequence[float], count: int) -> dict:
    """A histogram's reading: lifetime count, window mean/max/p50/p95/p99."""
    p50, p95, p99 = percentiles(window, (50.0, 95.0, 99.0))
    return {
        "count": count,
        "mean": sum(window) / len(window) if window else 0.0,
        "max": max(window, default=0.0),
        "p50": p50,
        "p95": p95,
        "p99": p99,
    }


class MetricsRegistry:
    """Thread-safe bag of labelled counters, gauges and histograms.

    Every sample is addressed by ``(name, labels)``; label keys and
    values are coerced to strings so snapshots serialize cleanly.
    Histograms keep a sliding window of the most recent :data:`WINDOW`
    observations (flat memory on a long-lived server) next to an exact
    lifetime observation count.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._hists: dict[tuple, deque] = {}
        self._hist_counts: dict[tuple, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a counter sample."""
        key = _key(name, tuple(labels.items()))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_key(name, tuple(labels.items()))] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation."""
        key = _key(name, tuple(labels.items()))
        with self._lock:
            window = self._hists.get(key)
            if window is None:
                window = self._hists[key] = deque(maxlen=WINDOW)
            window.append(float(value))
            self._hist_counts[key] = self._hist_counts.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_key(name, tuple(labels.items())), 0)

    def histogram(self, name: str, **labels: Any) -> dict:
        """One histogram's reading, as :meth:`snapshot` renders it
        (zeros before its first observation)."""
        key = _key(name, tuple(labels.items()))
        with self._lock:
            return _summary(list(self._hists.get(key, ())), self._hist_counts.get(key, 0))

    def snapshot(self, *others: MetricsRegistry) -> dict:
        """One JSON-serializable reading of every sample, sorted stably.

        The counters of ``others`` are summed in by key; their gauges
        and histograms are listed alongside.
        """
        counters: dict[tuple, float] = {}
        gauges: dict[tuple, float] = {}
        hists: dict[tuple, tuple[list, int]] = {}
        for registry in (self, *others):
            with registry._lock:
                for key, value in registry._counters.items():
                    counters[key] = counters.get(key, 0) + value
                gauges.update(registry._gauges)
                for key, window in registry._hists.items():
                    hists[key] = (list(window), registry._hist_counts[key])
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(gauges.items())
            ],
            "histograms": [
                {"name": name, "labels": dict(labels), **_summary(*hists[name, labels])}
                for name, labels in sorted(hists)
            ],
        }
