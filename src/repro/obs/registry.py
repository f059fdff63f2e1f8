"""A unified metrics registry: named, labelled counters/gauges/histograms.

The serving stack accumulates telemetry in several purpose-built
accumulators -- :class:`~repro.serve.metrics.ServerMetrics` (latency
windows + outcome counters), :class:`~repro.oracle.planner.PlannerStats`
(per-backend decisions), :class:`~repro.shard.router.RouterStats`
(shard prune accounting) and
:class:`~repro.shard.supervisor.SupervisorStats` (fault events).
:class:`MetricsRegistry` is the single pane of glass over all
of them: every reading becomes a *sample* -- a metric name plus a
small label set (``{"stage": ..., "oracle": ..., "shard": ...}``) --
and :meth:`MetricsRegistry.snapshot` renders one JSON-serializable
dict the serve protocol can ship over the wire (the ``stats`` request
kind).

Two feeding styles, deliberately distinct:

* ``inc``/``observe`` -- event-sourced metrics (the
  :class:`~repro.obs.trace.Tracer` feeds span timings and counted ops
  as traces finish);
* ``set_counter``/``set_gauge`` -- *absolute* assignment, used by the
  ``absorb_*`` methods to mirror the existing accumulators.  Those
  accumulators are themselves cumulative, so assignment keeps
  repeated absorption idempotent (a ``stats`` request may poll the
  registry any number of times without double counting).

This module is the bottom of the observability layer: it imports
nothing from :mod:`repro.serve` (which imports *it*), and the
``absorb_*`` methods are duck-typed for the same reason.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

#: Samples kept per histogram window (percentiles reflect recent load).
DEFAULT_WINDOW = 4096

#: The QueryStats counters mirrored into ``engine_ops_total`` samples.
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


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class MetricsRegistry:
    """Thread-safe bag of labelled counters, gauges and histograms.

    Every sample is addressed by ``(name, labels)``; label keys and
    values are coerced to strings so snapshots serialize cleanly.
    Histograms keep a sliding window of the most recent ``window``
    observations (flat memory on a long-lived server) next to an exact
    lifetime observation count.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be at least 1 sample")
        self.window = window
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._hists: dict[tuple, deque] = {}
        self._hist_counts: dict[tuple, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a counter sample (event-sourced feeding)."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_counter(self, name: str, value: float, **labels: Any) -> None:
        """Assign a counter sample absolutely (idempotent absorption)."""
        with self._lock:
            self._counters[_key(name, labels)] = value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation."""
        key = _key(name, labels)
        with self._lock:
            window = self._hists.get(key)
            if window is None:
                window = deque(maxlen=self.window)
                self._hists[key] = window
            window.append(float(value))
            self._hist_counts[key] = self._hist_counts.get(key, 0) + 1

    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0)

    # ------------------------------------------------------------------
    # Absorption of the purpose-built accumulators (duck-typed, so the
    # registry never imports the layers that import it)
    # ------------------------------------------------------------------
    def absorb_server(self, snapshot: Any) -> None:
        """Mirror a :class:`~repro.serve.metrics.MetricsSnapshot`."""
        for outcome, value in (
            ("completed", snapshot.served),
            ("shed", snapshot.shed),
            ("expired", snapshot.expired),
            ("failed", snapshot.failed),
        ):
            self.set_counter(
                "requests_total", value, stage="serve", outcome=outcome
            )
        self.set_gauge("in_flight", snapshot.in_flight, stage="serve")
        for quantile, value in (
            ("p50", snapshot.p50), ("p95", snapshot.p95), ("p99", snapshot.p99)
        ):
            self.set_gauge(
                "latency_seconds", value, stage="serve", quantile=quantile
            )
        for client, depth in snapshot.queue_depths.items():
            self.set_gauge("queue_depth", depth, stage="sched", client=client)
        for op in ENGINE_OPS:
            value = getattr(snapshot.stats, op, 0)
            if value:
                self.set_counter(
                    "engine_ops_total", value, stage="engine", op=op
                )
        for event, value in (
            ("deadline_abort", snapshot.deadline_aborts),
            ("degraded_response", snapshot.degraded),
        ):
            self.set_counter(
                "fault_events_total", value, stage="serve", event=event
            )

    def absorb_planner(self, stats: Any) -> None:
        """Mirror a :class:`~repro.oracle.planner.PlannerStats`."""
        for backend, value in stats.decisions.items():
            self.set_counter(
                "planner_decisions_total", value, stage="plan", oracle=backend
            )
        self.set_counter("planner_forced_total", stats.forced, stage="plan")
        self.set_counter(
            "planner_calibrations_total", stats.calibrations, stage="plan"
        )
        self.set_counter(
            "planner_calibration_queries_total",
            stats.calibration_queries,
            stage="plan",
        )

    def absorb_router(self, stats: Any) -> None:
        """Mirror a :class:`~repro.shard.router.RouterStats`."""
        self.set_counter("router_queries_total", stats.queries, stage="route")
        for event, value in (
            ("visited", stats.shards_visited),
            ("pruned_euclid", stats.shards_pruned_euclid),
            ("pruned_lambda", stats.shards_pruned_lambda),
        ):
            self.set_counter(
                "router_shards_total", value, stage="route", event=event
            )
        self.set_counter(
            "router_bound_probes_total", stats.bound_probes, stage="route"
        )
        self.set_counter(
            "router_candidates_total", stats.candidates, stage="route"
        )
        self.set_counter(
            "router_duplicates_merged_total",
            stats.duplicates_merged,
            stage="route",
        )

    def absorb_supervisor(self, stats: Any) -> None:
        """Mirror a :class:`~repro.shard.supervisor.SupervisorStats`.

        Every fault event lands in one ``fault_events_total`` family
        (labelled by event), so a dashboard -- or the chaos benchmark
        -- reads the whole recovery story from one counter name.
        """
        for event, value in (
            ("worker_crash", stats.worker_crashes),
            ("respawn", stats.respawns),
            ("respawn_failure", stats.respawn_failures),
            ("retry", stats.retries),
            ("failover", stats.failovers),
            ("degraded_response", stats.degraded_responses),
        ):
            self.set_counter(
                "fault_events_total", value, stage="shard", event=event
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-serializable reading of every sample, sorted stably."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            histograms = []
            for key in sorted(self._hists):
                name, labels = key
                window = list(self._hists[key])
                p50, p95, p99 = percentiles(window, (50.0, 95.0, 99.0))
                histograms.append(
                    {
                        "name": name,
                        "labels": dict(labels),
                        "count": self._hist_counts[key],
                        "mean": sum(window) / len(window),
                        "max": max(window),
                        "p50": p50,
                        "p95": p95,
                        "p99": p99,
                    }
                )
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
