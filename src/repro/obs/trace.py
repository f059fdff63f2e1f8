"""Per-request traces of timed, counter-annotated spans.

One :class:`Trace` follows one request through the serving pipeline;
each stage opens a :class:`Span` (``admission``, ``sched_wait``,
``execute``, ``plan``, ``oracle:<backend>``, ``shard:<id>``,
``worker``) that records wall-clock start/end plus the counted
operations of the work it wraps (the same
:class:`~repro.query.stats.QueryStats` units every benchmark figure is
plotted in).  Spans form a tree via parent ids, so a finished trace
shows exactly where a request's latency went: queueing vs planning vs
oracle work vs the shard worker's round trip.

Two invariants the serving layer asserts on:

* **Zero overhead when off.**  The default tracer is
  :class:`NullTracer` (``enabled`` False): the server then makes no
  tracing call for a request and hands the engine ``trace=None``,
  which runs span-free.  Code that traces unconditionally (the shard
  tier) gets the shared :data:`NULL_TRACE`, whose every method is a
  no-op returning the shared :data:`NULL_SPAN`.
* **Tracing never changes answers.**  Spans only *observe*; no query
  code path reads trace state.  The test suite runs identical
  workloads traced and untraced and asserts counted-op and answer
  parity.

Cross-process propagation: shard workers run their own local
:class:`Tracer`, serialize the resulting spans with
:meth:`Trace.spans_absolute`, and ship them back over the pipe; the
router re-parents them under its ``shard:<id>`` span with
:meth:`Trace.adopt`, so one trace covers both sides of the scatter
(``time.perf_counter`` is system-wide on the supported platforms, so
worker timestamps land on the parent's axis).
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter

from repro.obs.registry import MetricsRegistry

#: QueryStats counters copied onto spans (only non-zero ones, to keep
#: trace records small).
STAT_COUNTERS = (
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

#: Span labels carried into the registry's span_seconds histograms
#: (a bounded set, so label cardinality stays sane).
_HISTOGRAM_LABELS = ("oracle", "shard")


class Span:
    """One timed, counted stage of a trace.

    Usable as a context manager (``with trace.span("plan") as sp:``)
    for stack-parented spans, or held open explicitly via
    :meth:`Trace.begin` / :meth:`close` for spans that outlive one
    code block (``sched_wait``).  Counters and labels may be added
    even after close -- serialization happens at trace finish.
    """

    __slots__ = ("sid", "parent", "name", "start", "end", "counters", "labels", "_trace")

    def __init__(self, trace, sid, parent, name, start, labels) -> None:
        self._trace = trace
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.counters: dict = {}
        self.labels: dict = labels

    def __enter__(self) -> Span:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.labels["error"] = exc_type.__name__
        self._trace._close(self)
        return False

    def close(self) -> None:
        """End an explicitly-opened span (see :meth:`Trace.begin`)."""
        self._trace._close(self)

    def count(self, **counters) -> None:
        """Add counted operations to this span."""
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def add_stats(self, stats) -> None:
        """Copy the non-zero :class:`QueryStats` counters onto the span."""
        for name in STAT_COUNTERS:
            value = getattr(stats, name, 0)
            if value:
                self.counters[name] = self.counters.get(name, 0) + value

    def annotate(self, **labels) -> None:
        for key, value in labels.items():
            self.labels[key] = str(value)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self, t0: float) -> dict:
        """Wire form with times relative to the trace start (seconds)."""
        start = max(0.0, self.start - t0)
        end = max(start, (self.end if self.end is not None else self.start) - t0)
        record = {
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start": round(start, 6),
            "end": round(end, 6),
        }
        if self.counters:
            record["counters"] = dict(self.counters)
        if self.labels:
            record["labels"] = dict(self.labels)
        return record


class Trace:
    """One request's span tree, from admission to response.

    A trace is touched by one logical thread at a time (the serving
    pipeline executes a request's chunks strictly sequentially), so
    span bookkeeping needs no lock; the :class:`Tracer` locks where
    traces converge (registry, sink).
    """

    enabled = True

    def __init__(self, tracer: Tracer, trace_id: str, labels: dict) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.labels = labels
        self.clock = tracer.clock
        self.t_start = self.clock()
        self.t_end: float | None = None
        self.status = "open"
        self.sealed = False
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._sids = itertools.count(0)
        root = Span(
            self, next(self._sids), None, "request", self.t_start, {}
        )
        self.spans.append(root)
        self._stack.append(root)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **labels) -> Span:
        """Open a stack-parented span; use as a context manager."""
        parent = self._stack[-1].sid if self._stack else None
        span = Span(
            self, next(self._sids), parent, name, self.clock(),
            {k: str(v) for k, v in labels.items()},
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def begin(self, name: str, **labels) -> Span:
        """Open a span *outside* the stack; close it with ``.close()``.

        For stages that outlive one code block -- ``sched_wait`` opens
        at submit and closes at first dispatch, while other spans open
        and close in between.
        """
        parent = self._stack[0].sid if self._stack else None
        span = Span(
            self, next(self._sids), parent, name, self.clock(),
            {k: str(v) for k, v in labels.items()},
        )
        self.spans.append(span)
        return span

    def prepend(self, name: str, start: float) -> None:
        """Record a stage that ran from ``start``, before this trace was
        started, until now (``read``: the request's line came in then),
        and move the trace's start back to it."""
        span = Span(self, next(self._sids), self.spans[0].sid, name, start, {})
        span.end = self.clock()
        self.spans.append(span)
        self.t_start = self.spans[0].start = min(start, self.t_start)

    def _close(self, span: Span) -> None:
        if span.end is None:
            span.end = self.clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def adopt(self, span_dicts, parent: Span) -> None:
        """Graft spans from another process under ``parent``.

        ``span_dicts`` is another trace's :meth:`spans_absolute`
        output; sids are re-issued locally and the foreign root is
        re-parented onto ``parent``, so worker-side spans rejoin the
        request's tree.
        """
        mapping = {d["sid"]: next(self._sids) for d in span_dicts}
        for d in span_dicts:
            foreign_parent = d.get("parent")
            parent_sid = mapping.get(foreign_parent, parent.sid)
            span = Span(
                self, mapping[d["sid"]], parent_sid, d["name"], d["start"],
                dict(d.get("labels") or {}),
            )
            span.end = d["end"]
            span.counters.update(d.get("counters") or {})
            self.spans.append(span)

    # ------------------------------------------------------------------
    # Lifecycle / serialization
    # ------------------------------------------------------------------
    def end(self, status: str = "ok") -> None:
        """End the request (the root span) now, with ``status``
        (idempotent); spans still open run on until :meth:`finish`."""
        if self.t_end is None:
            self.t_end = self.spans[0].end = self.clock()
            self.status = status

    def finish(self, status: str = "ok") -> None:
        """Seal the trace (idempotent) and hand it to the tracer; ends
        the request first unless :meth:`end` already did."""
        if self.sealed:
            return
        if self.t_end is None:
            self.end(status)
            now = self.t_end
        else:
            now = self.clock()
        for span in self.spans:
            if span.end is None:
                span.end = now
        self._stack.clear()
        self.sealed = True
        self.tracer._finished(self)

    @property
    def duration(self) -> float:
        return (self.t_end if self.t_end is not None else self.clock()) - self.t_start

    def to_dict(self) -> dict:
        """One JSON-lines trace record (times relative to trace start)."""
        record = {"trace": self.trace_id}
        record.update(self.labels)
        record["status"] = self.status
        record["duration"] = round(self.duration, 6)
        record["spans"] = [s.to_dict(self.t_start) for s in self.spans]
        return record

    def spans_absolute(self) -> list[dict]:
        """Span dicts with *absolute* clock times, for :meth:`adopt`."""
        out = []
        for s in self.spans:
            d = {
                "sid": s.sid,
                "parent": s.parent,
                "name": s.name,
                "start": s.start,
                "end": s.end if s.end is not None else s.start,
            }
            if s.counters:
                d["counters"] = dict(s.counters)
            if s.labels:
                d["labels"] = dict(s.labels)
            out.append(d)
        return out


class Tracer:
    """Factory and terminus of traces; owns the registry and the sinks.

    Parameters
    ----------
    sink:
        Anything with ``write(record: dict)`` -- normally a
        :class:`~repro.obs.sinks.JsonlTraceSink`; every finished trace
        is written to it.
    slow_log:
        A :class:`~repro.obs.sinks.SlowQueryLog`; finished traces are
        offered to it and captured when over its latency threshold.
    registry:
        The :class:`MetricsRegistry` span timings and counted ops are
        fed into (one is created when omitted).
    clock:
        Time source (injectable for tests; defaults to
        :func:`time.perf_counter`, which shard workers also use, so
        cross-process spans share an axis).
    """

    enabled = True

    def __init__(
        self,
        sink=None,
        slow_log=None,
        registry: MetricsRegistry | None = None,
        clock=perf_counter,
    ) -> None:
        self.sink = sink
        self.slow_log = slow_log
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock
        self.finished = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def start_trace(self, **labels) -> Trace:
        trace_id = f"t-{next(self._ids)}"
        return Trace(self, trace_id, {k: v for k, v in labels.items()})

    def trace_request(self, request) -> Trace:
        """Start a trace labelled with a serve request's identity."""
        return self.start_trace(
            id=request.id, client=request.client, kind=request.kind
        )

    def _finished(self, trace: Trace) -> None:
        reg = self.registry
        reg.inc("traces_total", 1, status=trace.status)
        reg.observe("request_seconds", trace.duration, stage="request")
        for span in trace.spans:
            if span.sid == 0:
                continue  # the root span duplicates request_seconds
            stage = span.name.split(":", 1)[0]
            labels = {
                k: v for k, v in span.labels.items() if k in _HISTOGRAM_LABELS
            }
            reg.observe("span_seconds", span.duration, stage=stage, **labels)
            for op, value in span.counters.items():
                reg.inc("span_ops_total", value, stage=stage, op=op)
        record = None
        if self.sink is not None or self.slow_log is not None:
            record = trace.to_dict()
        if self.sink is not None:
            self.sink.write(record)
        if self.slow_log is not None:
            self.slow_log.offer(record)
        with self._lock:
            self.finished += 1


# ----------------------------------------------------------------------
# The zero-overhead default: every operation is a shared no-op
# ----------------------------------------------------------------------

class NullSpan:
    """The do-nothing span; one shared instance serves every call site."""

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def close(self) -> None:
        pass

    def count(self, **counters) -> None:
        pass

    def add_stats(self, stats) -> None:
        pass

    def annotate(self, **labels) -> None:
        pass


NULL_SPAN = NullSpan()


class NullTrace:
    """The do-nothing trace handed out when tracing is off."""

    enabled = False

    __slots__ = ()

    def span(self, name, **labels) -> NullSpan:
        return NULL_SPAN

    def begin(self, name, **labels) -> NullSpan:
        return NULL_SPAN

    def adopt(self, span_dicts, parent) -> None:
        pass

    def finish(self, status: str = "ok") -> None:
        pass


NULL_TRACE = NullTrace()


class NullTracer:
    """Default tracer: no traces, but still a live registry.

    The ``stats`` request kind returns the registry snapshot whether or
    not tracing is on, so the null tracer owns the registry the server
    counts its requests into; it just never receives span-sourced
    samples.
    """

    enabled = False

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = None
        self.slow_log = None
        self.finished = 0

    def start_trace(self, **labels) -> NullTrace:
        return NULL_TRACE

    def trace_request(self, request) -> NullTrace:
        return NULL_TRACE
