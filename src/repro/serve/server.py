"""The serving front end: admission -> fair scheduling -> execution.

:class:`SILCServer` is the asyncio orchestrator that turns the
synchronous :class:`~repro.engine.QueryEngine` into a service.  A
request submitted with :meth:`SILCServer.submit` flows through

1. the :class:`~repro.serve.admission.AdmissionController` -- over the
   in-flight cap or the client's token bucket it is *shed now* with
   :class:`~repro.serve.protocol.Rejected` (bounded queues, explicit
   backpressure);
2. the :class:`~repro.serve.scheduler.FairScheduler` -- batches are
   split into chunks and lanes are served round-robin, so a
   bulk client cannot starve interactive ones;
3. the pump, which takes chunks in fair order while none is in
   flight, honours per-request deadlines
   (:class:`~repro.serve.protocol.Expired`), and runs each on the
   :class:`~repro.serve.engine.AsyncEngine`, which settles it inline.

All of it is plain callbacks on the loop thread (no task, no thread):
:meth:`SILCServer.submit_nowait` takes the callback the response is
handed to once every chunk of the request has run (or it was
shed/expired/failed), and ``await server.submit(request)`` is a future
over that same path.  :func:`serve_jsonl`, the JSON-lines loop behind
``repro serve``, reads its input on the loop thread and pumps at the end
of each read: a closed-loop request is read, run and answered in one
loop turn, and a ``stats`` line waits for at most the running chunk.
"""

from __future__ import annotations

import asyncio
import codecs
import json
import os
import stat
import time
from dataclasses import dataclass, field, replace
from collections.abc import Callable
from functools import partial
from typing import BinaryIO, TextIO

from repro.errors import DeadlineExceeded
from repro.obs.registry import ENGINE_OPS, MetricsRegistry, process_memory
from repro.obs.trace import NullTracer
from repro.query.stats import QueryStats
from repro.serve.admission import AdmissionController
from repro.serve.engine import AsyncEngine
from repro.serve.protocol import (
    Completed,
    Expired,
    Failed,
    Rejected,
    Request,
    Response,
    request_from_dict,
    response_to_dict,
)
from repro.serve.scheduler import Chunk, FairScheduler


@dataclass
class _Pending:
    """Per-request assembly state while its chunks move through."""

    request: Request
    submitted: float
    deliver: Callable[[Response], None]  # called once, on the loop thread
    done: bool = False  # set by _finish, whatever ended the request
    ids: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    # Tracing state (no-op objects when tracing is off).
    trace: object = None
    wait_span: object = None


@dataclass(frozen=True)
class MetricsSnapshot:
    """The server's typed reading of its registry (:meth:`SILCServer.snapshot`).

    ``deadline_aborts`` counts the subset of ``expired`` whose budget
    ran out *mid-execution* (the engine's time cap stopped the
    search).
    """

    served: int
    shed: int
    expired: int
    failed: int
    p50: float
    p95: float
    p99: float
    queue_depths: dict[str, int]
    in_flight: int
    stats: QueryStats
    deadline_aborts: int = 0

    def format(self) -> str:
        lines = [
            f"served {self.served}  shed {self.shed}  expired {self.expired}  "
            f"(aborted {self.deadline_aborts})  failed {self.failed}  "
            f"in-flight {self.in_flight}",
            f"latency p50 {self.p50 * 1e3:.2f} ms  p95 {self.p95 * 1e3:.2f} ms  "
            f"p99 {self.p99 * 1e3:.2f} ms",
            f"engine work: {self.stats.refinements} refinements, "
            f"{self.stats.io_misses} page faults",
        ]
        if self.queue_depths:
            depths = "  ".join(f"{c}={d}" for c, d in sorted(self.queue_depths.items()))
            lines.append(f"queue depth: {depths}")
        return "\n".join(lines)


class SILCServer:
    """Fairly scheduled, admission-controlled serving of one engine.

    Parameters
    ----------
    engine:
        The :class:`AsyncEngine` queries execute on.
    scheduler / admission:
        Injectable policy objects; defaults are a chunk-32 fair
        scheduler and a 1024-query in-flight cap with no per-client
        rate limit.
    tracer:
        A :class:`~repro.obs.trace.Tracer` to produce per-request span
        traces; the default :class:`~repro.obs.trace.NullTracer` makes
        every tracing call a no-op.  Either way the server counts its
        requests into the tracer's registry as they end.
    clock:
        Time source for deadlines and latency (injectable for tests).
    """

    def __init__(
        self,
        engine: AsyncEngine,
        scheduler: FairScheduler | None = None,
        admission: AdmissionController | None = None,
        tracer=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler if scheduler is not None else FairScheduler()
        self.admission = admission if admission is not None else AdmissionController()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.clock = clock
        # Counted engine work of every completed request, rendered as
        # ``engine_ops_total`` only when polled: counting it per event
        # would take a dozen locked increments per request.
        self._ops = QueryStats()
        # None while stopped; else clear while a pump is due or a chunk
        # is in flight.  Everything that touches the scheduler runs on
        # the loop thread, so there is no lock to take.
        self._idle: asyncio.Event | None = None
        # id(request) -> _Pending, for chunks to find their assembly state.
        self._pending_by_request: dict = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._idle is not None:
            raise RuntimeError("server already started")
        self._idle = asyncio.Event()
        self._idle.set()

    async def stop(self) -> None:
        """Wait until every admitted request is answered, then stop."""
        if self._idle is not None:
            while not self._idle.is_set():
                await self._idle.wait()
            self._idle = None

    async def __aenter__(self) -> SILCServer:
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_nowait(
        self, request: Request, deliver: Callable[[Response], None]
    ) -> _Pending | None:
        """Run one request through the full pipeline (loop thread only).

        ``deliver(response)`` is called exactly once: before this
        returns for ``stats`` and shed requests, otherwise when the
        last chunk has run or the request expired or failed.  What
        comes back then is what ``_finish(pending, None)`` abandons.
        """
        if self._idle is None:
            raise RuntimeError("server not started (use `async with server:`)")
        if request.kind == "stats":
            # Monitoring must answer even (especially) when the server
            # is saturated: bypass admission and scheduling entirely.
            metrics = {"metrics": self.registry_snapshot()}
            deliver(Completed(id=request.id, client=request.client, result=metrics))
            return None
        trace = self.tracer.trace_request(request)
        with trace.span("admission"):
            admitted, retry_after, reason = self.admission.admit(request)
        if not admitted:
            self._count("shed")
            trace.finish("rejected")
            deliver(Rejected(request.id, request.client, retry_after=retry_after, reason=reason))
            return None
        pending = _Pending(
            request, self.clock(), deliver, trace=trace, wait_span=trace.begin("sched_wait")
        )
        self.scheduler.submit(request)
        self._pending_by_request[id(request)] = pending
        if self._idle.is_set():
            # A turn later: what arrives together (gathered submits) is
            # all queued before the scheduler picks among it.
            self._idle.clear()
            asyncio.get_running_loop().call_soon(self._pump)
        return pending

    async def submit(self, request: Request) -> Response:
        """:meth:`submit_nowait` for a caller that awaits the response."""
        future = asyncio.get_running_loop().create_future()
        pending = self.submit_nowait(
            request, lambda response: future.done() or future.set_result(response)
        )
        try:
            return await future
        finally:
            if pending is not None:
                # A no-op once answered; else the caller was cancelled:
                # return the admission budget here (the pump drops the
                # queued chunks once it sees the pending entry gone).
                self._finish(pending, None)

    def snapshot(self) -> MetricsSnapshot:
        """The server's typed reading of its registry."""
        registry = self.tracer.registry
        served, shed, expired, failed = (
            int(registry.counter_value("requests_total", stage="serve", outcome=outcome))
            for outcome in ("completed", "shed", "expired", "failed")
        )
        latency = registry.histogram("latency_seconds", stage="serve")
        return MetricsSnapshot(
            served=served,
            shed=shed,
            expired=expired,
            failed=failed,
            p50=latency["p50"],
            p95=latency["p95"],
            p99=latency["p99"],
            queue_depths=self.scheduler.depths(),
            in_flight=self.admission.in_flight,
            stats=replace(self._ops),  # the server keeps counting
            deadline_aborts=int(registry.counter_value(
                "fault_events_total", stage="serve", event="deadline_abort"
            )),
        )

    def registry_snapshot(self) -> dict:
        """The ``stats`` reply: one merge of every registry in reach.

        Counters are summed by key across the server's registry
        (request outcomes, latency, traced spans), the planner's (when
        a planner exists) and the shard group's (fault events and
        worker visits, when sharded), plus the engine work of every
        completed request as ``engine_ops_total``.  Gauges are set at
        poll time: in-flight work, queue depths, the index's column
        bytes and, read from ``/proc``, the resident set and its peak
        of the server and of each shard worker's current pid.
        """
        registry = self.tracer.registry
        registry.set_gauge("in_flight", self.admission.in_flight, stage="serve")
        for client, depth in self.scheduler.depths().items():
            registry.set_gauge("queue_depth", depth, stage="sched", client=client)
        registry.set_gauge(
            "index_mapped_bytes", self.engine.engine.index.store.nbytes(), stage="serve"
        )
        ops = MetricsRegistry()
        for op in ENGINE_OPS:
            value = getattr(self._ops, op, 0)
            if value:
                ops.inc("engine_ops_total", value, stage="engine", op=op)
        others = [ops]
        processes = {"server": os.getpid()}
        planner = getattr(self.engine.engine, "planner", None)
        if planner is not None:
            others.append(planner.registry)
        shard_group = getattr(self.engine, "shard_group", None)
        if shard_group is not None:
            others.append(shard_group.registry)
            for shard, worker in shard_group.workers.items():
                processes[f"shard-{shard}"] = worker.process.pid
        for process, pid in processes.items():
            memory = process_memory(pid)
            if "VmRSS" in memory:  # not without /proc, nor for a dead worker
                registry.set_gauge("process_rss_bytes", memory["VmRSS"], process=process)
                registry.set_gauge("process_peak_rss_bytes", memory["VmHWM"], process=process)
        slow_log = getattr(self.tracer, "slow_log", None)
        if slow_log is not None:
            registry.set_gauge("slow_queries_captured", slow_log.captured, stage="serve")
        return registry.snapshot(*others)

    def _count(self, outcome: str) -> None:
        self.tracer.registry.inc("requests_total", stage="serve", outcome=outcome)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Start the next chunk that still has a request to serve.

        Runs at the end of a read, a turn after a submission that found
        the server idle, and a turn after a chunk completion that left
        chunks queued; one chunk is in flight at a time.  A loop, not
        recursion: chunks of expired, cancelled and failed requests are
        passed over without a hand-off.
        """
        while (chunk := self.scheduler.next_chunk()) is not None:
            request = chunk.request
            pending = self._pending_by_request.get(id(request))
            if pending is None:
                # Request already expired/failed/cancelled: drop its tail,
                # and with the final chunk drop its delay record too (it
                # was written at first dispatch and has no reader left).
                if chunk.last:
                    self.scheduler.sched_delays.pop(id(request), None)
                continue
            waited = self.clock() - pending.submitted
            if pending.wait_span is not None:
                # First dispatch of this request: the queueing stage ends
                # here (later chunks of a batch re-enter the scheduler but
                # the fairness contract is counted, not timed).
                pending.wait_span.count(sched_delay=self.scheduler.sched_delay(request))
                pending.wait_span.close()
                pending.wait_span = None
            if request.deadline is not None and waited > request.deadline:
                self._finish(pending, Expired(request.id, request.client, waited=waited))
                self._count("expired")
                continue
            # What is left of the deadline after queueing becomes the
            # execution-time cap: it rides through AsyncEngine into the
            # engine/router/worker search loops, so a request that expires
            # mid-execution is aborted instead of finishing late.
            budget = None if request.deadline is None else request.deadline - waited
            # Open across the hand-off, so the spans the query opens
            # parent under it; _settle closes it.
            span = pending.trace.span("execute", kind=request.kind)
            done = partial(self._settle, pending, chunk, span)
            try:
                if request.kind == "path":
                    self.engine.route(*chunk.queries, done=done)
                elif request.kind == "distance":
                    self.engine.distance(*chunk.queries, done=done)
                elif request.kind == "knn":
                    self.engine.knn(
                        chunk.queries[0], request.k, variant=request.variant, exact=request.exact,
                        oracle=request.oracle, trace=pending.trace, time_cap=budget, done=done,
                    )
                elif request.kind == "knn_batch":
                    self.engine.knn_batch(
                        chunk.queries, request.k, variant=request.variant, exact=request.exact,
                        oracle=request.oracle, trace=pending.trace, time_cap=budget, done=done,
                    )
                else:
                    # Request validation keeps kind within KINDS; a
                    # kind added there without an arm here fails loudly
                    # (and repro check RPR002 catches it statically).
                    raise ValueError(f"unhandled request kind {request.kind!r}")
            except Exception as exc:  # noqa: BLE001 - raised before the hand-off: Failed
                done(None, exc)
            return
        self._idle.set()

    def _settle(self, pending: _Pending, chunk: Chunk, span, value, exc) -> None:
        """The engine's ``done``: the chunk in flight came back."""
        try:
            if exc is not None:
                span.annotate(error=type(exc).__name__)
            span.close()
            request = pending.request
            if pending.done:
                return  # cancelled while the chunk ran
            if isinstance(exc, DeadlineExceeded):
                waited = self.clock() - pending.submitted
                self._count("expired")
                self.tracer.registry.inc(
                    "fault_events_total", stage="serve", event="deadline_abort"
                )
                expired = Expired(request.id, request.client, waited=waited, aborted=True)
                return self._finish(pending, expired)
            if exc is not None:  # queries surface as Failed
                self._count("failed")
                error = f"{type(exc).__name__}: {exc}"
                return self._finish(pending, Failed(request.id, request.client, error=error))
            if request.kind == "path":
                result = {"path": value[0], "distance": value[1]}
            elif request.kind == "distance":
                result = {"distance": value}
            elif request.kind == "knn":
                pending.stats.append(value.stats)
                result = {"ids": value.ids(), "distances": value.distances()}
            else:
                pending.ids.extend(value.ids())
                pending.distances.extend(r.distances() for r in value.results)
                pending.stats.append(value.stats)
                if not chunk.last:
                    return  # more chunks of this batch still queued
                result = {"ids": pending.ids, "distances": pending.distances}
            latency = self.clock() - pending.submitted
            self._finish(pending, Completed(
                request.id, request.client, result=result,
                latency=latency, sched_delay=self.scheduler.sched_delay(request),
            ))
            # Counted after the hand-over, off the client's wait (only
            # `deliver` itself runs before them).
            self._count("completed")
            self.tracer.registry.observe("latency_seconds", latency, stage="serve")
            for chunk_stats in pending.stats:
                self._ops.add(chunk_stats)
        finally:
            if self.scheduler:
                # A turn later, after that turn's reads (a call_soon would
                # run before them): lines that came in meanwhile go first.
                asyncio.get_running_loop().call_later(0, self._pump)
            else:
                self._idle.set()

    def _finish(self, pending: _Pending, response: Response | None) -> None:
        """Seal a request once, whatever ended it (None: its caller left)."""
        if pending.done:
            return
        pending.done = True
        request = pending.request
        del self._pending_by_request[id(request)]
        # The response consumed the recorded delay (if any); drop it
        # so a long-lived server's bookkeeping stays flat.
        self.scheduler.sched_delays.pop(id(request), None)
        self.admission.release(request)
        try:
            pending.trace.finish(response.status if response is not None else "cancelled")
            if response is not None:
                pending.deliver(response)
        except Exception as exc:  # noqa: BLE001 - the trace sink or the caller's callback
            # Reported like any failing loop callback (logged by
            # default, raised by serve_jsonl); the pump goes on.
            asyncio.get_running_loop().call_exception_handler({
                "message": f"finishing request {request.id!r} failed",
                "exception": exc,
            })


# ----------------------------------------------------------------------
# The JSON-lines loop behind `repro serve`
# ----------------------------------------------------------------------

#: Bytes per read of the input (a file's per loop turn): the pipe transport's
#: 256 KiB default maps a fresh buffer per read, 17 us against 1.4 us here.
_READ_BLOCK = 64 * 1024


class _Lines(asyncio.Protocol):
    """Request lines out of ``serve_jsonl``'s input bytes, decoded
    incrementally (a UTF-8 character split across reads is joined), split
    at newlines and stripped; blanks and ``#`` comments are dropped, a
    read's other lines go to ``accept`` as one list; the last needs no newline."""

    def __init__(self, accept: Callable[[list[str]], None], finish) -> None:
        self._accept = accept
        self._finish = finish
        self._decode = codecs.getincrementaldecoder("utf-8")().decode
        self._tail = ""

    def data_received(self, data: bytes, final: bool = False) -> None:
        *lines, self._tail = (self._tail + self._decode(data, final)).split("\n")
        self._accept([s for s in map(str.strip, lines) if s and not s.startswith("#")])

    def eof_received(self) -> None:
        self.data_received(b"\n", final=True)

    def connection_lost(self, exc: Exception | None) -> None:
        self._finish(exc)


async def serve_jsonl(
    server: SILCServer, in_stream: BinaryIO | TextIO, out_stream: TextIO
) -> MetricsSnapshot:
    """Read request records line by line, write responses as they finish.

    One JSON object per input line (see
    :func:`~repro.serve.protocol.request_from_dict` for the shape);
    responses are written in *completion* order, each echoing the
    request ``id``.  All on the loop thread: a pipe, FIFO, socket or
    terminal is read with ``loop.connect_read_pipe`` as data arrives, a
    regular file (which epoll refuses) or an in-memory stream one block
    per loop turn; the lines of a read are decoded and submitted, and
    the pump run, in the turn that read them.  Returns the final metrics
    snapshot at EOF; a failure of the input or inside a loop callback (a
    closed ``out_stream``, say) is raised when it happens, not at EOF.
    """
    loop = asyncio.get_running_loop()
    ended = loop.create_future()  # resolved at EOF, and by the first failure
    failures: list[BaseException] = []

    def finish(error: BaseException | None) -> None:
        if error is not None:
            failures.append(error)
        if not ended.done():
            ended.set_result(None)

    def emit(record: dict) -> None:
        out_stream.write(json.dumps(record) + "\n")
        out_stream.flush()

    def accept(lines: list[str]) -> None:
        # A read's lines are all queued before the pump picks among them,
        # in this turn; meanwhile a clear `_idle` says a pump is due.
        dispatch = server._idle.is_set()  # no chunk in flight, no pump due
        server._idle.clear()
        try:
            for line in lines:
                obj = None
                try:
                    obj = json.loads(line)
                    request = request_from_dict(obj)
                except Exception as exc:  # noqa: BLE001 - whatever the line made them raise is the client's error
                    # A closed-loop client waits on its id: echo what
                    # correlates the reply whenever the line carried it.
                    echo = (
                        {key: obj[key] for key in ("id", "client") if key in obj}
                        if isinstance(obj, dict) else {}
                    )
                    emit({**echo, "status": "error", "error": f"bad request: {exc}"})
                    continue
                server.submit_nowait(request, lambda response: emit(response_to_dict(response)))
        finally:
            if dispatch:
                server._pump()

    lines = _Lines(accept, finish)

    def feed() -> None:
        if ended.done():
            return  # a failure ended the run
        block = in_stream.read(_READ_BLOCK)
        if block:
            lines.data_received(block.encode() if isinstance(block, str) else block)
            loop.call_soon(feed)
        else:
            lines.eof_received()
            lines.connection_lost(None)

    try:
        fd = in_stream.fileno()
        mode = os.fstat(fd).st_mode
        watchable = stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode) or os.isatty(fd)
    except (AttributeError, OSError, ValueError):
        watchable = False  # no descriptor: an in-memory stream
    transport = None
    # What a loop callback raises (accept, a reply that cannot be
    # written, a read) ends the wait below instead of only being logged.
    logged = loop.get_exception_handler()
    loop.set_exception_handler(
        lambda _, context: finish(context.get("exception") or RuntimeError(context["message"]))
    )
    try:
        async with server:
            if watchable:
                blocking = os.get_blocking(fd)
                # The transport closes this file object, not the caller's.
                transport, _ = await loop.connect_read_pipe(
                    lambda: lines, open(fd, "rb", buffering=0, closefd=False)
                )
                transport.max_size = _READ_BLOCK
            else:
                loop.call_soon(feed)
            await ended
            if not failures:
                await server.stop()  # every admitted line is answered
            if failures:
                raise failures[0]
    finally:
        if transport is not None:
            transport.close()
            os.set_blocking(fd, blocking)  # a terminal shares it with the shell
        loop.set_exception_handler(logged)
    return server.snapshot()
