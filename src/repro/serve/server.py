"""The serving front end: admission -> fair scheduling -> execution.

:class:`SILCServer` turns the synchronous :class:`~repro.engine.QueryEngine`
into a service.  A request is admitted or shed at once
(:class:`~repro.serve.admission.AdmissionController`, answering
``Rejected``), queued in its client's lane of the
:class:`~repro.serve.scheduler.FairScheduler` (batches split into chunks,
lanes served round-robin) and run by the pump -- one chunk in flight,
deadlines honoured (``Expired``) -- on the
:class:`~repro.serve.engine.AsyncEngine`, which settles it inline.

All of it is callbacks on the loop thread (no task, no thread):
:meth:`SILCServer.submit_nowait` is the one way in, ``await
server.submit(request)`` a future over it.  :func:`serve_jsonl`, the
JSON-lines loop behind ``repro serve``, pumps at the end of each read:
a closed-loop request is read, run and answered in one loop turn, and a
``stats`` line waits for at most the running chunk.
"""

from __future__ import annotations

import asyncio
import codecs
import json
import os
import stat
import time
from dataclasses import dataclass, field, replace
from json.encoder import c_make_encoder, encode_basestring_ascii
from collections.abc import Callable
from functools import partial
from typing import BinaryIO, TextIO

from repro.errors import DeadlineExceeded
from repro.obs.registry import ENGINE_OPS, MetricsRegistry, process_memory
from repro.obs.trace import Tracer
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
    trace: object = None  # None when tracing is off
    span: object = None  # traced: sched_wait until first dispatch, then reply
    done: bool = False  # set by _finish, whatever ended the request
    answers: list = field(default_factory=list)  # each chunk's, in order


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
            f"engine work: {self.stats.refinements} refinements",
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
        traces; with the default ``None`` a request makes no tracing
        call.  The server counts its requests into :attr:`registry` as
        they end: the tracer's registry when there is one, else its own.
    clock:
        Time source for deadlines and latency (injectable for tests).
    """

    def __init__(
        self,
        engine: AsyncEngine,
        scheduler: FairScheduler | None = None,
        admission: AdmissionController | None = None,
        tracer: Tracer | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler if scheduler is not None else FairScheduler()
        self.admission = admission if admission is not None else AdmissionController()
        self.tracer = tracer
        self.registry = tracer.registry if tracer is not None else MetricsRegistry()
        self.clock = clock
        # Counted engine work of every completed request, rendered as
        # ``engine_ops_total`` only when polled: counting it per event
        # would take a dozen locked increments per request.
        self._ops = QueryStats()
        # None while stopped, else whether a pump is due or a chunk in
        # flight (all on the loop thread: no lock to take).
        self._busy: bool | None = None
        self._drained: asyncio.Event | None = None  # what stop() waits on
        self._read_at: float | None = None  # traced: when serve_jsonl read its lines
        # id(request) -> _Pending, for chunks to find their assembly state.
        self._pending_by_request: dict = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._busy is not None:
            raise RuntimeError("server already started")
        self._busy = False

    async def stop(self) -> None:
        """Wait until every admitted request is answered, then stop."""
        while self._busy:
            self._drained = self._drained or asyncio.Event()
            await self._drained.wait()
            self._drained = None
        self._busy = None

    def _rest(self) -> None:
        """No chunk in flight and no pump due."""
        self._busy = False
        if self._drained is not None:
            self._drained.set()

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
        if self._busy is None:
            raise RuntimeError("server not started (use `async with server:`)")
        if request.kind == "stats":
            # Monitoring must answer even (especially) when the server
            # is saturated: bypass admission and scheduling entirely.
            metrics = {"metrics": self.registry_snapshot()}
            deliver(Completed(id=request.id, client=request.client, result=metrics))
            return None
        trace = None
        if self.tracer is not None:  # untraced, a request makes no tracing call
            trace = self.tracer.trace_request(request)
            if self._read_at is not None:
                trace.prepend("read", self._read_at)
            admission = trace.span("admission")
        admitted, retry_after, reason = self.admission.admit(request)
        if trace is not None:
            admission.close()
        if not admitted:
            self._count("shed")
            if trace is not None:
                trace.finish("rejected")
            deliver(Rejected(request.id, request.client, retry_after=retry_after, reason=reason))
            return None
        pending = _Pending(request, self.clock(), deliver, trace)
        if trace is not None:
            pending.span = trace.begin("sched_wait")
        self.scheduler.submit(request)
        self._pending_by_request[id(request)] = pending
        if not self._busy:
            # A turn later: what arrives together (gathered submits) is
            # all queued before the scheduler picks among it.
            self._busy = True
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
        registry = self.registry
        served, shed, expired, failed = (
            int(registry.counter_value("requests_total", stage="serve", outcome=outcome))
            for outcome in ("completed", "shed", "expired", "failed")
        )
        latency = registry.histogram("latency_seconds", stage="serve")
        return MetricsSnapshot(
            served=served, shed=shed, expired=expired, failed=failed,
            p50=latency["p50"], p95=latency["p95"], p99=latency["p99"],
            queue_depths=self.scheduler.depths(), in_flight=self.admission.in_flight,
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
        bytes and, for a mapped index, how many of them the page cache
        holds, and, read from ``/proc``, the resident set and its peak
        of the server and of each shard worker's current pid.
        """
        registry = self.registry
        registry.set_gauge("in_flight", self.admission.in_flight, stage="serve")
        for client, depth in self.scheduler.depths().items():
            registry.set_gauge("queue_depth", depth, stage="sched", client=client)
        store = self.engine.engine.index.store
        registry.set_gauge("index_mapped_bytes", store.nbytes(), stage="serve")
        resident = store.resident_bytes()
        if resident is not None:  # a mapped index, and mincore to ask
            registry.set_gauge("index_resident_bytes", resident, stage="serve")
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
        slow_log = self.tracer.slow_log if self.tracer is not None else None
        if slow_log is not None:
            registry.set_gauge("slow_queries_captured", slow_log.captured, stage="serve")
        return registry.snapshot(*others)

    def _count(self, outcome: str) -> None:
        self.registry.inc("requests_total", stage="serve", outcome=outcome)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Start the next chunk that still has a request to serve.

        Runs at the end of a read, a turn after a submission that found
        the server idle, and a turn after a chunk completion that left
        chunks queued; one chunk is in flight at a time.  A loop, not
        recursion: chunks of expired, cancelled and failed requests are
        passed over without a hand-off.  Should its own bookkeeping
        raise, the request it was preparing is answered ``Failed`` and
        the pump goes on; what raises before a request is known leaves
        the server at rest (``stop()`` can still drain) and is raised.
        """
        pending = None
        while True:
            try:
                chunk = self.scheduler.next_chunk()
                if chunk is None:
                    break
                request = chunk.request
                pending = self._pending_by_request.get(id(request))
                if pending is None:
                    # Request already expired/failed/cancelled: drop its
                    # tail, and with the final chunk drop its delay record
                    # too (it was written at first dispatch and has no
                    # reader left).
                    if chunk.last:
                        self.scheduler.sched_delays.pop(id(request), None)
                    continue
                if pending.span is not None:
                    # Traced, first dispatch: the queueing stage ends here
                    # (later chunks of a batch re-enter the scheduler but
                    # the fairness contract is counted, not timed).
                    pending.span.count(sched_delay=self.scheduler.sched_delay(request))
                    pending.span.close()
                    pending.span = None
                # What is left of the deadline after queueing becomes the
                # execution-time cap: it rides through AsyncEngine into the
                # engine/router/worker search loops, so a request that
                # expires mid-execution is aborted instead of finishing late.
                budget = None
                if request.deadline is not None:
                    waited = self.clock() - pending.submitted
                    if waited > request.deadline:
                        self._finish(pending, Expired(request.id, request.client, waited=waited))
                        self._count("expired")
                        continue
                    budget = request.deadline - waited
                trace = pending.trace
                # Open across the hand-off, so the spans the query opens
                # parent under it; _settle closes it.
                span = None if trace is None else trace.span("execute", kind=request.kind)
                done = partial(self._settle, pending, chunk, span)
            except Exception as exc:  # noqa: BLE001 - the pump's own bookkeeping
                if pending is None or pending.done:
                    self._rest()  # nothing is in flight
                    raise
                self._count("failed")
                self._finish(pending, Failed(
                    pending.request.id, pending.request.client,
                    error=f"{type(exc).__name__}: {exc}",
                ))
                continue
            try:
                if request.kind == "path":
                    self.engine.route(*chunk.queries, done=done)
                elif request.kind == "distance":
                    self.engine.distance(*chunk.queries, done=done)
                elif request.kind == "knn":
                    self.engine.knn(
                        chunk.queries[0], request.k, variant=request.variant, exact=request.exact,
                        oracle=request.oracle, trace=trace, time_cap=budget, done=done,
                    )
                elif request.kind == "knn_batch":
                    self.engine.knn_batch(
                        chunk.queries, request.k, variant=request.variant, exact=request.exact,
                        oracle=request.oracle, trace=trace, time_cap=budget, done=done,
                    )
                else:
                    # Request validation keeps kind within KINDS; a
                    # kind added there without an arm here fails loudly
                    # (test_serve_server.py::TestEveryKindIsServed).
                    raise ValueError(f"unhandled request kind {request.kind!r}")
            except Exception as exc:  # noqa: BLE001 - raised before the hand-off: Failed
                done(None, exc)
            return
        self._rest()

    def _settle(self, pending: _Pending, chunk: Chunk, span, value, exc) -> None:
        """The engine's ``done``: the chunk in flight came back."""
        try:
            if span is not None:
                if exc is not None:
                    span.annotate(error=type(exc).__name__)
                span.close()
            if pending.done:
                return  # cancelled while the chunk ran
            if span is not None and (chunk.last or exc is not None):
                # The reply stage: from here until the reply is flushed.
                pending.span = pending.trace.begin("reply")
            request = pending.request
            if isinstance(exc, DeadlineExceeded):
                waited = self.clock() - pending.submitted
                self._count("expired")
                self.registry.inc(
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
                pending.answers.append(value)
                result = {"ids": value.ids(), "distances": value.distances()}
            else:
                pending.answers.append(value)
                if not chunk.last:
                    return  # more chunks of this batch still queued
                answers = [r for batch in pending.answers for r in batch.results]
                result = {"ids": [r.ids() for r in answers],
                          "distances": [r.distances() for r in answers]}
            latency = self.clock() - pending.submitted
            self._finish(pending, Completed(
                request.id, request.client, result=result, latency=latency,
                sched_delay=self.scheduler.sched_delays.get(id(request), 0),
            ))
            # Counted after the hand-over, off the client's wait (only
            # `deliver` itself runs before them).
            registry = self.registry
            registry.inc("requests_total", stage="serve", outcome="completed")
            registry.observe("latency_seconds", latency, stage="serve")
            for answer in pending.answers:
                self._ops.add(answer.stats)
        finally:
            if self.scheduler.queued:
                # A turn later, after that turn's reads (a call_soon would
                # run before them): lines that came in meanwhile go first.
                asyncio.get_running_loop().call_later(0, self._pump)
            else:
                self._rest()

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
        trace = pending.trace
        try:
            if trace is not None:  # the request ends here, as it always did
                trace.end(response.status if response is not None else "cancelled")
            try:
                if response is not None:
                    pending.deliver(response)
            finally:
                if trace is not None:
                    trace.finish()  # to the sink once the reply is out
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

#: ``json.dumps(record)``, in pieces: the C encoder it builds per call, built once.
_encode = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ": ", ", ", False, False, True)
#: ``json.loads``'s C scanner: ``(value, end)`` of the JSON text at an index.
_scan = json.JSONDecoder().scan_once


class _Lines(asyncio.Protocol):
    """Request lines out of ``serve_jsonl``'s input bytes, decoded
    incrementally (a UTF-8 character split across reads is joined) and
    split at newlines; a read's lines go to ``accept`` as one list, with
    ``clock()`` at the read (None without a clock); the last needs no newline."""

    def __init__(self, accept: Callable[[list[str], float | None], None], finish, clock) -> None:
        self._accept = accept
        self._finish = finish
        self._clock = clock
        self._undecoded = b""  # a character the next read completes
        self._tail = ""

    def data_received(self, data: bytes, final: bool = False) -> None:
        started = None if self._clock is None else self._clock()
        data = self._undecoded + data
        text, used = codecs.utf_8_decode(data, "strict", final)
        self._undecoded = data[used:]
        *lines, self._tail = (self._tail + text).split("\n")
        self._accept(lines, started)

    def eof_received(self) -> None:
        self.data_received(b"\n", final=True)

    def connection_lost(self, exc: Exception | None) -> None:
        self._finish(exc)


async def serve_jsonl(
    server: SILCServer, in_stream: BinaryIO | TextIO, out_stream: TextIO
) -> MetricsSnapshot:
    """Read request records line by line, write responses as they finish.

    One JSON object per input line (see :func:`request_from_dict`; blank
    lines and ``#`` comments are skipped); responses are written in
    *completion* order, each echoing the request ``id``.  A pipe, FIFO,
    socket or terminal is read with ``loop.connect_read_pipe`` as data
    arrives, a regular file (which epoll refuses) or an in-memory stream
    one block per loop turn; a read's lines are submitted, and the pump
    run, in the turn that read them.  Returns the final metrics snapshot
    at EOF; a failure of the input or inside a loop callback (a closed
    ``out_stream``, say) is raised when it happens, not at EOF.
    """
    loop = asyncio.get_running_loop()
    ended = loop.create_future()  # resolved at EOF, and by the first failure
    failures: list[BaseException] = []

    def finish(error: BaseException | None) -> None:
        if error is not None:
            failures.append(error)
        if not ended.done():
            ended.set_result(None)

    def write(record: dict) -> None:
        out_stream.write("".join(_encode(record, 0)) + "\n")
        out_stream.flush()

    def emit(response: Response) -> None:
        write(response_to_dict(response))

    def accept(lines: list[str], started: float | None) -> None:
        # A read's lines are all queued before the pump picks among them,
        # in this turn; meanwhile `_busy` says a pump is due.
        dispatch = server._busy is False  # no chunk in flight, no pump due
        server._busy = True
        server._read_at = started
        try:
            for line in lines:
                line = line.strip()
                if not line or line[0] == "#":
                    continue
                obj = None
                try:
                    try:
                        obj, end = _scan(line, 0)
                        if end != len(line):
                            raise ValueError
                    except (StopIteration, ValueError):
                        obj = None
                        obj = json.loads(line)  # raises what is wrong with the line
                    request = request_from_dict(obj)
                except Exception as exc:  # noqa: BLE001 - whatever the line made them raise is the client's error
                    # A closed-loop client waits on its id: echo what
                    # correlates the reply whenever the line carried it.
                    echo = (
                        {key: obj[key] for key in ("id", "client") if key in obj}
                        if isinstance(obj, dict) else {}
                    )
                    write({**echo, "status": "error", "error": f"bad request: {exc}"})
                    continue
                server.submit_nowait(request, emit)
        finally:
            server._read_at = None
            if dispatch:
                server._pump()

    lines = _Lines(accept, finish, server.tracer.clock if server.tracer is not None else None)

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
