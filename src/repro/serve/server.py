"""The serving front end: admission -> fair scheduling -> execution.

:class:`SILCServer` is the asyncio orchestrator that turns the
synchronous :class:`~repro.engine.QueryEngine` into a service.  A
request submitted with :meth:`SILCServer.submit` flows through

1. the :class:`~repro.serve.admission.AdmissionController` -- over the
   in-flight cap or the client's token bucket it is *shed now* with
   :class:`~repro.serve.protocol.Rejected` (bounded queues, explicit
   backpressure);
2. the :class:`~repro.serve.scheduler.FairScheduler` -- batches are
   split into chunks and lanes are served weighted round-robin, so a
   bulk client cannot starve interactive ones;
3. the dispatcher task, which pulls chunks in fair order, honours
   per-request deadlines (:class:`~repro.serve.protocol.Expired`), and
   executes on the :class:`~repro.serve.engine.AsyncEngine`.

The caller simply awaits ``submit``; the response arrives when every
chunk of the request has run (or the request was shed/expired/failed).
:func:`serve_jsonl` wraps a server in the stdin/stdout JSON-lines
loop behind the ``repro serve`` CLI subcommand.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TextIO

from repro.errors import DeadlineExceeded
from repro.obs.registry import process_memory
from repro.obs.trace import NullTracer
from repro.serve.admission import AdmissionController
from repro.serve.engine import AsyncEngine
from repro.serve.metrics import MetricsSnapshot, ServerMetrics
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
    future: asyncio.Future
    ids: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    # Tracing state (no-op objects when tracing is off).
    trace: object = None
    wait_span: object = None

    @property
    def done(self) -> bool:
        return self.future.done()


class SILCServer:
    """Fairly scheduled, admission-controlled serving of one engine.

    Parameters
    ----------
    engine:
        The :class:`AsyncEngine` queries execute on.
    scheduler / admission / metrics:
        Injectable policy objects; defaults are a chunk-32 fair
        scheduler, a 1024-query in-flight cap with no per-client rate
        limit, and a fresh metrics accumulator.
    tracer:
        A :class:`~repro.obs.trace.Tracer` to produce per-request span
        traces; the default :class:`~repro.obs.trace.NullTracer` makes
        every tracing call a no-op (but still owns the metrics
        registry the ``stats`` request kind snapshots).
    clock:
        Time source for deadlines and latency (injectable for tests).
    """

    def __init__(
        self,
        engine: AsyncEngine,
        scheduler: FairScheduler | None = None,
        admission: AdmissionController | None = None,
        metrics: ServerMetrics | None = None,
        tracer=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.scheduler = scheduler if scheduler is not None else FairScheduler()
        self.admission = admission if admission is not None else AdmissionController()
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.clock = clock
        # Pending while the dispatcher sleeps on an empty scheduler.
        # Everything that touches the scheduler runs on the loop
        # thread, so a bare future is all the wake-up needs.
        self._wake: asyncio.Future | None = None
        self._dispatcher: asyncio.Task | None = None
        self._stopping = False
        # id(request) -> _Pending, for chunks to find their assembly state.
        self._pending_by_request: dict = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._dispatcher is not None:
            raise RuntimeError("server already started")
        self._stopping = False
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Drain every queued chunk, then retire the dispatcher."""
        if self._dispatcher is None:
            return
        self._stopping = True
        self._wake_dispatcher()
        await self._dispatcher
        self._dispatcher = None

    def _wake_dispatcher(self) -> None:
        if self._wake is not None and not self._wake.done():
            self._wake.set_result(None)

    async def __aenter__(self) -> SILCServer:
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request: Request) -> Response:
        """Run one request through the full pipeline; await its response."""
        if self._dispatcher is None:
            raise RuntimeError("server not started (use `async with server:`)")
        if request.kind == "stats":
            # Monitoring must answer even (especially) when the server
            # is saturated: bypass admission and scheduling entirely.
            return Completed(
                id=request.id, client=request.client,
                result={"metrics": self.registry_snapshot()},
            )
        trace = self.tracer.trace_request(request)
        with trace.span("admission"):
            admitted, retry_after, reason = self.admission.admit(request)
        if not admitted:
            self.metrics.record_shed()
            trace.finish("rejected")
            return Rejected(
                id=request.id, client=request.client,
                retry_after=retry_after, reason=reason,
            )
        pending = _Pending(
            request=request,
            submitted=self.clock(),
            future=asyncio.get_running_loop().create_future(),
            trace=trace,
            wait_span=trace.begin("sched_wait"),
        )
        self.scheduler.submit(request)
        self._pending_by_request[id(request)] = pending
        self._wake_dispatcher()
        try:
            return await pending.future
        finally:
            self._pending_by_request.pop(id(request), None)
            # The response consumed the recorded delay (if any); drop it
            # so a long-lived server's bookkeeping stays flat.
            self.scheduler.sched_delays.pop(id(request), None)
            if not pending.future.done() or pending.future.cancelled():
                # The caller was cancelled while chunks were still
                # queued: _finish will never run for this request, so
                # return its admission budget here.  (Undispatched
                # chunks are dropped by _execute once it sees the
                # pending entry is gone.)
                pending.future.cancel()
                self.admission.release(request)
            # No-op when _finish already sealed the trace.
            trace.finish("cancelled")

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot(
            queue_depths=self.scheduler.depths(),
            in_flight=self.admission.in_flight,
        )

    def registry_snapshot(self) -> dict:
        """The unified metrics registry reading the ``stats`` kind ships.

        Absorbs every live accumulator -- server metrics, the
        planner's decision counts (when a planner exists) and the
        shard router's prune accounting (when sharded) -- into the
        tracer's registry, then snapshots it.  Absorption assigns
        absolutely, so polling any number of times never double
        counts.  Memory sits next to latency, as gauges: the index's
        column bytes and, read from ``/proc`` at poll time, the resident
        set and its peak of the server and of each shard worker's
        current pid.
        """
        registry = self.tracer.registry
        registry.absorb_server(self.snapshot())
        registry.set_gauge(
            "index_mapped_bytes", self.engine.engine.index.store.nbytes(), stage="serve"
        )
        processes = {"server": os.getpid()}
        planner = getattr(self.engine.engine, "planner", None)
        if planner is not None:
            registry.absorb_planner(planner.stats)
        shard_group = getattr(self.engine, "shard_group", None)
        if shard_group is not None:
            registry.absorb_router(shard_group.router.stats)
            supervisor = getattr(shard_group, "supervisor", None)
            if supervisor is not None:
                registry.absorb_supervisor(supervisor.stats)
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
        return registry.snapshot()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            chunk = self.scheduler.next_chunk()
            if chunk is not None:
                await self._execute(chunk)
            elif self._stopping:
                return
            else:
                self._wake = loop.create_future()
                await self._wake

    async def _execute(self, chunk: Chunk) -> None:
        pending = self._pending_by_request.get(id(chunk.request))
        if pending is None or pending.done:
            # Request already expired/failed/cancelled: drop its tail,
            # and with the final chunk drop its delay record too (it
            # was written at first dispatch and has no reader left).
            if chunk.last:
                self.scheduler.sched_delays.pop(id(chunk.request), None)
            return
        request = chunk.request
        now = self.clock()
        waited = now - pending.submitted
        if pending.wait_span is not None:
            # First dispatch of this request: the queueing stage ends
            # here (later chunks of a batch re-enter the scheduler but
            # the fairness contract is counted, not timed).
            pending.wait_span.count(sched_delay=self.scheduler.sched_delay(request))
            pending.wait_span.close()
            pending.wait_span = None
        if request.deadline is not None and waited > request.deadline:
            self._finish(
                pending,
                Expired(id=request.id, client=request.client, waited=waited),
            )
            self.metrics.record_expired()
            return
        # What is left of the deadline after queueing becomes the
        # execution-time cap: it rides through AsyncEngine into the
        # engine/router/worker search loops, so a request that expires
        # mid-execution is aborted instead of finishing late.
        budget = None
        if request.deadline is not None:
            budget = request.deadline - waited
        try:
            with pending.trace.span("execute", kind=request.kind):
                if request.kind == "path":
                    path, distance = await self.engine.route(*chunk.queries)
                    result = {"path": path, "distance": distance}
                elif request.kind == "distance":
                    source, target = chunk.queries
                    result = {"distance": await self.engine.distance(source, target)}
                elif request.kind == "knn":
                    r = await self.engine.knn(
                        chunk.queries[0], request.k,
                        variant=request.variant, exact=request.exact,
                        oracle=request.oracle, trace=pending.trace,
                        time_cap=budget,
                    )
                    pending.stats.append(r.stats)
                    result = {"ids": r.ids(), "distances": r.distances()}
                elif request.kind == "knn_batch":
                    batch = await self.engine.knn_batch(
                        chunk.queries, request.k,
                        variant=request.variant, exact=request.exact,
                        oracle=request.oracle, trace=pending.trace,
                        time_cap=budget,
                    )
                    pending.ids.extend(batch.ids())
                    pending.distances.extend(r.distances() for r in batch.results)
                    pending.stats.append(batch.stats)
                    if not chunk.last:
                        return  # more chunks of this batch still queued
                    result = {"ids": pending.ids, "distances": pending.distances}
                else:
                    # Request validation keeps kind within KINDS; a
                    # kind added there without an arm here fails loudly
                    # (and repro check RPR002 catches it statically).
                    raise ValueError(
                        f"unhandled request kind {request.kind!r}"
                    )
        except DeadlineExceeded:
            waited = self.clock() - pending.submitted
            self.metrics.record_expired(aborted=True)
            self._finish(
                pending,
                Expired(
                    id=request.id, client=request.client,
                    waited=waited, aborted=True,
                ),
            )
            return
        except Exception as exc:  # noqa: BLE001 - queries surface as Failed
            self.metrics.record_failed()
            self._finish(
                pending,
                Failed(id=request.id, client=request.client, error=f"{type(exc).__name__}: {exc}"),
            )
            return
        latency = self.clock() - pending.submitted
        sched_delay = self.scheduler.sched_delay(request)
        # Summing QueryStats drops extras, so the degraded marker is
        # read off the per-chunk stats.
        degraded = any(
            s.extras.get("degraded_shards") for s in pending.stats
        )
        self.metrics.record_completed(
            request.client, latency, sched_delay, *pending.stats
        )
        if degraded:
            self.metrics.record_degraded()
        self._finish(
            pending,
            Completed(
                id=request.id, client=request.client,
                result=result, latency=latency, sched_delay=sched_delay,
                degraded=degraded,
            ),
        )

    def _finish(self, pending: _Pending, response: Response) -> None:
        if not pending.done:
            self.admission.release(pending.request)
            pending.trace.finish(response.status)
            pending.future.set_result(response)


# ----------------------------------------------------------------------
# The JSON-lines loop behind `repro serve`
# ----------------------------------------------------------------------

async def serve_jsonl(
    server: SILCServer,
    in_stream: TextIO,
    out_stream: TextIO,
) -> MetricsSnapshot:
    """Read request records line by line, write responses as they finish.

    One JSON object per input line (see
    :func:`~repro.serve.protocol.request_from_dict` for the shape);
    responses are written in *completion* order, each echoing the
    request ``id``.  One reader thread (the same for a pipe and a file)
    hands each line to the loop, so slow producers never stall queries
    already in the pipeline.  Returns the final metrics snapshot at
    EOF; a failure of the reader or of a request handler (a closed
    ``out_stream``, say) is raised when it happens, not at EOF.
    """
    loop = asyncio.get_running_loop()
    finished = loop.create_future()  # None at EOF, or the first failure
    live: set[asyncio.Task] = set()  # requests not yet answered

    def emit(record: dict) -> None:
        out_stream.write(json.dumps(record) + "\n")
        out_stream.flush()

    async def handle(line: str) -> None:
        obj = None
        try:
            obj = json.loads(line)
            request = request_from_dict(obj)
        except (ValueError, KeyError, TypeError) as exc:
            # A closed-loop client waits on its id: echo what
            # correlates the reply whenever the line carried it.
            echo = (
                {key: obj[key] for key in ("id", "client") if key in obj}
                if isinstance(obj, dict) else {}
            )
            emit({**echo, "status": "error", "error": f"bad request: {exc}"})
            return
        emit(response_to_dict(await server.submit(request)))

    def finish(error: BaseException | None) -> None:
        if not finished.done():
            finished.set_result(error)

    def retire(task: asyncio.Task) -> None:
        live.discard(task)
        if not task.cancelled() and task.exception() is not None:
            finish(task.exception())

    def accept(line: str) -> None:
        task = loop.create_task(handle(line))
        live.add(task)
        task.add_done_callback(retire)

    def read_lines() -> None:
        error = None
        try:
            for line in iter(in_stream.readline, ""):
                line = line.strip()
                if line and not line.startswith("#"):
                    loop.call_soon_threadsafe(accept, line)
        except Exception as exc:  # noqa: BLE001 - handed to the loop below
            error = exc
        try:
            loop.call_soon_threadsafe(finish, error)
        except RuntimeError:
            pass  # loop already closed: serve_jsonl gave up before EOF

    # Not a daemon: one killed inside readline() at interpreter exit
    # takes the process down with it (the stream's buffer lock).  After
    # a failure the thread therefore lives until ``in_stream`` ends.
    reader = threading.Thread(target=read_lines, name="repro-serve-reader")
    async with server:
        reader.start()
        if (error := await finished) is not None:
            raise error
        reader.join()
        await asyncio.gather(*live)
    return server.snapshot()
