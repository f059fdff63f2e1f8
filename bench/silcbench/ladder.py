"""The traced run: one in-process replay per layer boundary.

The served run says how long a request takes; this module says where.
It loads the same files the server loaded and replays the same request
list through a ladder of *public* entry points, one rung per layer,
bottom to top::

    kernel                best_first_knn / oracle.knn / index.path+distance
    engine (no storage)   QueryEngine.knn / knn_batch
    engine                ... with the cache_fraction=0.05 page simulator
    shard.router          ShardGroup.knn             (scatter-sharded only)
    serve.engine          await AsyncEngine.knn / knn_batch / path / distance
    serve.server          await SILCServer.submit
    (wire)                the client's clock around the real server's pipes

The rungs are replayed interleaved, ``REPEATS`` times, speed-normalised
and floored per request like the end-to-end numbers.  A layer's self
time is its rung's median minus the rung below's.  The in-process times
are put on the real server's scale by one factor per run (the p50 of the
server's own ``latency`` field over the top rung's p50,
``bench.inprocess_scale``), and ``serve.transport_ms`` (the client's p50
minus that field's p50) closes the ladder, so the self times sum to
``latency_p50_ms`` by construction.
Every timed call is a benchmark-owned span ``{name, start, end, parent,
request_id}`` kept in memory and written out at the end.  Nothing under
``src/`` is patched.

A metric is measured when its layer is on the workload's path (set-up
or query) and reported as 0 when it is not.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import math
import random
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.datasets import random_vertex_objects
from repro.engine import QueryEngine
from repro.network import load_text
from repro.objects import ObjectIndex
from repro.oracle import LABELS_SUBDIR, CostConstants, PrunedLabellingOracle, QueryPlanner
from repro.query.bestfirst import best_first_knn
from repro.serve import (
    AdmissionController,
    AsyncEngine,
    FairScheduler,
    SILCServer,
    request_from_dict,
    response_to_dict,
)
from repro.shard import ShardMap
from repro.silc import SILCIndex
from silcbench import data, loadgen, speed
from silcbench.workloads import DATA_SEED, OBJECTS, Workload, encode, queries_in

#: Replays per rung (per-request floor over them).
REPEATS = 3
#: Sampled vertex pairs for the silc / labelling micro-probes.
PROBE_PAIRS = 2000
#: Page-cache fraction ``repro serve`` runs its simulator with.
CACHE_FRACTION = 0.05

#: The self times that sum to ``latency_p50_ms``.
LADDER = (
    "serve.transport_ms", "serve.server.self_ms", "serve.engine.handoff_ms", "shard.overhead_ms", "storage.overhead_ms",
    "engine.self_ms", "query.kernel_ms",
)


def ladder_sum(per_layer: dict[str, float]) -> float:
    return sum(per_layer[name] for name in LADDER)


@dataclass
class Wire:
    """What the served run observed, for the top of the ladder."""

    e2e_p50_ms: float
    raw_p50_ms: float
    reported_p50_ms: float
    pooled_p99_ms: float
    slowdown: float
    counted: dict[str, float]
    queries: int
    rounds: int

    def count(self, name: str, **labels: str) -> float:
        key = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return self.counted.get(f"{name}{{{key}}}", 0)


def timed(call: Callable[[], object]) -> tuple[float, object]:
    start = perf_counter()
    value = call()
    return perf_counter() - start, value


def nominal(call: Callable[[], object]) -> tuple[float, object]:
    """``timed`` at nominal host speed: for work too long to interleave slices with."""
    slices = speed.bracket()
    seconds, value = timed(call)
    return seconds * speed.factor(slices + speed.bracket()), value


def median_us(calls: list[Callable[[], object]], scale: float) -> float:
    """Median microseconds of each call run once, at nominal host speed
    and on the server's scale (see ``Rungs.calibrate``)."""
    for call in calls[:50]:  # untimed: imports, caches, branch history
        call()
    slices = speed.bracket()
    median = statistics.median(timed(call)[0] for call in calls)
    return median * speed.factor(slices + speed.bracket()) * scale * 1e6


@dataclass
class Rung:
    """One layer boundary: a public entry point called once per request."""

    name: str
    parent: str | None
    call: Callable[[dict], object]  # may return an awaitable
    only: list[bool] | None = None  # requests this rung applies to (default: all)


class Rungs:
    """Replays of the request list, floored per request, spans kept."""

    def __init__(self, requests: list[dict]) -> None:
        self.requests = requests
        self.spans: list[dict] = []
        self.floors: dict[str, list[float]] = {}
        self.results: dict[str, list] = {}
        #: In-process seconds -> server-process seconds (see ``calibrate``).
        self.scale = 1.0

    async def replay(self, rungs: list[Rung]) -> None:
        """Every rung over every request, ``REPEATS`` times, interleaved.

        At each step every rung handles one request, so all rungs sample
        the same stretch of host state and their differences are paired;
        the rungs work on requests far apart in the list, so none finds
        the caches warmed by a lower rung's pass over the same query; and
        the order rotates from step to step, so every rung follows every
        other equally often.  Each call is followed by a reference slice
        and scaled to nominal host speed by the slices around it, as the
        load generator does.
        """
        n = len(self.requests)
        for rung in rungs:
            self.floors[rung.name] = [math.inf] * n
            self.results[rung.name] = [None] * n
        stride = max(1, n // len(rungs))
        previous = speed.reference_slice()
        for _ in range(REPEATS):
            for step in range(n):
                for turn in range(len(rungs)):
                    j = (step + turn) % len(rungs)
                    rung = rungs[j]
                    i = (step + j * stride) % n
                    if rung.only is not None and not rung.only[i]:
                        continue
                    request = self.requests[i]
                    start = perf_counter()
                    value = rung.call(request)
                    if inspect.isawaitable(value):
                        value = await value
                    end = perf_counter()
                    before, previous = previous, speed.reference_slice()
                    self.spans.append({"name": rung.name, "start": start, "end": end,
                                       "parent": rung.parent, "request_id": request["id"]})
                    self.results[rung.name][i] = value
                    floors = self.floors[rung.name]
                    floors[i] = min(floors[i], (end - start) * speed.factor((before, previous)))

    def calibrate(self, name: str, reported_p50_ms: float) -> None:
        """Rescale in-process times so rung ``name`` takes what the real
        server reported for the same call.

        The slices that normalise an in-process call run in the *same*
        process and find warmer caches and TLBs than the client's slices
        between two server replies, so in-process times come out 10-40 %
        long, by a factor that moves with the host state; one factor per
        run puts every rung on the server's scale and keeps the rungs'
        shares of it.
        """
        self.scale = reported_p50_ms / self.p50_ms(name)

    def p50_ms(self, name: str, only: list[bool] | None = None, per_query: bool = False) -> float:
        """Median floor of a rung in ms (0 when no request qualifies)."""
        chosen = [
            floor / (queries_in(request) if per_query else 1)
            for i, (floor, request) in enumerate(zip(self.floors[name], self.requests, strict=True))
            if (only is None or only[i]) and floor < math.inf
        ]
        return statistics.median(chosen) * 1e3 * self.scale if chosen else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as sink:
            for span in self.spans:
                sink.write(json.dumps(span) + "\n")


@dataclass
class Loaded:
    """What the server holds in memory, loaded here from the same files."""

    network: object
    index: SILCIndex
    object_index: ObjectIndex
    labelling: PrunedLabellingOracle | None
    plain: QueryEngine  # no page simulator: what shard workers and the kernel rung run on
    stored: QueryEngine  # cache_fraction=0.05 simulator: what `repro serve` runs on


def load(workload: Workload, dataset: data.Dataset, workdir: Path,
         m: dict[str, float]) -> Loaded:
    """Load what the server loaded; time that, and rebuild what set-up built."""
    seconds, network = nominal(lambda: load_text(dataset.network))
    m["network.load_text_ms"] = seconds * 1e3
    seconds, index = nominal(lambda: SILCIndex.load(dataset.index, network, mmap=True))
    m["silc.load_mmap_ms"] = seconds * 1e3
    objects = random_vertex_objects(network, count=OBJECTS, seed=DATA_SEED)
    seconds, object_index = nominal(lambda: ObjectIndex(network, objects, index.embedding))
    m["objects.index.build_ms"] = seconds * 1e3
    m["silc.store.blocks_total"] = index.total_blocks()
    m["silc.build_s"], rebuilt = nominal(lambda: SILCIndex.build(network, workers=1))
    m["silc.save_s"] = nominal(lambda: rebuilt.save(workdir / "resaved-index"))[0]
    m["silc.save_sharded_s"] = nominal(lambda: index.save_sharded(
        workdir / "resaved-shards", ShardMap.from_index(index, workload.shards)
    ))[0] if workload.sharded else 0.0

    labelling = constants = None
    m["oracle.labelling.build_s"] = m["oracle.planner.calibrate_s"] = 0.0
    m["oracle.labelling.entries_per_vertex"] = 0.0
    if workload.needs_labels:
        labels_dir = dataset.index / LABELS_SUBDIR
        m["oracle.labelling.build_s"] = nominal(lambda: PrunedLabellingOracle.build(network))[0]
        labelling = PrunedLabellingOracle.load(labels_dir, network, mmap=True)
        constants = CostConstants.load(labels_dir)
        m["oracle.labelling.entries_per_vertex"] = labelling.mean_label_size()
        m["oracle.planner.calibrate_s"] = nominal(QueryEngine(
            index, object_index, cache_fraction=CACHE_FRACTION, labelling=labelling,
        ).ensure_planner)[0]

    def engine(cache_fraction: float | None) -> QueryEngine:
        made = QueryEngine(index, object_index, cache_fraction=cache_fraction,
                           labelling=labelling, oracle=workload.oracle)
        if constants is not None:
            made.planner = QueryPlanner(made.oracles, constants=constants, storage=made.storage)
        return made

    return Loaded(network, index, object_index, labelling, engine(None), engine(CACHE_FRACTION))


def variant_of(request: dict) -> str:
    return request.get("variant", "knn")


def chunks(request: dict, size: int) -> list[list[int]]:
    """A batch's queries as the scheduler splits them."""
    queries = request["queries"]
    return [queries[i:i + size] for i in range(0, len(queries), size)]


def replay_all(ld: Loaded, workload: Workload, requests: list[dict], workdir: Path,
               m: dict[str, float]) -> tuple[Rungs, dict[int, str]]:
    """Climb every rung; returns the rungs and each kNN request's backend."""
    index, object_index, plain, stored = ld.index, ld.object_index, ld.plain, ld.stored
    rungs = Rungs(requests)
    knn = [r["kind"] == "knn" for r in requests]
    backends = {
        r["id"]: stored.planner.choose(stored.resolve(r["query"]), r["k"])
        if workload.oracle == "auto" else workload.oracle
        for r in requests if r["kind"] == "knn"
    }

    def kernel(request: dict):
        kind = request["kind"]
        if kind == "knn":
            position = plain.resolve(request["query"])
            backend = backends[request["id"]]
            if backend == "silc":
                return best_first_knn(index, object_index, position, request["k"],
                                      variant=variant_of(request), exact=True)
            return plain.oracles[backend].knn(position, request["k"])
        if kind == "knn_batch":
            return [best_first_knn(index, object_index, plain.resolve(q), request["k"], exact=True)
                    for q in request["queries"]]
        if kind == "path":  # the server answers a path request with both calls
            index.path(request["source"], request["target"])
        return index.distance(request["source"], request["target"])

    def through(engine: QueryEngine) -> Callable[[dict], object]:
        def call(request: dict):
            kind = request["kind"]
            if kind == "knn":
                return engine.knn(request["query"], request["k"],
                                  variant=variant_of(request), exact=True)
            if kind == "knn_batch":
                return [engine.knn_batch(chunk, request["k"], exact=True)
                        for chunk in chunks(request, workload.chunk_size)]
            return kernel(request)  # path/distance bypass QueryEngine in the server too
        return call

    async def climb_rungs() -> None:
        seconds, async_engine = nominal(lambda: AsyncEngine(
            stored, shards=workload.shards,
            shard_dir=workdir / "ladder-shards" if workload.sharded else None,
        ))
        m["shard.spawn_s"] = seconds if workload.sharded else 0.0

        async def awaited(request: dict):
            kind = request["kind"]
            if kind == "knn":
                return await async_engine.knn(request["query"], request["k"],
                                              variant=variant_of(request), exact=True)
            if kind == "knn_batch":
                return [await async_engine.knn_batch(chunk, request["k"], exact=True)
                        for chunk in chunks(request, workload.chunk_size)]
            if kind == "path":
                await async_engine.path(request["source"], request["target"])
            return await async_engine.distance(request["source"], request["target"])

        typed = {r["id"]: request_from_dict(r) for r in requests}
        server = SILCServer(async_engine, scheduler=FairScheduler(chunk_size=workload.chunk_size),
                            admission=AdmissionController())
        ladder = [
            Rung("kernel", "engine", kernel),
            Rung("engine.nostorage", "engine", through(plain)),
            Rung("serve.engine", "serve.server", awaited),
            Rung("serve.server", None, lambda r: server.submit(typed[r["id"]])),
        ]
        group = async_engine.shard_group
        if group is None:
            ladder.append(Rung("engine", "serve.engine", through(stored)))
        else:  # shard workers run without the page simulator: no storage rung
            home = {r["id"]: group.workers[group.shard_map.shard_of_code(
                int(index.vertex_codes[r["query"]]))] for r in requests}
            ladder += [
                Rung("shard.router", "serve.engine", lambda r: group.knn(
                    r["query"], r["k"], variant=variant_of(r))),
                Rung("shard.worker", "shard.router", lambda r: home[r["id"]].knn(
                    plain.resolve(r["query"]), r["k"], variant_of(r))),
                Rung("shard.ping", "shard.worker", lambda r: home[r["id"]].ping()),
            ]
        if workload.oracle == "auto":  # both of the planner's cheap backends, whichever it picks
            ladder += [
                Rung(f"oracle.{backend}", "engine", lambda r, b=backend: plain.oracles[b].knn(
                    plain.resolve(r["query"]), r["k"]), only=knn)
                for backend in ("labels", "ine")
            ]
        try:
            async with server:
                await rungs.replay(ladder)
        finally:
            async_engine.close()

    asyncio.run(climb_rungs())
    if workload.sharded:
        rungs.floors["engine"] = rungs.floors["engine.nostorage"]
    failed = [r for r in rungs.results["serve.server"] if r.status != "ok"]
    if failed:
        raise RuntimeError(f"in-process SILCServer.submit failed: {failed[0]}")
    return rungs, backends


def ladder_metrics(rungs: Rungs, backends: dict[int, str], workload: Workload, wire: Wire,
                   m: dict[str, float]) -> None:
    """Self times (rung minus the rung below) and the kernel rung broken down."""
    requests = rungs.requests
    p50 = rungs.p50_ms
    rungs.calibrate("serve.server", wire.reported_p50_ms)
    m["bench.inprocess_scale"] = rungs.scale
    m["serve.server.submit_ms"] = p50("serve.server")
    m["serve.transport_ms"] = wire.e2e_p50_ms - wire.reported_p50_ms
    m["serve.server.self_ms"] = p50("serve.server") - p50("serve.engine")
    below = "shard.router" if workload.sharded else "engine"
    m["serve.engine.handoff_ms"] = p50("serve.engine") - p50(below)
    for name, rung in (("shard.router.knn_ms", "shard.router"),
                       ("shard.worker.knn_ms", "shard.worker"),
                       ("shard.pipe.ping_us", "shard.ping")):
        m[name] = p50(rung) * (1e3 if name.endswith("_us") else 1) if workload.sharded else 0.0
    m["shard.overhead_ms"] = p50(below) - p50("engine")
    m["storage.overhead_ms"] = p50("engine") - p50("engine.nostorage")
    m["engine.self_ms"] = p50("engine.nostorage") - p50("kernel")
    m["query.kernel_ms"] = p50("kernel")

    def of(kind: str, variant: str | None = None) -> list[bool]:
        return [r["kind"] == kind and variant in (None, variant_of(r)) for r in requests]

    m["engine.knn_ms"] = p50("engine", of("knn"))
    m["engine.knn_batch_ms_per_query"] = p50("engine", of("knn_batch"), per_query=True)
    searched = [r["kind"] == "knn_batch" or backends.get(r["id"]) == "silc" for r in requests]
    m["query.bestfirst.knn_ms"] = p50("kernel", searched, per_query=True)
    for variant in ("inn", "knn_i", "knn_m"):
        m[f"query.bestfirst.knn_ms.{variant}"] = p50("kernel", of("knn", variant))
    m["silc.index.path_ms"] = p50("kernel", of("path"))
    m["silc.index.distance_ms"] = p50("kernel", of("distance"))
    stats = [
        result.stats
        for answer, keep in zip(rungs.results["kernel"], searched, strict=True) if keep
        for result in (answer if isinstance(answer, list) else [answer])
    ]
    for name, field in (("collisions_per_query", "collisions"), ("max_queue_mean", "max_queue")):
        m[f"query.bestfirst.{name}"] = (
            statistics.fmean(getattr(s, field) for s in stats) if stats else 0.0)
    for layer, backend, field in (("labelling", "labels", "label_scans"),
                                  ("ine", "ine", "settled")):
        rung = f"oracle.{backend}"
        answers = [a for a in rungs.results.get(rung, []) if a is not None]
        m[f"oracle.{layer}.knn_ms"] = p50(rung, of("knn")) if answers else 0.0
        m[f"oracle.{layer}.{field}_per_query"] = (
            statistics.fmean(getattr(a.stats, field) for a in answers) if answers else 0.0)


def probe_metrics(ld: Loaded, rungs: Rungs, workload: Workload, seed: int,
                  m: dict[str, float]) -> None:
    """Micro-probes of single calls: seeded vertex pairs, and this workload's requests."""
    index, stored, requests = ld.index, ld.stored, rungs.requests

    def us(calls: list[Callable[[], object]]) -> float:
        return median_us(calls, rungs.scale)

    rng = random.Random(f"{seed}:probes")
    n = ld.network.num_vertices
    pairs = [(s, (s + 1 + rng.randrange(n - 1)) % n)
             for s in (rng.randrange(n) for _ in range(PROBE_PAIRS))]
    codes = index.vertex_codes.tolist()
    tables = index.tables
    m["silc.store.lookup_us"] = us(
        [lambda s=s, t=t: tables[s].lookup(codes[t]) for s, t in pairs])
    m["silc.index.hop_and_interval_us"] = us(
        [lambda s=s, t=t: index.hop_and_interval(s, t) for s, t in pairs])
    m["silc.refinement.step_us"] = us(
        [lambda s=s, t=t: index.refinable(s, t).refine() for s, t in pairs])
    m["silc.index.block_lower_bound_us"] = us([
        lambda s=s, t=t, level=1 + i % 4: index.block_lower_bound(
            s, codes[t] >> (2 * level) << (2 * level), level, account=False)
        for i, (s, t) in enumerate(pairs)])
    m["oracle.labelling.distance_us"] = us(
        [lambda s=s, t=t: ld.labelling.distance(s, t) for s, t in pairs]) if ld.labelling else 0.0
    m["oracle.planner.choose_us"] = us([
        lambda r=r: stored.planner.choose(stored.resolve(r["query"]), r["k"])
        for r in requests if r["kind"] == "knn"]) if workload.oracle == "auto" else 0.0
    m["engine.resolve_us"] = us([
        lambda q=q: stored.resolve(q) for r in requests if "source" not in r
        for q in r.get("queries", [r.get("query")])])
    m["serve.protocol.decode_us"] = us(
        [lambda line=encode(r): request_from_dict(json.loads(line)) for r in requests])
    m["serve.protocol.encode_us"] = us(
        [lambda r=r: json.dumps(response_to_dict(r)) for r in rungs.results["serve.server"]])
    typed = [request_from_dict(r) for r in requests]
    admission = AdmissionController()
    m["serve.admission.admit_us"] = us(
        [lambda r=r: (admission.admit(r), admission.release(r)) for r in typed])
    scheduler = FairScheduler(chunk_size=workload.chunk_size)
    m["serve.scheduler.dispatch_us"] = us(
        [lambda r=r: (scheduler.submit(r), list(scheduler.drain())) for r in typed])
    m["serve.scheduler.chunks_per_request"] = statistics.fmean(
        scheduler.submit(r) for r in typed)


def wire_metrics(wire: Wire, m: dict[str, float]) -> None:
    """Counts read from the real server: registry deltas over one measured round."""
    queries = wire.queries
    m["serve.latency_pooled_p99_ms"] = wire.pooled_p99_ms
    m["serve.latency_raw_p50_ms"] = wire.raw_p50_ms
    m["bench.host_slowdown"] = wire.slowdown
    m["serve.shed_count"] = wire.count("requests_total", outcome="shed", stage="serve")
    for backend in ("silc", "labels", "ine"):
        m[f"oracle.planner.decisions.{backend}"] = wire.count(
            "planner_decisions_total", oracle=backend, stage="plan")
    for name, op in (("query.bestfirst.refinements", "refinements"),
                     ("query.bestfirst.queue_pushes", "queue_pushes"),
                     ("storage.io_accesses", "io_accesses"),
                     ("storage.io_misses", "io_misses")):
        m[f"{name}_per_query"] = wire.count("engine_ops_total", op=op, stage="engine") / queries
    visited = wire.count("router_shards_total", event="visited", stage="route")
    pruned = (wire.count("router_shards_total", event="pruned_euclid", stage="route")
              + wire.count("router_shards_total", event="pruned_lambda", stage="route"))
    m["shard.router.prune_rate"] = pruned / (visited + pruned) if visited + pruned else 0.0
    m["shard.router.shards_visited_per_query"] = visited / queries
    m["shard.router.bound_probes_per_query"] = wire.count(
        "router_bound_probes_total", stage="route") / queries
    m["shard.fault_events"] = sum(
        v for k, v in wire.counted.items() if k.startswith("fault_events_total"))


def trace_overhead_ms(workload: Workload, requests: list[dict], dataset: data.Dataset,
                      wire: Wire, env: dict, workdir: Path) -> float:
    """Floor p50 against a ``--trace-file`` server minus the untraced one."""
    lines = loadgen.encode_all(requests)
    traced = data.Server(dataset, workload, env, workdir / "serve-traced.log",
                         extra_flags=("--trace-file", str(workdir / "program-trace.jsonl")))
    try:
        floors = loadgen.Floors()
        for round_no in range(1 + wire.rounds):
            rnd = loadgen.play_round(traced, lines)
            if rnd.missing:
                raise RuntimeError("traced server stopped answering")
            if round_no:  # round 0 warms up
                floors.add(rnd)
    finally:
        traced.close()
    return floors.p50_ms() - wire.e2e_p50_ms


def climb(
    workload: Workload, requests: list[dict], dataset: data.Dataset, seed: int,
    wire: Wire, env: dict, workdir: Path, spans_file: Path,
) -> dict[str, float]:
    """Every per-layer metric of one workload (see the module docstring)."""
    m: dict[str, float] = {}
    ld = load(workload, dataset, workdir, m)
    rungs, backends = replay_all(ld, workload, requests, workdir, m)
    rungs.write(spans_file)
    ladder_metrics(rungs, backends, workload, wire, m)
    probe_metrics(ld, rungs, workload, seed, m)
    wire_metrics(wire, m)
    m["obs.trace_overhead_ms"] = trace_overhead_ms(
        workload, requests, dataset, wire, env, workdir)
    return m
