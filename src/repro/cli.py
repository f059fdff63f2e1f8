"""Command-line interface for the SILC toolkit.

A small operational surface so the library can be driven without
writing Python -- generate networks, run the precompute, persist the
index, and answer queries from the shell::

    python -m repro generate --kind road --size 1000 --seed 7 net.txt
    python -m repro build net.txt index.dir --workers 0
    python -m repro build-labels net.txt index.dir
    python -m repro stats net.txt index.dir
    python -m repro path net.txt index.dir 0 250
    python -m repro knn net.txt index.dir --query 0 --k 5 --objects 40
    python -m repro serve net.txt index.dir --objects 40 < requests.jsonl

``build --workers`` fans the per-source precompute across a process
pool (0 = one worker per CPU; the result is byte-identical to a serial
build); ``build-labels`` adds the pruned-landmark
labelling backend (columns in ``<index>/labels/``, plus a calibrated
planner cost model); ``knn`` accepts ``--query`` repeatedly and
answers the whole batch through one :class:`~repro.engine.QueryEngine`
(``--oracle`` picks the backend, ``--epsilon`` relaxes to
(1+eps)-approximate answers); ``serve`` runs the asyncio serving
layer as a stdin/stdout JSON-lines loop (one request object per line;
see :mod:`repro.serve.protocol`) -- with ``--trace-file`` it writes
one JSON-lines trace per request (``--slow-log`` tees the span trees
of requests over ``--slow-threshold-ms`` to their own file), and a
``{"kind": "stats"}`` request answers with the unified metrics
registry; ``trace-report`` aggregates a trace file into the per-stage
latency/counted-op breakdown.

An index is a *directory* of raw ``.npy`` columns with a checksum
``MANIFEST.json``; the query commands can open it zero-copy with
``--mmap``, and ``build-labels`` puts the labelling columns in its
``labels/`` subdirectory, next to the quadtree store.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import CorruptIndexError
from repro.network import load_text
from repro.network.errors import NetworkError
from repro.options import DEFAULT_MAX_LOCATIONS, ORACLE_CHOICES

if TYPE_CHECKING:
    from repro.engine import QueryEngine

# Each command imports what it runs inside its own function: ``generate``
# and ``build`` never load the engine, the oracles, the serving stack or
# asyncio, and only ``build`` loads SciPy.


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.network import (
        grid_network,
        random_planar_network,
        road_like_network,
        save_text,
    )

    if args.kind == "road":
        net = road_like_network(args.size, seed=args.seed)
    elif args.kind == "grid":
        side = max(2, int(round(args.size**0.5)))
        net = grid_network(side, side, jitter=0.2, weight_noise=0.2, seed=args.seed)
    else:
        net = random_planar_network(args.size, seed=args.seed)
    save_text(net, args.network)
    print(
        f"wrote {args.kind} network: {net.num_vertices} vertices, "
        f"{net.num_edges} edges -> {args.network}"
    )
    return 0


def _progress_printer(unit: str):
    """A build progress callback: a stderr line every 2 s and at the end."""
    last_report = [0.0]

    def progress(done: int, total: int) -> None:
        now = time.perf_counter()
        if now - last_report[0] >= 2.0 or done == total:
            last_report[0] = now
            print(f"  {done}/{total} {unit}", file=sys.stderr)

    return progress


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.silc import SILCIndex

    net = load_text(args.network)
    t0 = time.perf_counter()
    index = SILCIndex.build(
        net,
        chunk_size=args.chunk_size,
        progress=_progress_printer("sources"),
        workers=args.workers,
    )
    dt = time.perf_counter() - t0
    t_save = time.perf_counter()
    index.save(args.index)
    t_save = time.perf_counter() - t_save
    print(
        f"built SILC index in {dt:.1f}s (+{t_save:.1f}s save): "
        f"{index.total_blocks()} Morton blocks "
        f"({index.storage_bytes() / 1024:.0f} KiB) -> {args.index}"
    )
    return 0


def _load_labelling(args, net):
    """Resolve ``--oracle`` to a (labelling, cost constants) pair.

    * saved labelling next to the index -> load it (``--mmap`` maps
      the columns) together with any persisted cost model -- whatever
      the default oracle, so serve requests can override per query;
    * ``--oracle labels`` without one -> build in memory, with a
      note that ``repro build-labels`` would persist the work;
    * otherwise -> nothing to load; ``auto`` without a labelling
      plans over the remaining backends.
    """
    from repro.oracle import LABELS_SUBDIR, CostConstants, PrunedLabellingOracle

    labels_dir = Path(args.index) / LABELS_SUBDIR
    if PrunedLabellingOracle.saved_at(labels_dir):
        labelling = PrunedLabellingOracle.load(labels_dir, net, mmap=args.mmap)
        return labelling, CostConstants.load(labels_dir)
    if args.oracle == "labels":
        print(
            "no saved labelling next to the index; building in memory "
            "(run `repro build-labels` to persist it)",
            file=sys.stderr,
        )
        return PrunedLabellingOracle.build(net), None
    return None, None


def _make_engine(args, net, labelling=None, **engine_options) -> QueryEngine:
    """The engine a command queries: index, random objects, labelling, planner.

    Given a ``labelling`` (``build-labels``, about to calibrate one) it
    is used as is; otherwise ``--oracle`` resolves one via
    :func:`_load_labelling` and persisted cost constants, if any,
    become the planner.
    """
    from repro.datasets import random_vertex_objects
    from repro.engine import QueryEngine
    from repro.objects import ObjectIndex
    from repro.oracle import QueryPlanner
    from repro.silc import SILCIndex

    index = SILCIndex.load(args.index, net, mmap=args.mmap)
    objects = random_vertex_objects(net, count=args.objects, seed=args.seed)
    object_index = ObjectIndex(net, objects, index.embedding)
    constants = None
    if labelling is None:
        labelling, constants = _load_labelling(args, net)
    engine = QueryEngine(
        index, object_index, labelling=labelling, **engine_options
    )
    if constants is not None:
        engine.planner = QueryPlanner(engine.oracles, constants=constants)
    return engine


def _cmd_build_labels(args: argparse.Namespace) -> int:
    from repro.oracle import LABELS_SUBDIR, PrunedLabellingOracle

    net = load_text(args.network)
    index_dir = Path(args.index)
    if not index_dir.is_dir():
        print(
            f"build-labels needs a built index: {args.index} is not an "
            "index directory (run `repro build` first)",
            file=sys.stderr,
        )
        return 2
    labels_dir = index_dir / LABELS_SUBDIR
    labelling = PrunedLabellingOracle.build(
        net, progress=_progress_printer("hubs")
    )
    labelling.save(labels_dir)
    bs = labelling.build_stats
    print(
        f"built pruned-landmark labelling in {bs.build_seconds:.1f}s: "
        f"{bs.entries_out + bs.entries_in} entries "
        f"({labelling.mean_label_size():.1f}/vertex out+in) -> {labels_dir}"
    )
    if args.skip_calibration:
        return 0
    engine = _make_engine(args, net, labelling)
    planner = engine.ensure_planner()
    planner.constants.save(labels_dir)
    print(f"calibrated planner cost model -> {labels_dir}")
    for k in (1, 4, 16):
        print(f"  {planner.explain(k)}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.silc import SILCIndex

    net = load_text(args.network)
    index = SILCIndex.load(args.index, net, mmap=args.mmap)
    per_vertex = index.blocks_per_vertex()
    print(f"vertices:        {net.num_vertices}")
    print(f"edges:           {net.num_edges}")
    print(f"morton blocks:   {index.total_blocks()}")
    print(f"blocks/vertex:   {per_vertex.mean():.1f} "
          f"(min {per_vertex.min()}, max {per_vertex.max()})")
    print(f"storage ({index.record_bytes} B):  {index.storage_bytes() / 1024:.0f} KiB")
    print(f"grid order:      {index.embedding.order}")
    n = net.num_vertices
    print(f"blocks/N^1.5:    {index.total_blocks() / n**1.5:.2f}")
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    from repro.silc import SILCIndex

    net = load_text(args.network)
    index = SILCIndex.load(args.index, net, mmap=args.mmap)
    path, dist = index.route(args.source, args.target)
    print(" -> ".join(map(str, path)))
    print(f"network distance: {dist:.6g} ({len(path) - 1} links)")
    return 0


def _cmd_knn(args: argparse.Namespace) -> int:
    net = load_text(args.network)
    engine = _make_engine(args, net, oracle=args.oracle)
    objects = engine.object_index.objects
    batch = engine.knn_batch(
        args.query, args.k, exact=True, epsilon=args.epsilon
    )
    for query, result in zip(args.query, batch.results, strict=True):
        if len(args.query) > 1:
            print(f"query vertex {query}:")
        for rank, n in enumerate(result.neighbors, start=1):
            vertex = objects[n.oid].position.vertex
            # best_estimate == the exact distance everywhere except the
            # --epsilon path, whose neighbors keep their intervals.
            print(f"#{rank}  object {n.oid}  vertex {vertex}  "
                  f"distance {n.best_estimate:.6g}")
    stats = batch.stats
    counters = [f"{stats.refinements} refinements"]
    if stats.label_scans:
        counters.append(f"{stats.label_scans} label scans")
    if stats.settled:
        counters.append(f"{stats.settled} settled")
    print(
        f"({', '.join(counters)}, "
        f"peak queue {max(r.stats.max_queue for r in batch.results)})"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        AdmissionController,
        AsyncEngine,
        FairScheduler,
        SILCServer,
        serve_jsonl,
    )

    net = load_text(args.network)
    engine = _make_engine(
        args, net,
        max_locations=args.max_locations,
        oracle=args.oracle,
    )

    tracer = None
    sinks = []
    if args.trace_file or args.slow_log:
        from repro.obs import JsonlTraceSink, SlowQueryLog, Tracer

        slow_log = None
        if args.slow_log:  # a bad threshold fails before any file is opened
            slow_log = SlowQueryLog(args.slow_threshold_ms / 1000.0)
            slow_log.sink = JsonlTraceSink(args.slow_log)
            sinks.append(slow_log.sink)
        trace_sink = None
        if args.trace_file:
            trace_sink = JsonlTraceSink(args.trace_file)
            sinks.append(trace_sink)
        tracer = Tracer(sink=trace_sink, slow_log=slow_log)

    fault_injector = None
    if getattr(args, "inject_kill", None):
        from repro.faults import FaultInjector

        fault_injector = FaultInjector()
        for spec in args.inject_kill:
            try:
                shard_text, nth_text = spec.split(":", 1)
                fault_injector.kill_worker_at(int(shard_text), int(nth_text))
            except ValueError:
                print(
                    f"bad --inject-kill {spec!r}: expected SHARD:N "
                    "(e.g. 0:3 kills shard 0's worker before its 3rd "
                    "request)",
                    file=sys.stderr,
                )
                return 2
        if args.shards < 2:
            print(
                "--inject-kill needs the shard tier (--shards > 1)",
                file=sys.stderr,
            )
            return 2

    async def run() -> int:
        async with AsyncEngine(
            engine, shards=args.shards, fault_injector=fault_injector,
        ) as async_engine:
            server = SILCServer(
                async_engine,
                scheduler=FairScheduler(chunk_size=args.chunk_size),
                admission=AdmissionController(
                    max_in_flight=args.max_in_flight,
                    rate=args.rate,
                    burst=args.burst,
                ),
                tracer=tracer,
            )
            # Binary: a pipe and a file share one UTF-8 decoder.
            with open(args.input or sys.stdin.fileno(), "rb", closefd=bool(args.input)) as in_stream:
                snapshot = await serve_jsonl(server, in_stream, sys.stdout)
        print(snapshot.format(), file=sys.stderr)
        if tracer is not None:
            extras = [f"{tracer.finished} traces"]
            if args.trace_file:
                extras.append(f"-> {args.trace_file}")
            if tracer.slow_log is not None:
                extras.append(
                    f"({tracer.slow_log.captured} over "
                    f"{args.slow_threshold_ms:.0f} ms -> {args.slow_log})"
                )
            print(" ".join(extras), file=sys.stderr)
        return 0

    try:
        return asyncio.run(run())
    finally:
        for sink in sinks:
            sink.close()


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import format_trace_report, load_trace_file

    try:
        traces = load_trace_file(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"bad trace file: {exc}", file=sys.stderr)
        return 1
    print(format_trace_report(traces))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.runner import run_check

    return run_check(as_json=args.as_json)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SILC: scalable network distance browsing (SIGMOD 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic network")
    p.add_argument("network", help="output network file (text format)")
    p.add_argument("--kind", choices=["road", "grid", "planar"], default="road")
    p.add_argument("--size", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("build", help="run the SILC precompute")
    p.add_argument("network")
    p.add_argument(
        "index",
        help="output index directory (raw .npy columns plus a checksum "
        "manifest; loadable with --mmap)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the per-source builds "
        "(1 = serial, 0 = one per available CPU; the parallel result "
        "is byte-identical to the serial one)",
    )
    p.add_argument(
        "--chunk-size",
        type=int,
        default=128,
        help="sources per shortest-path batch (memory/throughput knob)",
    )
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "build-labels",
        help="add a pruned-landmark labelling backend to a built index",
    )
    p.add_argument("network")
    p.add_argument(
        "index",
        help="existing index directory; the labelling columns "
        "and calibrated cost model land in its labels/ subdirectory",
    )
    p.add_argument(
        "--skip-calibration",
        action="store_true",
        help="only build and save the label columns (no planner cost "
        "model; `--oracle auto` will calibrate lazily at serve time)",
    )
    p.add_argument("--objects", type=int, default=25,
                   help="random vertex objects calibration queries run over")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the index during calibration")
    p.set_defaults(func=_cmd_build_labels)

    p = sub.add_parser("stats", help="report index statistics")
    p.add_argument("network")
    p.add_argument("index")
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the index columns")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("path", help="retrieve a shortest path")
    p.add_argument("network")
    p.add_argument("index")
    p.add_argument("source", type=int)
    p.add_argument("target", type=int)
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the index columns")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("knn", help="k nearest random objects to a vertex")
    p.add_argument("network")
    p.add_argument("index")
    p.add_argument(
        "--query",
        type=int,
        action="append",
        required=True,
        help="query vertex; repeat the flag to answer a whole batch "
        "through one QueryEngine",
    )
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--objects", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--oracle",
        choices=list(ORACLE_CHOICES),
        default="silc",
        help="kNN backend: silc (best-first browsing), labels "
        "(2-hop labelling IER), ine (network expansion) or auto "
        "(per-query cost-based planning)",
    )
    p.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="(1+epsilon)-approximate search on the SILC backend "
        "(0 = exact, the default)",
    )
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the index columns")
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser(
        "serve",
        help="answer JSON-lines requests through the async serving layer",
    )
    p.add_argument("network")
    p.add_argument("index")
    p.add_argument("--objects", type=int, default=25,
                   help="random vertex objects to serve kNN over")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-locations", type=int,
                   default=DEFAULT_MAX_LOCATIONS,
                   help="bound on the resolved-location LRU cache")
    p.add_argument("--chunk-size", type=int, default=32,
                   help="queries per fair-scheduler chunk (batch split size)")
    p.add_argument("--max-in-flight", type=int, default=1024,
                   help="global cap on admitted-but-unfinished queries; "
                   "requests past it are rejected with retry_after")
    p.add_argument("--rate", type=float, default=None,
                   help="per-client token-bucket rate (queries/second; "
                   "omit for unlimited)")
    p.add_argument("--burst", type=float, default=None,
                   help="per-client token-bucket burst (defaults to --rate, "
                   "and to at least 1; needs --rate)")
    p.add_argument("--input", default=None,
                   help="read requests from a file instead of stdin")
    p.add_argument("--shards", type=int, default=1,
                   help="shard worker *processes* for kNN queries: each "
                   "maps the whole index and holds every object, and "
                   "each query goes to one idle worker, so N buys N "
                   "queries in flight, not a partition (1 = in-process; "
                   "the shard tier serves the silc backend only)")
    p.add_argument("--inject-kill", action="append", default=[],
                   metavar="SHARD:N",
                   help="fault injection (repeatable): kill the given "
                   "shard's worker immediately before its Nth request, "
                   "exercising the recovery path deterministically "
                   "(chaos testing; requires --shards > 1)")
    p.add_argument(
        "--oracle",
        choices=list(ORACLE_CHOICES),
        default="silc",
        help="default kNN backend for requests that do not name one "
        "(a request's own \"oracle\" field overrides per query)",
    )
    p.add_argument("--mmap", action="store_true",
                   help="memory-map the index columns")
    p.add_argument("--trace-file", default=None,
                   help="append one JSON-lines trace per request "
                   "(timed spans: admission, sched_wait, plan, "
                   "oracle:<backend>, shard:<id>, ...); read it back "
                   "with `repro trace-report`")
    p.add_argument("--slow-log", default=None,
                   help="tee the full span trees of requests over "
                   "--slow-threshold-ms to this JSON-lines file")
    p.add_argument("--slow-threshold-ms", type=float, default=250.0,
                   help="latency threshold for --slow-log capture "
                   "(milliseconds)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace-report",
        help="aggregate a serve --trace-file into a per-stage "
        "latency/counted-op breakdown",
    )
    p.add_argument("trace_file",
                   help="JSON-lines trace file written by "
                   "`repro serve --trace-file` (or --slow-log)")
    p.set_defaults(func=_cmd_trace_report)

    p = sub.add_parser(
        "check",
        help="run the project's static-analysis rules (RPR001+) over "
        "the whole installed repro package",
    )
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit a machine-readable JSON report")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; an operator error is one stderr line and exit 2.

    A bad value (``ValueError``), a vertex or path the network does not
    have (:class:`~repro.network.errors.NetworkError`) and an index that
    fails its checks (:class:`~repro.errors.CorruptIndexError`) print
    ``repro <command>: error: <message>``, the way argparse reports a
    bad flag.  Anything else is a bug and keeps its traceback.
    """
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NetworkError, CorruptIndexError) as exc:
        # A KeyError subclass (EdgeNotFound) would print its message quoted.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
