#!/usr/bin/env python3
"""The repo's benchmark: closed-loop ``repro serve`` workloads, verified.

Driver form (one workload, one JSON object as the last stdout line)::

    python3 bench/run.py --workload browse-deep --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a shorter served run for the wire counters, then the in-process
layer ladder).  Without ``--workload`` every workload runs in turn;
``--out FILE`` keeps the full result.  ``--compare A B`` judges two
results (files, or directories of them: medians) against the bounds in
BENCHMARK.json.  See bench/README.md for the metric glossary and the
estimator.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"{Path(__file__).name}: no program to measure at {SRC}/repro")
sys.path.insert(0, str(SRC))

from silcbench import data, ladder, loadgen, speed, verify  # noqa: E402
from silcbench.workloads import SIZE, WORKLOADS, Workload, queries_in  # noqa: E402

#: Times the whole set-up is repeated for ``setup_s`` (median per phase).
SETUPS = 3
#: Measured rounds a run never goes below, whatever ``--seconds`` says.
MIN_ROUNDS = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def flatten(snapshot: dict) -> dict[str, float]:
    """Registry counters as ``name{label=value,...}`` -> value."""
    out = {}
    for sample in snapshot["counters"]:
        labels = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
        out[f"{sample['name']}{{{labels}}}"] = sample["value"]
    return out


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def set_up(workload: Workload, size: int, repeats: int, workdir: Path, env: dict):
    """Repeat the whole set-up; keep the last server.  Returns
    ``(dataset, server, {phase: [seconds per repeat]})``."""
    phases: dict[str, list[float]] = {}
    dataset = server = None
    for rep in range(repeats):
        if server is not None:
            server.close()
            shutil.rmtree(dataset.index)
        dataset = data.prepare(workdir, str(rep), size, workload.needs_labels, env)
        server = data.Server(dataset, workload, env, workdir / "serve.log")
        dataset.phases["serve_ready"] = server.ready_seconds
        for phase, seconds in dataset.phases.items():
            phases.setdefault(phase, []).append(seconds)
    return dataset, server, phases


def index_bytes(dataset: data.Dataset, workload: Workload, tmp: Path) -> int:
    """Bytes on disk of everything the server opened."""
    total = data.tree_bytes(dataset.index)
    if workload.sharded:
        total += sum(data.tree_bytes(p) for p in tmp.glob("repro-shards-*"))
    return total


class Judge:
    """Counts requests attempted and failed; remembers what went wrong."""

    def __init__(self, requests: list[dict], truth: verify.Truth) -> None:
        self.requests = requests
        self.truth = truth
        self.reference: list[str] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def round(self, rnd: loadgen.Round) -> list[dict]:
        """Check one round: the first against ground truth, later ones
        against the first.  Returns the decoded replies."""
        decoded, stable = [], []
        for request, line in zip(self.requests, rnd.replies, strict=True):
            self.attempted += 1
            if line is None:
                problem = "no reply"
            else:
                reply, canon = verify.canonical(line)
                decoded.append(reply)
                stable.append(canon)
                if self.reference is None:
                    problem = self.truth.check(request, reply)
                elif canon != self.reference[request["id"]]:
                    problem = "answer differs from round 1"
                else:
                    problem = None
            if problem:
                self.failed += 1
                self.problems.append(f"request {request}: {problem}")
        if self.reference is None:
            self.reference = stable
        return decoded


@dataclass
class Served:
    """What the measured rounds against the real server produced."""

    floors: loadgen.Floors = field(default_factory=loadgen.Floors)
    #: The server's own ``latency`` per request (speed-normalised, floored).
    reported: list[float] = field(default_factory=list)
    #: Registry counter deltas, one dict per measured round.
    counted: list[dict[str, float]] = field(default_factory=list)
    rss_mb: float = 0.0


def serve_rounds(
    server: data.Server, lines: list[bytes], judge: Judge,
    enough: Callable[[int, float], bool],
) -> Served:
    """Warm-up round, then measured rounds until ``enough(rounds, seconds)``."""
    out = Served()
    warm = loadgen.play_round(server, lines)
    judge.round(warm)  # checked against ground truth; the reference for later rounds
    if warm.missing:
        return out
    before = flatten(server.stats())
    began = time.perf_counter()
    while not enough(out.floors.rounds, time.perf_counter() - began):
        rnd = loadgen.play_round(server, lines)
        replies = judge.round(rnd)
        if rnd.missing:
            break
        out.floors.add(rnd)
        out.reported = loadgen.floor(out.reported, [
            reply.get("latency", 0.0) * factor
            for reply, factor in zip(replies, speed.factors(rnd.slices), strict=True)
        ])
        after = flatten(server.stats())
        out.counted.append(delta(after, before))
        before = after
        if out.floors.rounds == 1:
            # Read at a fixed point of the run, so the figure does not
            # depend on how many rounds this machine fits in --seconds.
            out.rss_mb = data.peak_rss_mb(server.pids())
    return out


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, size: int,
    count: int | None, workdir: Path,
) -> dict:
    """Set up, serve, verify and (when tracing) climb the layer ladder."""
    env = data.child_env(SRC, workdir / "tmp")
    if trace and count is None:
        count = max(60, workload.requests // 3)  # the ladder replays it ~20 times
    requests = workload.request_list(seed, size, count)
    queries = sum(queries_in(r) for r in requests)
    dataset, server, phases = set_up(workload, size, 1 if trace else SETUPS, workdir, env)
    if trace:
        # As many rounds as each ladder rung is replayed, so both floors
        # are minima over the same number of samples.
        def enough(rounds: int, spent: float) -> bool:
            return rounds >= ladder.REPEATS
    else:
        def enough(rounds: int, spent: float) -> bool:
            return rounds >= MIN_ROUNDS and spent >= seconds
    try:
        judge = Judge(requests, verify.Truth(dataset.network))
        served = serve_rounds(server, loadgen.encode_all(requests), judge, enough)
        index_mb = index_bytes(dataset, workload, workdir / "tmp") / 1e6
    finally:
        stray = server.close()

    floors, counted, problems = served.floors, served.counted, judge.problems
    # One client, one request at a time: every counter the server keeps is
    # a pure function of the request list and must repeat round after round.
    unequal = sorted({k for d in counted for k in d if d[k] != counted[0].get(k)})
    if unequal:
        problems.append(f"counted metrics differ between rounds: {unequal}")
    if stray:
        problems.append(f"server processes survived shutdown: {stray}")
    result = {
        "workload": workload.name, "seed": seed, "size": size,
        "requests": len(requests), "rounds": floors.rounds,
        "attempted": judge.attempted, "failed": judge.failed,
        "correct": not problems, "problems": problems[:20],
        "phases_s": {p: statistics.median(v) for p, v in phases.items()},
        "counted_per_round": counted[0] if counted else {},
        "end_to_end": {}, "per_layer": {},
    }
    if floors.rounds:
        result["end_to_end"] = {
            "latency_p50_ms": floors.p50_ms(),
            "latency_p95_ms": floors.p95_ms(),
            "throughput_qps": floors.throughput_qps(queries),
            "setup_s": sum(result["phases_s"].values()),
            "rss_peak_mb": served.rss_mb,
            "index_mb": index_mb,
        }
    if trace and floors.rounds and not problems:
        wire = ladder.Wire(
            e2e_p50_ms=floors.p50_ms(),
            raw_p50_ms=floors.raw_p50_ms(),
            reported_p50_ms=statistics.median(served.reported) * 1e3,
            pooled_p99_ms=floors.pooled_p99_ms(),
            slowdown=statistics.fmean(floors.slowdown),
            counted=counted[0],
            queries=queries,
            rounds=floors.rounds,
        )
        result["per_layer"] = ladder.climb(
            workload, requests, dataset, seed, wire, env, workdir,
            BENCH / "out" / f"trace-{workload.name}.jsonl",
        )
    return result


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def report(result: dict) -> None:
    """Every metric by name with its unit, one per line."""
    print(f"== {result['workload']}: {result['requests']} requests x "
          f"{result['rounds']} measured rounds, seed {result['seed']}; "
          f"{result['failed']} of {result['attempted']} failed")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")
    for section in ("end_to_end", "per_layer"):
        unit = units(section)
        for name, value in result[section].items():
            print(f"   {name:44s} {value:14.6g} {unit[name]}")
    if result["per_layer"]:
        print(f"   {'ladder sum vs latency_p50_ms':44s} "
              f"{ladder.ladder_sum(result['per_layer']):14.6g} ms vs "
              f"{result['end_to_end']['latency_p50_ms']:.6g} ms")


def driver_line(result: dict, trace: bool) -> str:
    section = "per_layer" if trace else "end_to_end"
    unit = units(section)
    missing = set(unit) - set(result[section])
    if missing:
        raise SystemExit(f"no value for {sorted(missing)}: {result['problems']}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result[section][n], "unit": unit[n]} for n in unit},
    })


def load_side(path: Path) -> dict:
    """``{workload: {section: {metric: median}}, ...}`` of a file or a directory of files."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text())["workloads"] for f in files]
    side: dict = {}
    for name in runs[0]:
        side[name] = {"counted_per_round": runs[0][name]["counted_per_round"]}
        for section in ("end_to_end", "per_layer"):
            side[name][section] = {
                metric: statistics.median(r[name][section][metric] for r in runs)
                for metric in runs[0][name][section]
            }
        if any(r[name]["counted_per_round"] != side[name]["counted_per_round"] for r in runs):
            side[name]["counted_per_round"] = None
    return side


def compare(a_path: Path, b_path: Path) -> int:
    """B against A: exit 1 when B is worse by more than a bound, or a count moved."""
    a, b = load_side(a_path), load_side(b_path)
    regressed = False
    print(f"{'workload':16s} {'metric':16s} {'A':>12s} {'B':>12s} {'B vs A':>8s} {'bound':>6s}")
    for name in a:
        for spec in SPEC["end_to_end"]:
            va, vb = a[name]["end_to_end"][spec["name"]], b[name]["end_to_end"][spec["name"]]
            change = (vb - va) / va
            worse = change if spec["better"] == "lower" else -change
            regressed |= worse > spec["bound"]
            print(f"{name:16s} {spec['name']:16s} {va:12.5g} {vb:12.5g} {change:+8.1%} "
                  f"{spec['bound']:6.0%}{'  WORSE' if worse > spec['bound'] else ''}")
        counts = a[name]["counted_per_round"]
        if counts is None or counts != b[name]["counted_per_round"]:
            regressed = True
            print(f"{name:16s} counted metrics differ")
    return int(regressed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long the measured rounds of a workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics (wire counters + layer ladder)")
    parser.add_argument("--size", type=int, default=SIZE, help="network vertices")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per round (default: the workload's own)")
    parser.add_argument("--out", type=Path, default=None, help="write the full result here")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where generated data goes (default: a fresh "
                        "directory under bench/.work, removed on exit)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), default=None)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    # SIGTERM unwinds like Ctrl-C so servers die and scratch is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    speed.pin_to_one_cpu()
    own_workdir = args.workdir is None
    if own_workdir:
        (BENCH / ".work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    else:
        workdir = args.workdir.resolve()
        workdir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            sub = workdir / name
            sub.mkdir(exist_ok=True)
            results[name] = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                args.size, args.requests, sub,
            )
            report(results[name])
            shutil.rmtree(sub, ignore_errors=True)
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "workloads": results}, indent=1
        ))
    if args.workload:
        print(driver_line(results[args.workload], bool(args.trace)))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
