"""Alternating parent/change pairs of the repo's benchmark, on frozen copies.

A perf claim is judged on pairs of ``bench/run.py`` runs -- the parent
commit and the change, one after the other, alternating which goes
first, a fresh seed per pair (BENCHMARK.json's rule: the change must win
nine pairs in ten and the medians must be further apart than the
parent's own quartiles).  This script is that procedure: it exports
``--parent REV`` with ``git archive`` and copies the working tree's
tracked and untracked-unignored files, each into a temporary directory
nothing edits, runs

    python3 bench/run.py --workload W --seed S --trace 0 [run.py options]

on both, refuses a run that is not ``correct`` or has failed requests,
and writes the workload's section of ``BENCH_<pr>.json``: every run,
medians, quartiles, pairs won, host, and the quartiles of each set-up
phase ``setup_s`` sums (``generate``, ``build``, ...).  One invocation measures one
workload; the file accumulates them.  ``--traced`` adds the one traced
pair (``--seed 7 --trace 1``, all workloads) and what ``run.py
--compare`` says about it.  Options this script does not know
(``--size``, ``--requests``, ``--seconds``) go to ``run.py`` as they are.

Usage: bench_pairs.py --pr N --parent REV [--workload W --pairs N]
                      [--first-seed S] [--traced] [--out FILE] [run.py options]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer rows a kernel or front-end change is read against.
LAYER_ROWS = (
    "serve.transport_ms", "serve.server.self_ms", "serve.server.submit_ms",
    "serve.engine.handoff_ms", "serve.scheduler.dispatch_us", "engine.knn_ms",
    "query.kernel_ms", "query.bestfirst.knn_ms", "silc.index.distance_ms",
    "silc.index.path_ms", "silc.store.lookup_us", "silc.index.hop_and_interval_us",
    "silc.refinement.step_us", "silc.index.block_lower_bound_us",
    "storage.overhead_ms",
)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout


def freeze(parent: str, scratch: Path) -> dict[str, Path]:
    """``{"parent": dir, "change": dir}``: ``parent`` exported by ``git
    archive``, the change copied from the working tree."""
    sides = {"parent": scratch / "parent", "change": scratch / "change"}
    sides["parent"].mkdir()
    archive = scratch / "parent.tar"
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "-o", str(archive), parent], check=True
    )
    shutil.unpack_archive(archive, sides["parent"])
    archive.unlink()
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        if name and (ROOT / name).is_file():
            target = sides["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target)
    return sides


def run(side: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=side, capture_output=True, text=True
    )


def measure(side: Path, workload: str, seed: int, passthrough: list[str]) -> dict:
    """One untraced run: ``{metric: value}`` and ``{"phase.<name>": seconds}``
    for each set-up phase ``setup_s`` sums, or exit if it cannot be used."""
    out = side.parent / f"{side.name}-run.json"
    done = run(side, "--workload", workload, "--seed", str(seed), "--trace", "0",
               "--out", str(out), *passthrough)
    if done.returncode:
        raise SystemExit(f"{side.name} seed {seed}: run.py exited {done.returncode}\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise SystemExit(
            f"{side.name} seed {seed}: correct={line['correct']} failed={line['failed']} "
            f"of {line['attempted']}; not recording it\n{done.stdout}"
        )
    phases = json.loads(out.read_text())["workloads"][workload]["phases_s"]
    return {
        **{name: m["value"] for name, m in line["metrics"].items()},
        **{f"phase.{name}": seconds for name, seconds in phases.items()},
    }


def quartiles(runs: list[float]) -> dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    )
    return {"q1": q1, "median": median, "q3": q3}


def pairs(sides: dict[str, Path], workload: str, count: int, first_seed: int,
          passthrough: list[str]) -> dict:
    seeds = [first_seed + i for i in range(count)]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    order = []
    for i, seed in enumerate(seeds):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(first)
        for name in (first, second):
            runs[name].append(measure(sides[name], workload, seed, passthrough))
            print(f"{workload} seed {seed} {name:6s} "
                  f"p50 {runs[name][-1]['latency_p50_ms']:.4g} ms", flush=True)
    metrics = {}
    for spec in SPEC["end_to_end"]:
        parent = [r[spec["name"]] for r in runs["parent"]]
        change = [r[spec["name"]] for r in runs["change"]]
        lower = spec["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        lost = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        p, c = quartiles(parent), quartiles(change)
        metrics[spec["name"]] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c,
            "change_vs_parent_median": (c["median"] - p["median"]) / p["median"],
            "pairs_won_by_change": won, "pairs_won_by_parent": lost,
            "parent_runs": parent, "change_runs": change,
        }
    phases = {
        key.removeprefix("phase."): {
            side: quartiles([r[key] for r in runs[side]]) for side in ("parent", "change")
        }
        for key in runs["parent"][0] if key.startswith("phase.")
    }
    return {"seeds": seeds, "ran_first": order, "pairs": count,
            "all_correct": True, "failed": 0, "metrics": metrics, "phases_s": phases}


def traced_pair(sides: dict[str, Path], scratch: Path, passthrough: list[str]) -> dict:
    """Parent then change at ``--seed 7 --trace 1``, and ``--compare``'s verdict."""
    results = {}
    for name in ("parent", "change"):
        out = scratch / f"{name}.json"
        done = run(sides[name], "--seed", "7", "--trace", "1", "--out", str(out), *passthrough)
        if done.returncode:
            raise SystemExit(f"traced {name} run exited {done.returncode}\n{done.stdout}{done.stderr}")
        results[name] = json.loads(out.read_text())["workloads"]
    compared = run(sides["change"], "--compare", str(scratch / "parent.json"),
                   str(scratch / "change.json"))
    print(compared.stdout, flush=True)
    count_units = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    differences = []
    for name, parent in results["parent"].items():
        change = results["change"][name]
        if parent["counted_per_round"] != change["counted_per_round"]:
            differences.append(f"{name}: counted_per_round")
        differences += [
            f"{name}: {metric}" for metric in sorted(count_units)
            if parent["per_layer"].get(metric) != change["per_layer"].get(metric)
        ]
    return {
        "command": "python3 bench/run.py --seed 7 --trace 1 --out X.json; "
                   "python3 bench/run.py --compare parent.json change.json",
        "order": "parent first", "compare_exit": compared.returncode,
        "compare_output": compared.stdout.splitlines(),
        "counted_metric_differences": differences,
        "per_layer_parent_to_change": {
            name: {
                row: f"{parent['per_layer'][row]:.4g} -> "
                     f"{results['change'][name]['per_layer'][row]:.4g}"
                for row in LAYER_ROWS if row in parent["per_layer"]
            }
            for name, parent in results["parent"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--traced", action="store_true", help="also run the traced --compare pair")
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<pr>.json")
    args, passthrough = parser.parse_known_args(argv)
    if not (args.workload or args.traced):
        parser.error("nothing to do: give --workload and/or --traced")
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    report = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    report.update(
        pr=args.pr, parent_commit=git("rev-parse", args.parent).strip(),
        command="python3 bench/run.py --workload W --seed S --trace 0 "
                + " ".join(passthrough or ["--seconds", str(SPEC["run_seconds"])]),
        method="alternating parent/change pairs on frozen copies (tools/bench_pairs.py), "
               "one run at a time; a pair is won by the side whose metric is better, "
               "ties to neither",
        host={"platform": platform.platform(), "machine": platform.machine(),
              "python": platform.python_version(), "numpy": numpy_version,
              "cpus": os.cpu_count()},
    )
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = freeze(args.parent, Path(tmp))
        if args.workload:
            report["workloads"][args.workload] = pairs(
                sides, args.workload, args.pairs, args.first_seed, passthrough
            )
        if args.traced:
            report["traced_pairs"] = traced_pair(sides, Path(tmp), passthrough)
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, section in report["workloads"].items():
        for metric, m in section["metrics"].items():
            print(f"{name:16s} {metric:16s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} ({m['change_vs_parent_median']:+.1%}, "
                  f"change won {m['pairs_won_by_change']}/{section['pairs']})")
        for phase, q in section.get("phases_s", {}).items():
            print(f"{name:16s} {'phase ' + phase:16s} {q['parent']['median']:10.4g} -> "
                  f"{q['change']['median']:10.4g} s (medians)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
