"""Smoke test of the benchmark harness (collected by the tier-1 run).

A 150-vertex network, 20 requests per workload, traced: every workload
and metric named in BENCHMARK.json must come out with its unit, every
answer must verify, counted metrics must repeat between rounds (the
harness reports that as ``correct``), and nothing may be left running.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _cmdlines():
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                yield Path("/proc", entry, "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue


def test_every_workload_and_metric_comes_out_verified(tmp_path):
    out = tmp_path / "run.json"
    work = tmp_path / "work"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "150", "--requests", "20",
         "--seconds", "0.2", "--trace", "1", "--out", str(out), "--workdir", str(work)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results = json.loads(out.read_text())["workloads"]
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for name, result in results.items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0 and result["attempted"] == 20 * (1 + result["rounds"])
        assert result["rounds"] >= 2
        assert result["counted_per_round"], name
        for section in ("end_to_end", "per_layer"):
            assert set(result[section]) == {m["name"] for m in SPEC[section]}, (name, section)
            assert all(math.isfinite(v) for v in result[section].values())
        assert all(result["end_to_end"][m["name"]] > 0 for m in SPEC["end_to_end"])
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            printed = re.findall(
                rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                done.stdout, re.MULTILINE,
            )
            assert len(printed) == len(results), metric["name"]
    assert not [c for c in _cmdlines() if str(work) in c], "a server outlived the run"
