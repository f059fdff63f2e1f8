"""Assert that serving a mapped index holds the index once, not per query.

The store is five flat columns mapped from disk so that a serving
process's footprint is the pages it probes.  This script is that
process (``serving_mix.py``: the engine ``repro serve`` builds): it
replays the seeded mix ROUNDS times, a fresh seed per round so every
round probes vertices no earlier one touched, and prints the resident
set after the load and after each round, split into anonymous memory
(the heap: what Python objects cost) and file pages (the mapped columns
among them).  It fails when the heap has grown by more than
``GROWTH_LIMIT`` x the index's column bytes since the load -- row lists
kept per probed vertex read 7 x; probing the columns in place reads
0.47 x at 1000 vertices and 1.3-1.6 x at 400 (0.30 MB of 14-byte
blocks: fixed first-touch costs over a smaller index), nearly all of
it in round 1 -- or when it still grows by more than ``DRIFT_LIMIT``
from round 2 to the last round.  Each narrower block shrank the
divisor under the same heap (0.26 x and 0.65 x at 29 bytes, 1.7 x at
400 vertices with 17); at 14 bytes the first query's int64 copies of
the Morton decode tables (256 KiB at grid order 7) read 2.0 x on their
own, so the decode reads a code's low 16 bits through the uint8 tables
in place.  At 10 bytes (float16 lambdas) the same heap reads 0.57 x at
1000 vertices (1.10 MB of columns) and 1.39 x at 400 (0.22 MB), against
0.44 x and 1.24 x for the 14-byte index in one session on one host.

It then starts the 2-shard tier on that engine and sends it 40 kNN
queries: the workers must map the very files this process
mapped (``/proc/<pid>/maps`` of each names ``INDEX/codes.npy``) and
nothing may be written under ``TMPDIR`` -- a mapped index is served in
place, so N workers cost the page cache one index.

Usage: check_memory.py NETWORK INDEX
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from serving_mix import SEED, seeded_mix, serving_engine

ROUNDS = 6
GROWTH_LIMIT = 2.0
DRIFT_LIMIT = 0.03
MB = 1 << 20


def main(network_path: str, index_path: str) -> int:
    from repro.obs.registry import process_memory

    engine = serving_engine(network_path, index_path)
    index_bytes = engine.index.store.nbytes()
    if not process_memory():
        print("no /proc/self/status here: nothing measured")
        return 0
    print(f"index columns: {index_bytes / MB:.2f} MB")
    print(f"{'after':<10}{'VmRSS MB':>10}{'RssAnon MB':>12}{'RssFile MB':>12}")

    def report(label: str) -> int:
        memory = process_memory()
        print(f"{label:<10}{memory['VmRSS'] / MB:>10.2f}"
              f"{memory['RssAnon'] / MB:>12.2f}{memory['RssFile'] / MB:>12.2f}")
        return memory["RssAnon"]

    anon = [report("load")]
    for r in range(ROUNDS):
        for _, call in seeded_mix(engine, seed=SEED + r):
            call()
        anon.append(report(f"round {r + 1}"))
    growth = (anon[-1] - anon[0]) / index_bytes
    drift = anon[-1] / anon[2] - 1.0
    print(f"anonymous growth since load: {growth:.2f} x the index columns "
          f"(limit {GROWTH_LIMIT:.1f} x); round 2 -> {ROUNDS}: {drift:+.1%} "
          f"(limit +{DRIFT_LIMIT:.0%})")
    return int(growth > GROWTH_LIMIT or drift > DRIFT_LIMIT or sharded(engine))


def sharded(engine) -> int:
    """Two shard workers on ``engine``; 1 if they copied the index."""
    from repro.obs.registry import process_memory
    from repro.shard import ShardGroup

    codes = os.path.realpath(engine.index.directory / "codes.npy")
    n = engine.index.network.num_vertices
    with tempfile.TemporaryDirectory(prefix="check-memory-") as tmpdir:
        tempfile.tempdir = tmpdir
        try:
            with ShardGroup.from_engine(engine, 2) as group:
                for query in range(0, n, max(1, n // 40)):
                    group.knn(query, 10)
                pids = {"server": "self"} | {
                    f"shard {s}": w.process.pid for s, w in group.workers.items()
                }
                print(f"{'process':<10}{'RssAnon MB':>12}{'RssFile MB':>12}  maps {codes}")
                unmapped = []
                for name, pid in pids.items():
                    memory = process_memory(pid)
                    mapped = codes in Path(f"/proc/{pid}/maps").read_text()
                    print(f"{name:<10}{memory['RssAnon'] / MB:>12.2f}"
                          f"{memory['RssFile'] / MB:>12.2f}  {mapped}")
                    if not mapped:
                        unmapped.append(name)
        finally:
            tempfile.tempdir = None
        written = sorted(os.listdir(tmpdir))
    print(f"written under TMPDIR by the shard tier: {written or 'nothing'}")
    return int(bool(written or unmapped))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
