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
0.2 x at 1000 vertices and 0.7 x at 400 (fixed first-touch costs over a
smaller index), nearly all of it in round 1 -- or when it still grows by
more than ``DRIFT_LIMIT`` from round 2 to the last round.

Usage: check_memory.py NETWORK INDEX
"""

from __future__ import annotations

import sys

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
    return int(growth > GROWTH_LIMIT or drift > DRIFT_LIMIT)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
