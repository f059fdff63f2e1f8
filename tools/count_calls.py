"""Price the query path in Python frames per request, to the digit.

Wall clock cannot resolve a frame or two per request; a count can, and
it repeats exactly.  This script is a serving process without the
server: it maps the index, builds the engine ``repro serve`` builds
(100 seeded vertex objects, the 5 % page simulator) and replays one
seeded mix -- the four request kinds, the four kNN variants, k in
{1, 10, 50} -- through the calls the server's executor makes
(``QueryEngine.knn`` / ``knn_batch``, ``SILCIndex.route`` for ``path``,
``SILCIndex.distance``).  The mix runs once unobserved (list mirrors
and the resolved-location cache are first-touch costs), then once under
``sys.setprofile`` counting every Python frame entered.  Run it before
and after a change to the path and quote both tables.

Usage: count_calls.py NETWORK INDEX
"""

from __future__ import annotations

import random
import sys

KS = (1, 10, 50)
#: Queries per (k, variant) cell, batches per cell, pairs per path/distance row.
QUERIES, BATCHES, PAIRS = 10, 2, 40
BATCH = 4
SEED = 17


def frames_entered(call) -> int:
    """Python frames entered while ``call()`` runs (``call``'s own excluded)."""
    frames = -1

    def profiler(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(None)
    return frames


def main(network_path: str, index_path: str) -> int:
    from repro.datasets import random_vertex_objects
    from repro.engine import QueryEngine
    from repro.network import load_text
    from repro.objects import ObjectIndex
    from repro.query.bestfirst import VARIANTS
    from repro.silc import SILCIndex

    net = load_text(network_path)
    index = SILCIndex.load(index_path, net, mmap=True)
    n = net.num_vertices
    objects = random_vertex_objects(net, count=min(100, n // 2), seed=SEED)
    engine = QueryEngine(
        index, ObjectIndex(net, objects, index.embedding), cache_fraction=0.05
    )
    rng = random.Random(SEED)
    mix: list[tuple[str, object]] = []  # (row label, call)
    for k in KS:
        for variant in VARIANTS:
            for _ in range(QUERIES):
                q = rng.randrange(n)
                mix.append((f"knn        k={k}", lambda q=q, k=k, v=variant:
                            engine.knn(q, k, variant=v, exact=True)))
            for _ in range(BATCHES):
                qs = [rng.randrange(n) for _ in range(BATCH)]
                mix.append((f"knn_batch  k={k}", lambda qs=qs, k=k, v=variant:
                            engine.knn_batch(qs, k, variant=v, exact=True)))
    for kind, walk in (("path", index.route), ("distance", index.distance)):
        for _ in range(PAIRS):
            s, t = rng.sample(range(n), 2)
            mix.append((kind, lambda s=s, t=t, walk=walk: walk(s, t)))
    rng.shuffle(mix)

    for _, call in mix:
        call()
    rows: dict[str, list[int]] = {}
    for label, call in mix:
        rows.setdefault(label, []).append(frames_entered(call))
    print(f"{'request':<18}{'requests':>9}{'frames':>10}{'frames/request':>16}")
    for label in sorted(rows):
        counts = rows[label]
        print(f"{label:<18}{len(counts):>9}{sum(counts):>10}{sum(counts) / len(counts):>16.1f}")
    total = sum(map(sum, rows.values()))
    print(f"{'all':<18}{len(mix):>9}{total:>10}{total / len(mix):>16.1f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
