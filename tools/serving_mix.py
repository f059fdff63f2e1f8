"""A serving process without the server, and the seeded mix tools replay on it.

``serving_engine`` maps the index and builds the engine ``repro serve``
builds (100 seeded vertex objects, the 5 % page simulator);
``seeded_mix`` is one shuffled list of the calls the server's loop
thread makes -- the four request kinds (``QueryEngine.knn`` / ``knn_batch``,
``SILCIndex.route`` for ``path``, ``SILCIndex.distance``), the four kNN
variants, k in {1, 10, 50}.  ``count_calls.py`` prices it in Python
frames, ``check_memory.py`` in resident bytes; both must see the same
requests, so the builder lives here once.
"""

from __future__ import annotations

import random
from collections.abc import Callable

KS = (1, 10, 50)
#: Queries per (k, variant) cell, batches per cell, pairs per path/distance row.
QUERIES, BATCHES, PAIRS = 10, 2, 40
BATCH = 4
SEED = 17


def serving_engine(network_path: str, index_path: str):
    from repro.datasets import random_vertex_objects
    from repro.engine import QueryEngine
    from repro.network import load_text
    from repro.objects import ObjectIndex
    from repro.silc import SILCIndex

    net = load_text(network_path)
    index = SILCIndex.load(index_path, net, mmap=True)
    objects = random_vertex_objects(net, count=min(100, net.num_vertices // 2), seed=SEED)
    return QueryEngine(
        index, ObjectIndex(net, objects, index.embedding), cache_fraction=0.05
    )


def seeded_mix(engine, seed: int = SEED) -> list[tuple[str, Callable[[], object]]]:
    """``(row label, call)`` pairs, shuffled; the same list for the same seed."""
    from repro.query.bestfirst import VARIANTS

    index = engine.index
    n = index.network.num_vertices
    rng = random.Random(seed)
    mix: list[tuple[str, Callable[[], object]]] = []
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
    return mix
