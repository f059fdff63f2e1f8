"""The four workloads: server flags and seeded request lists.

Every workload serves the same generated road network and the same 100
random vertex objects; what differs is which layer of the system does
the work (see ``why``).  A request list is a pure function of ``(seed,
vertex count, length)``: the mix of kinds / k / variants is laid out in
fixed proportions and then shuffled, so two seeds differ in *which*
vertices are asked, not in how much of each kind of work there is.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass

#: Random vertex objects every workload serves (density 0.1 at SIZE).
OBJECTS = 100
#: Vertices of the generated road network.
SIZE = 1000
#: Seed of the network (`repro generate --seed`) and of the object set
#: (`repro serve --seed`).  ``--seed`` drives the request lists only:
#: with one network, index size and memory are comparable across seeds,
#: and every request a workload can draw was checked to have a right
#: answer at the commit that defined the benchmark.  That matters
#: because the ``knn`` variant has a tie bug: when the current k-th
#: candidate of the result queue becomes exact, its own bound ``Dk``
#: prunes it (``lo < Dk`` is strict), and a farther object can be
#: confirmed in its place.  It hits about 1 query in 13 000 -- none of
#: the 14 000 (vertex, k, variant) combinations on this network, but
#: e.g. vertex 732 at k=5 on the seed-204 network.
DATA_SEED = 7


def _spread(rng: random.Random, count: int, options: list) -> list:
    """``count`` picks cycling through ``options`` in fixed proportion, shuffled."""
    picks = [options[i % len(options)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def _browse_deep(rng: random.Random, n: int, count: int) -> list[dict]:
    # 7:1:1:1 over the variants, 1:1:1 over k; 30 combinations per cycle.
    variants = ["knn"] * 7 + ["inn", "knn_i", "knn_m"]
    combos = _spread(rng, count, [(k, v) for v in variants for k in (10, 25, 50)])
    return [
        {"kind": "knn", "query": rng.randrange(n), "k": k, "variant": v}
        for k, v in combos
    ]


def _point_shallow(rng: random.Random, n: int, count: int) -> list[dict]:
    # 60 % kNN (k = 1, 2, 4 in equal parts), 20 % distance, 20 % path.
    kinds = _spread(rng, count, ["knn1", "knn2", "knn4", "distance", "path"])
    out: list[dict] = []
    for kind in kinds:
        if kind.startswith("knn"):
            out.append({"kind": "knn", "query": rng.randrange(n), "k": int(kind[3:])})
        else:
            source = rng.randrange(n)
            target = rng.randrange(n - 1)
            target += target >= source  # distinct endpoints
            out.append({"kind": kind, "source": source, "target": target})
    return out


def _scatter_sharded(rng: random.Random, n: int, count: int) -> list[dict]:
    hot = rng.sample(range(n), 8)
    # A third hot: the median then lies among the uniform queries, not on
    # the gap between the two populations.
    picks = _spread(rng, count, ["hot", "uniform", "uniform"])
    return [
        {"kind": "knn", "k": 10,
         "query": rng.choice(hot) if p == "hot" else rng.randrange(n)}
        for p in picks
    ]


#: Queries per ``batch-bulk`` request; with ``--chunk-size 2`` each
#: request is two scheduler chunks.
BATCH = 4


def _batch_bulk(rng: random.Random, n: int, count: int) -> list[dict]:
    return [
        {"kind": "knn_batch", "k": 5,
         "queries": [rng.randrange(n) for _ in range(BATCH)]}
        for _ in range(count)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    oracle: str
    requests: int
    generate: Callable[[random.Random, int, int], list[dict]]
    shards: int = 1
    chunk_size: int = 32

    @property
    def needs_labels(self) -> bool:
        """``--oracle auto`` plans over labels/ and the saved cost model."""
        return self.oracle == "auto"

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    @property
    def serve_flags(self) -> tuple[str, ...]:
        return ("--oracle", self.oracle, "--shards", str(self.shards),
                "--chunk-size", str(self.chunk_size))

    def request_list(self, seed: int, n: int, count: int | None = None) -> list[dict]:
        """The seeded request list, ids filled in."""
        # One stream per (seed, workload): str seeds hash deterministically.
        rng = random.Random(f"{seed}:{self.name}")
        requests = self.generate(rng, n, count or self.requests)
        for i, request in enumerate(requests):
            request["id"] = i
            request["client"] = "bench"
        return requests


def queries_in(request: dict) -> int:
    """Engine queries one request costs (a batch counts its queries)."""
    return len(request["queries"]) if request["kind"] == "knn_batch" else 1


def encode(request: dict) -> bytes:
    return json.dumps(request).encode() + b"\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="browse-deep",
            why="k in {10,25,50}, all four variants, --oracle silc: refinement-bound; "
                "a kernel or store change must show here and a front-end change must not",
            oracle="silc", requests=300, generate=_browse_deep,
        ),
        Workload(
            name="point-shallow",
            why="k in {1,2,4} + distance + path, --oracle auto with labels: front-end-bound "
                "(JSON, admission, scheduler, hand-off, planner); a kernel gain predicts no change",
            oracle="auto", requests=1200, generate=_point_shallow,
        ),
        Workload(
            name="scatter-sharded",
            why="k=10 on --shards 2, a third of the queries from 8 hot vertices: router bounds, "
                "pipe pickling and worker round trips; shard-tier changes show here and nowhere else",
            oracle="silc", requests=300, generate=_scatter_sharded, shards=2,
        ),
        Workload(
            name="batch-bulk",
            why="knn_batch of 4 at k=5, --chunk-size 2 (2 chunks each): per-request cost "
                "amortised, chunks re-enter the scheduler, expansion-heavy searches",
            oracle="silc", requests=200, generate=_batch_bulk, chunk_size=2,
        ),
    )
}
