"""Ground truth and reply checking.

Truth is a dense all-pairs Dijkstra over the generated network file
(``repro.network.distance_matrix`` -- SciPy's Dijkstra, none of the
SILC machinery).  Every reply of the first round is checked against
it; every later round must reproduce the first round's answers
exactly.  All of this runs between rounds, off the timed path.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.datasets import random_vertex_objects
from repro.network import distance_matrix, load_text
from silcbench.workloads import DATA_SEED, OBJECTS

#: Reply fields that legitimately differ from round to round.
VOLATILE = ("latency", "sched_delay")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class Truth:
    """All-pairs distances plus the object set the server was told to use."""

    def __init__(self, network_file: Path) -> None:
        self.network = load_text(network_file)
        self.dist = distance_matrix(self.network)
        if not np.isfinite(self.dist).all():
            raise RuntimeError("generated network is not strongly connected")
        objects = random_vertex_objects(self.network, count=OBJECTS, seed=DATA_SEED)
        self.vertex_of = {oid: objects[oid].position.vertex for oid in objects.ids}
        self._columns = np.fromiter(self.vertex_of.values(), dtype=np.int64)

    def _knn(self, query: int, k: int, variant: str, ids, distances) -> str | None:
        want = np.sort(self.dist[query, self._columns])[:k]
        if len(ids) != len(want) or len(distances) != len(want):
            return f"expected {len(want)} neighbours, got {len(ids)}"
        if len(set(ids)) != len(ids):
            return "duplicate object ids"
        for oid, d in zip(ids, distances, strict=True):
            vertex = self.vertex_of.get(oid)
            if vertex is None:
                return f"unknown object id {oid}"
            if not _close(self.dist[query, vertex], d):
                return f"object {oid}: reported {d!r}, true {self.dist[query, vertex]!r}"
        # kNN-M accepts objects against KMINDIST without ranking them,
        # so its answers are a set; the other variants must be ranked.
        got = sorted(distances) if variant == "knn_m" else distances
        for a, b in zip(got, want, strict=True):
            if not _close(a, float(b)):
                return f"not the {k} nearest (or not ranked): {a!r} vs {float(b)!r}"
        return None

    def check(self, request: dict, reply: dict) -> str | None:
        """``None`` when the reply is right, else what is wrong with it."""
        if reply.get("status") != "ok":
            return f"status {reply.get('status')!r}: {reply.get('error', reply.get('reason', ''))}"
        if reply.get("degraded"):
            return "degraded (partial) answer"
        kind = request["kind"]
        if kind == "knn":
            return self._knn(
                request["query"], request["k"], request.get("variant", "knn"),
                reply["ids"], reply["distances"],
            )
        if kind == "knn_batch":
            if len(reply["ids"]) != len(request["queries"]):
                return "batch reply has the wrong number of results"
            for query, ids, distances in zip(
                request["queries"], reply["ids"], reply["distances"], strict=True
            ):
                problem = self._knn(query, request["k"], "knn", ids, distances)
                if problem:
                    return f"query {query}: {problem}"
            return None
        source, target = request["source"], request["target"]
        true = float(self.dist[source, target])
        if not _close(reply["distance"], true):
            return f"distance {reply['distance']!r}, true {true!r}"
        if kind == "path":
            path = reply["path"]
            if path[0] != source or path[-1] != target:
                return f"path runs {path[0]}->{path[-1]}, not {source}->{target}"
            try:
                length = sum(
                    self.network.edge_weight(a, b)
                    for a, b in zip(path, path[1:], strict=False)
                )
            except LookupError as exc:
                return f"path uses a missing edge: {exc}"
            if not _close(length, true):
                return f"path length {length!r}, true {true!r}"
        return None


def canonical(line: bytes) -> tuple[dict, str]:
    """A reply decoded, and its round-independent form for comparison."""
    reply = json.loads(line)
    stable = {k: v for k, v in reply.items() if k not in VOLATILE}
    return reply, json.dumps(stable, sort_keys=True)
