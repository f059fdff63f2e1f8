"""Shared benchmark fixtures: cached networks, indexes and helpers.

Every benchmark regenerates one table or figure of the paper's
evaluation (each file's docstring names which).  The substrate is a
synthetic road-like network, not the paper's road map; absolute
numbers therefore differ from the paper, but each benchmark asserts
the *shape* the paper reports and prints the measured series, which
``SeriesRecorder`` also writes to the ignored ``benchmarks/out/``.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

import numpy as np

from repro import ObjectIndex, SILCIndex, road_like_network
from repro.datasets import random_vertex_objects
from repro.silc import available_workers
from repro.storage import NetworkStorageModel

#: One seed for the whole evaluation, as reproducible as the paper's
#: "50 random input datasets" protocol allows.
BENCH_SEED = 42

#: Size of the main evaluation network.  The paper uses the US eastern
#: seaboard (91,113 vertices); a pure-Python precompute caps us at a
#: few thousand -- every experiment sweeps parameters so shapes, not
#: absolutes, carry the comparison.
BENCH_N = 3000

#: Worker processes for every benchmark index build.  Defaults to one
#: per available CPU (serial on a single-CPU runner, where pool
#: overhead would only slow things down); override with the
#: ``REPRO_BENCH_WORKERS`` environment variable (0 = all CPUs).
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", available_workers()))

#: Where the measured tables land: an ignored directory, because every
#: table carries this host's wall clock (the judged numbers are
#: ``bench/run.py``'s).
RESULTS_DIR = Path(__file__).parent / "out"


@functools.lru_cache(maxsize=8)
def cached_network(n: int, seed: int = BENCH_SEED):
    return road_like_network(n, seed=seed)


#: Sources per shortest-path batch for every benchmark index build:
#: the array-pass kernel works on a whole chunk at once, so larger
#: chunks win until worker load-balance suffers.
BENCH_CHUNK_SIZE = 256


@functools.lru_cache(maxsize=4)
def cached_index(n: int, seed: int = BENCH_SEED, workers: int = BENCH_WORKERS):
    return SILCIndex.build(
        cached_network(n, seed), chunk_size=BENCH_CHUNK_SIZE, workers=workers
    )


def make_objects(net, index, density, seed=BENCH_SEED):
    objects = random_vertex_objects(net, density=density, seed=seed)
    return ObjectIndex(net, objects, index.embedding)


def fresh_storage(index, net):
    """Cold 5%-LRU simulators for both sides of the I/O model."""
    silc_store = index.make_storage(cache_fraction=0.05)
    net_store = NetworkStorageModel(net, cache_fraction=0.05)
    return silc_store, net_store


class SeriesRecorder:
    """Collects rows of one experiment and writes the results file."""

    def __init__(self, name: str, columns: list[str]) -> None:
        self.name = name
        self.columns = columns
        self.rows: list[list] = []

    def add(self, *values) -> None:
        assert len(values) == len(self.columns)
        self.rows.append(list(values))

    def format(self) -> str:
        widths = [
            max(len(str(c)), max((len(_fmt(r[i])) for r in self.rows), default=0))
            for i, c in enumerate(self.columns)
        ]
        lines = [f"== {self.name} =="]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
            )
        return "\n".join(lines)

    def emit(self, capsys) -> None:
        """Print the table past pytest's capture and persist it."""
        text = self.format()
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print("\n" + text)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


# ----------------------------------------------------------------------
# Workload runner shared by the algorithm-comparison experiments
# ----------------------------------------------------------------------

from dataclasses import dataclass, field

from repro.query import ier_knn, ine_knn
from repro.query.bestfirst import best_first_knn

SILC_VARIANTS = ("knn", "inn", "knn_i", "knn_m")
ALL_ALGOS = SILC_VARIANTS + ("ine", "ier")


@dataclass
class AlgoMetrics:
    """Per-algorithm aggregates over one workload (means per query)."""

    cpu: float = 0.0
    io: float = 0.0
    refinements: float = 0.0
    max_queue: float = 0.0
    queue_pushes: float = 0.0
    settled: float = 0.0
    kmindist_accepts: float = 0.0
    l_ops: float = 0.0
    d0k: list = field(default_factory=list)
    kmindist_final: list = field(default_factory=list)
    exact_dk: list = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.cpu + self.io


def run_workload(
    index,
    net,
    object_index,
    queries,
    k,
    algos=ALL_ALGOS,
    with_io=True,
):
    """Run every algorithm over the query batch; return mean metrics.

    Each algorithm gets a cold 5% LRU buffer (SILC algorithms over the
    quadtree pages, baselines over the network pages), warmed only by
    its own queries -- the paper's per-run cache protocol.
    """
    out: dict[str, AlgoMetrics] = {}
    nq = len(queries)
    exact_dks = [
        ine_knn(object_index, q, k).stats.dk_final for q in queries
    ]
    for name in algos:
        metrics = AlgoMetrics()
        silc_store = net_store = None
        if with_io:
            if name in SILC_VARIANTS:
                silc_store = index.make_storage(cache_fraction=0.05)
                index.attach_storage(silc_store)
            else:
                net_store = NetworkStorageModel(net, cache_fraction=0.05)
        try:
            for q, exact_dk in zip(queries, exact_dks):
                if name in SILC_VARIANTS:
                    result = best_first_knn(index, object_index, q, k, variant=name)
                elif name == "ine":
                    result = ine_knn(object_index, q, k, storage=net_store)
                else:
                    result = ier_knn(object_index, q, k, storage=net_store)
                s = result.stats
                metrics.cpu += s.elapsed / nq
                metrics.io += s.io_time / nq
                metrics.refinements += s.refinements / nq
                metrics.max_queue += s.max_queue / nq
                metrics.queue_pushes += s.queue_pushes / nq
                metrics.settled += s.settled / nq
                metrics.kmindist_accepts += s.kmindist_accepts / nq
                metrics.l_ops += s.l_ops / nq
                if s.d0k is not None:
                    metrics.d0k.append(s.d0k)
                if s.kmindist_final is not None:
                    metrics.kmindist_final.append(s.kmindist_final)
                if exact_dk is not None:
                    metrics.exact_dk.append(exact_dk)
        finally:
            if silc_store is not None:
                index.detach_storage()
        out[name] = metrics
    return out
