"""Parallel precompute: build-time speedup and bit-identity.

The paper's p.27 "Musings" argue the SILC precompute is embarrassingly
parallel across sources; ``repro.silc.parallel`` implements that claim
with a process pool.  This benchmark builds the same road-like network
serially and pooled -- 1000 vertices with ``workers=4``, and the
evaluation-scale 3000 with ``workers=2`` -- and checks:

* the two indexes are **byte-identical** (same embedding, same vertex
  codes, same block-table columns, bit for bit) -- parallelism must
  never change the answer;
* both wall-clock times and their ratio are **recorded, not
  asserted**: the old ``>= 2x`` floor was calibrated against a serial
  build that walked a Python stack per block; with the array-pass
  kernel the serial build of this network takes ~0.3 s and the pool's
  fixed cost (fork, result pickles) dominates at this size.  What is
  asserted is byte-identity.
"""

import time

import numpy as np
import pytest

from bench_lib import BENCH_CHUNK_SIZE, BENCH_N, SeriesRecorder, cached_network
from repro.silc import SILCIndex, available_workers

TABLE_COLUMNS = ("codes", "levels", "colors", "lam_min", "lam_max")


def _identical(a: SILCIndex, b: SILCIndex) -> bool:
    if a.embedding.order != b.embedding.order or a.embedding.bounds != b.embedding.bounds:
        return False
    if not np.array_equal(a.vertex_codes, b.vertex_codes):
        return False
    for ta, tb in zip(a.tables, b.tables):
        for col in TABLE_COLUMNS:
            ca, cb = getattr(ta, col), getattr(tb, col)
            if ca.dtype != cb.dtype or not np.array_equal(ca, cb):
                return False
    return True


@pytest.mark.slowbench
@pytest.mark.parametrize(
    "n, workers, chunk_size", [(1000, 4, 64), (BENCH_N, 2, BENCH_CHUNK_SIZE)]
)
def test_parallel_build_speedup(benchmark, capsys, n, workers, chunk_size):
    recorder = SeriesRecorder(
        f"parallel_build_n{n}",
        ["mode", "workers", "build_seconds", "speedup", "cpus"],
    )
    net = cached_network(n)
    cpus = available_workers()

    def build_both():
        t0 = time.perf_counter()
        serial = SILCIndex.build(net, chunk_size=chunk_size)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = SILCIndex.build(net, chunk_size=chunk_size, workers=workers)
        t_parallel = time.perf_counter() - t0
        return serial, parallel, t_serial, t_parallel

    serial, parallel, t_serial, t_parallel = benchmark.pedantic(
        build_both, rounds=1, iterations=1
    )
    speedup = t_serial / t_parallel
    recorder.add("serial", 1, t_serial, 1.0, cpus)
    recorder.add("parallel", workers, t_parallel, speedup, cpus)
    recorder.emit(capsys)
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cpus"] = cpus

    # Bit-identity is the non-negotiable invariant, on any hardware.
    assert _identical(serial, parallel), (
        "parallel build produced a different index than the serial build"
    )
