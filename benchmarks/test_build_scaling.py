"""Precompute cost: build time vs network size (paper p.27 "Musings").

The paper argues the O(N) single-source computations make the
precompute "mostly a one-time effort" that is embarrassingly parallel
(per-source tasks).  This benchmark measures the build-time curve on
one machine and extrapolates with the paper's arithmetic; it also
sweeps the all-pairs chunk size (our builder's only tuning knob).
"""

import time

import numpy as np
import pytest

from bench_lib import SeriesRecorder, cached_network
from repro.silc import SILCIndex

SIZES = [250, 500, 1000, 2000]
CHUNKS = [16, 64, 256, 1024]


@pytest.mark.slowbench
def test_build_scaling(benchmark, capsys):
    recorder = SeriesRecorder(
        "build_scaling",
        ["sweep", "value", "build_seconds", "us_per_source_pair"],
    )

    blocks: dict[int, int] = {}

    def sweep():
        by_size = []
        for n in SIZES:
            net = cached_network(n)
            t0 = time.perf_counter()
            index = SILCIndex.build(net, chunk_size=256)
            by_size.append((n, time.perf_counter() - t0))
            blocks[n] = index.total_blocks()
        net = cached_network(1000)
        by_chunk = []
        for chunk in CHUNKS:
            t0 = time.perf_counter()
            SILCIndex.build(net, chunk_size=chunk)
            by_chunk.append((chunk, time.perf_counter() - t0))
        return by_size, by_chunk

    by_size, by_chunk = benchmark.pedantic(sweep, rounds=1, iterations=1)

    for n, seconds in by_size:
        recorder.add("n_vertices", n, seconds, seconds / (n * n) * 1e6)
    for chunk, seconds in by_chunk:
        recorder.add("chunk_size", chunk, seconds, seconds / 1e6 * 1e6)
    recorder.emit(capsys)

    # Wall-clock is recorded above, never asserted bare.  The counted
    # form of the scalability premise: the output the build must write
    # grows like N^1.5 (the paper's storage bound), not like N^2.
    times = dict(by_size)
    per_n15 = [blocks[n] / n**1.5 for n in SIZES]
    assert blocks[2000] > blocks[250]
    assert max(per_n15) < 2 * min(per_n15), f"blocks / N^1.5 drifted: {per_n15}"

    # The paper's cluster arithmetic, with measured per-source cost.
    n_big = SIZES[-1]
    per_source = times[n_big] / n_big
    us_24m = 24_000_000 * per_source * (24_000_000 / n_big)  # ~quadratic
    benchmark.extra_info["seconds_per_source_at_n2000"] = per_source
    benchmark.extra_info["naive_single_machine_days_24m"] = us_24m / 86_400
