"""T1 (paper p.11): the space / query-time trade-off table.

Measures, on one moderate network, every storage scheme the paper
tabulates:

==================  =========  ==============  ================
scheme              space      path retrieval  distance query
==================  =========  ==============  ================
explicit paths      O(N^3)     O(1)            O(1)
next-hop matrix     O(N^2)     O(k)            O(1)
Dijkstra            O(M + N)   O(M + N log N)  O(M + N log N)
SILC                O(N^1.5)   O(k log N)      approx/refined
==================  =========  ==============  ================
"""

import time

import numpy as np

from bench_lib import SeriesRecorder, cached_network
from baselines import ExplicitPathStorage, NextHopMatrix
from repro.network import shortest_path
from repro.silc import SILCIndex

N = 400
QUERY_PAIRS = 40

#: Timing repetitions.  Wall-clock orderings are asserted on the
#: best-of-R pass: a single pass is at the mercy of whatever else the
#: machine is doing (the full benchmark suite, for one), while the
#: minimum over several passes approaches the true cost of the code
#: path and is stable under load.
TIMING_REPEATS = 5


def test_storage_tradeoffs(benchmark, capsys):
    recorder = SeriesRecorder(
        "table_storage_tradeoffs",
        ["scheme", "storage_bytes", "path_us", "distance_us", "notes"],
    )
    net = cached_network(N)
    rng = np.random.default_rng(7)
    pairs = [tuple(map(int, rng.integers(0, N, 2))) for _ in range(QUERY_PAIRS)]

    def build_all():
        return (
            SILCIndex.build(net),
            NextHopMatrix.build(net),
            ExplicitPathStorage.build(net),
        )

    silc, nexthop, explicit = benchmark.pedantic(
        build_all, rounds=1, iterations=1
    )

    def timed(fn):
        best = float("inf")
        for _ in range(TIMING_REPEATS):
            t0 = time.perf_counter()
            for u, v in pairs:
                fn(u, v)
            best = min(best, time.perf_counter() - t0)
        return best / QUERY_PAIRS * 1e6

    rows = {
        "explicit": (
            explicit.storage_bytes(),
            timed(explicit.path),
            timed(explicit.distance),
            "O(N^3) space",
        ),
        "next_hop": (
            nexthop.storage_bytes(),
            timed(nexthop.path),
            timed(nexthop.distance),
            "O(N^2) space",
        ),
        "dijkstra": (
            0,
            timed(lambda u, v: shortest_path(net, u, v)),
            timed(lambda u, v: shortest_path(net, u, v)),
            "no precompute",
        ),
        "silc": (
            silc.storage_bytes(16),
            timed(silc.path),
            timed(silc.distance),
            "O(N^1.5) space",
        ),
    }
    for scheme, (bytes_, path_us, dist_us, notes) in rows.items():
        recorder.add(scheme, bytes_, path_us, dist_us, notes)
    recorder.emit(capsys)

    # --- deterministic invariants (independent of machine load) -----------
    # Storage byte orderings: the table's space column.
    assert rows["explicit"][0] > rows["next_hop"][0] > rows["silc"][0]
    # Counted operations: SILC retrieves a path in size-of-path block
    # probes, while Dijkstra must settle every vertex closer than the
    # target -- the asymptotic gap the timing columns only estimate.
    silc_probes = sum(len(silc.path(u, v)) - 1 for u, v in pairs)
    dijkstra_settled = sum(
        shortest_path(net, u, v)[2].settled for u, v in pairs
    )
    assert silc_probes < dijkstra_settled, (
        f"SILC path probes ({silc_probes}) must undercut Dijkstra "
        f"settled vertices ({dijkstra_settled})"
    )

    # --- the paper's orderings (best-of-R wall clock) ---------------------
    # Path retrieval from any precomputed scheme crushes Dijkstra.
    assert rows["silc"][1] < rows["dijkstra"][1]
    assert rows["next_hop"][1] < rows["dijkstra"][1]
    benchmark.extra_info["silc_bytes"] = rows["silc"][0]
    benchmark.extra_info["next_hop_bytes"] = rows["next_hop"][0]
    benchmark.extra_info["silc_distance_us"] = rows["silc"][2]
