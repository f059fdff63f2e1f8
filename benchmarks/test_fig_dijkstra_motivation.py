"""M1 (paper pp.3/7): Dijkstra visits too many vertices.

The paper's motivating measurement: Dijkstra settles 3191 of 4233
vertices (75%) to find one 76-edge path.  We reproduce the experiment
on the benchmark network: for a batch of long point-to-point queries,
compare vertices settled by Dijkstra and A* against the block probes
SILC needs (exactly path length - 1).
"""

import numpy as np

from bench_lib import SeriesRecorder
from repro.network import shortest_path


def test_dijkstra_motivation(benchmark, capsys, bench_net, bench_index):
    rng = np.random.default_rng(11)
    n = bench_net.num_vertices
    # long queries: opposite corners of the layout
    xs, ys = bench_net.xs, bench_net.ys
    corner_sw = int(np.argmin(xs + ys))
    corner_ne = int(np.argmax(xs + ys))
    pairs = [(corner_sw, corner_ne)] + [
        tuple(map(int, rng.integers(0, n, 2))) for _ in range(9)
    ]

    recorder = SeriesRecorder(
        "fig_dijkstra_motivation",
        ["pair", "path_edges", "dijkstra_settled", "astar_settled", "silc_probes"],
    )

    def run():
        out = []
        for u, v in pairs:
            path, _, dij = shortest_path(bench_net, u, v)
            _, _, ast = shortest_path(bench_net, u, v, heuristic_scale=1.0)
            out.append((u, v, len(path) - 1, dij.settled, ast.settled))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    ratios = []
    for u, v, edges, dij, ast in rows:
        recorder.add(f"{u}->{v}", edges, dij, ast, edges)
        if edges > 0:
            ratios.append(dij / edges)
    recorder.emit(capsys)

    # The flagship pair: Dijkstra touches a large fraction of the
    # network while SILC touches one block per path edge.
    _, _, edges, dij, _ = rows[0]
    assert dij > 0.5 * n, "long query should settle most of the network"
    assert dij > 10 * edges, "Dijkstra work must dwarf SILC's path probes"
    benchmark.extra_info["flagship_settled_fraction"] = dij / n
    benchmark.extra_info["mean_settled_per_path_edge"] = float(np.mean(ratios))
