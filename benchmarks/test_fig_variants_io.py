"""F7 (paper p.38): total vs I/O time for the kNN variants + kNN-PQ.

The paper's findings reproduced here:

* I/O time dominates total execution time for the SILC family (each
  refinement may fault a quadtree page);
* the cost of maintaining L and Dk (the "kNN-PQ" series, counted in
  operations on L) is substantial for base kNN and grows with k;
* execution time falls as S densifies (neighbors closer, fewer
  refinements).
"""

import numpy as np

from bench_lib import SeriesRecorder, SILC_VARIANTS, make_objects, run_workload

KS = [5, 10, 25, 50, 100]
DENSITIES = [0.2, 0.05, 0.01]


def test_variants_io(benchmark, capsys, bench_net, bench_index, bench_queries):
    recorder = SeriesRecorder(
        "fig_variants_io",
        ["sweep", "value", "algo", "cpu_ms", "io_ms", "total_ms", "knn_pq_ops"],
    )

    def run():
        oi = make_objects(bench_net, bench_index, 0.07)
        by_k = {
            k: run_workload(
                bench_index, bench_net, oi, bench_queries, k,
                algos=SILC_VARIANTS,
            )
            for k in KS
        }
        by_density = {}
        for density in DENSITIES:
            oi = make_objects(bench_net, bench_index, density)
            by_density[density] = run_workload(
                bench_index, bench_net, oi, bench_queries, 10,
                algos=SILC_VARIANTS,
            )
        return by_k, by_density

    by_k, by_density = benchmark.pedantic(run, rounds=1, iterations=1)

    for sweep, table in (("k", by_k), ("density", by_density)):
        for value, r in table.items():
            for name in SILC_VARIANTS:
                m = r[name]
                recorder.add(
                    sweep, value, name,
                    m.cpu * 1e3, m.io * 1e3, m.total * 1e3, m.l_ops,
                )
    recorder.emit(capsys)

    # I/O dominates the total for the base algorithm at moderate k.
    m = by_k[10]["knn"]
    assert m.io > m.cpu, "I/O time should dominate CPU (paper p.38)"

    # kNN-PQ overhead grows with k and is specific to base kNN.
    knn_pq = [by_k[k]["knn"].l_ops for k in KS]
    assert knn_pq == sorted(knn_pq) and knn_pq[-1] > knn_pq[0]
    assert by_k[KS[-1]]["knn"].l_ops > by_k[KS[-1]]["knn_i"].l_ops == 0

    # Denser S means closer neighbors and cheaper queries.
    assert by_density[0.2]["knn"].total < by_density[0.01]["knn"].total

    benchmark.extra_info["knn_pq_ops_at_k100"] = by_k[KS[-1]]["knn"].l_ops
