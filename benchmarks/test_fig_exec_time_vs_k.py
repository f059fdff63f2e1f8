"""F2b (paper p.33 right): execution time vs k at S = 0.07N.

Paper claims reproduced here:

* the kNN family is far faster than INE/IER at small k;
* as k grows, base kNN degrades (priority-queue L maintenance, counted
  as ``l_ops``) while the INN / kNN-I variants hold up;
* IER is always slowest.

The paper sweeps k to 300 on 91k vertices (|S| = 6.4k); our 3k-vertex
substrate caps |S| = 210, so the sweep stops at 100.
"""

from bench_lib import ALL_ALGOS, SeriesRecorder, make_objects, run_workload

KS = [5, 10, 25, 50, 100]
DENSITY = 0.07


def test_exec_time_vs_k(benchmark, capsys, bench_net, bench_index, bench_queries):
    recorder = SeriesRecorder(
        "fig_exec_time_vs_k",
        ["k", "algo", "cpu_ms", "io_ms", "total_ms", "l_ops"],
    )
    oi = make_objects(bench_net, bench_index, DENSITY)
    queries = bench_queries[:8]

    def run():
        return {
            k: run_workload(bench_index, bench_net, oi, queries, k) for k in KS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    for k in KS:
        for name in ALL_ALGOS:
            m = results[k][name]
            recorder.add(k, name, m.cpu * 1e3, m.io * 1e3, m.total * 1e3, m.l_ops)
    recorder.emit(capsys)

    # --- shape assertions -------------------------------------------------
    small_k, big_k = KS[0], KS[-1]
    r = results[small_k]
    assert r["knn"].total < r["ine"].total, "kNN must beat INE at small k"
    assert r["ier"].total >= max(
        r[n].total for n in ALL_ALGOS if n != "ier"
    ), "IER must be slowest at small k"

    # L-maintenance overhead, counted: only base kNN operates on L, and
    # more the larger k is (the reason the paper recommends kNN-I/INN
    # for k > 20).  What it costs in CPU is in the table, not asserted.
    assert results[big_k]["knn"].l_ops > results[big_k]["knn_i"].l_ops == 0
    assert results[big_k]["knn"].l_ops > results[small_k]["knn"].l_ops

    # kNN-M is the cheapest variant at every k (fig p.38's bottom curve).
    for k in KS:
        totals = {n: results[k][n].total for n in ("knn", "inn", "knn_i", "knn_m")}
        assert totals["knn_m"] <= min(totals.values()) * 1.05

    benchmark.extra_info["ine_over_knn_small_k"] = (
        r["ine"].total / r["knn"].total
    )
    benchmark.extra_info["ine_over_knn_big_k"] = (
        results[big_k]["ine"].total / results[big_k]["knn"].total
    )
