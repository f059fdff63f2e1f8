"""Backend crossover: SILC browsing vs 2-hop labelling vs INE.

Not a figure from the paper -- this experiment maps the regime
boundary the :class:`~repro.oracle.QueryPlanner` has to navigate.
Each backend's work is measured in its own counted unit (SILC:
refinements; labels: label-entry scans; INE: settled vertices) and
converted to comparable seconds through the planner's *own*
calibrated constants (``CostConstants.seconds_for``: the per-query
term plus ops x per-op seconds), alongside raw wall clock.  The
assertions pin the planner contract:

* the planner's per-query choice matches the measured
  cheapest backend (in calibrated counted-op cost) on >= 80% of the
  swept (density, k, query) workload -- where "matches" tolerates
  near-ties (picked cost within ``TIE_FACTOR`` of the winner's):
  the labels/INE boundary sits at tiny absolute costs whose measured
  winner flips with calibration noise, and picking the 1.2x-costlier
  side of a tie is not a planning mistake;
* on the small-k repeated-pair workload -- the labelling family's
  home turf (Akiba et al., SIGMOD 2013) -- labels beat SILC browsing
  on counted-op cost.

The table lands in ``benchmarks/out/planner_crossover.txt``.
"""

from __future__ import annotations

from bench_lib import SeriesRecorder, make_objects
import pytest

from repro.engine import QueryEngine
from repro.oracle import PLANNABLE, PrunedLabellingOracle, counted_ops

KS = [1, 5, 20]
DENSITIES = [0.02, 0.07]
AGREEMENT_FLOOR = 0.8
TIE_FACTOR = 2.0


@pytest.fixture(scope="module")
def bench_labelling(bench_net):
    return PrunedLabellingOracle.build(bench_net)


def _measure(engine, queries, k):
    """Per-backend (ops, seconds) per query, exact answers everywhere."""
    per_backend = {}
    for backend in PLANNABLE:
        rows = []
        for q in queries:
            result = engine.knn(q, k, exact=True, oracle=backend)
            rows.append(
                (
                    counted_ops(backend, result.stats),
                    result.stats.elapsed + result.stats.io_time,
                )
            )
        per_backend[backend] = rows
    return per_backend


def test_planner_crossover(capsys, bench_net, bench_index, bench_queries,
                           bench_labelling):
    recorder = SeriesRecorder(
        "planner_crossover",
        ["density", "k", "backend", "mean_ops", "op_us",
         "cost_ms", "wall_ms", "measured_wins", "planner_pick"],
    )
    queries = bench_queries[:8]
    agree = 0
    total = 0
    engines = {}
    for density in DENSITIES:
        oi = make_objects(bench_net, bench_index, density)
        engine = QueryEngine(
            bench_index, oi, labelling=bench_labelling, oracle="auto"
        )
        engines[density] = engine
        planner = engine.ensure_planner()
        constants = planner.constants
        op_seconds = constants.op_seconds
        for k in KS:
            measured = _measure(engine, queries, k)
            # calibrated counted-op cost per query per backend
            costs = {
                b: [constants.seconds_for(b, ops) for ops, _ in rows]
                for b, rows in measured.items()
            }
            wins = {b: 0 for b in PLANNABLE}
            for i, q in enumerate(queries):
                winner = min(PLANNABLE, key=lambda b: costs[b][i])
                wins[winner] += 1
                choice = planner.choose(q, k)
                total += 1
                if costs[choice][i] <= TIE_FACTOR * costs[winner][i]:
                    agree += 1
            decisions = {
                b: planner.registry.counter_value(
                    "planner_decisions_total", stage="plan", oracle=b
                )
                for b in PLANNABLE
            }
            pick = max(decisions, key=decisions.get)
            nq = len(queries)
            for b in PLANNABLE:
                mean_ops = sum(ops for ops, _ in measured[b]) / nq
                recorder.add(
                    density, k, b,
                    mean_ops,
                    op_seconds[b] * 1e6,
                    sum(costs[b]) / nq * 1e3,
                    sum(sec for _, sec in measured[b]) / nq * 1e3,
                    wins[b],
                    pick if b == "silc" else "",
                )
    # Repeated-pair small-k workload: the same few query points asked
    # for their single nearest object over and over -- the labelling
    # family's home turf (point lookups, no browsing).  Run it on the
    # denser object set, where IER's Euclidean cutoff bites early and
    # each repetition costs a handful of label merges; labels must
    # beat SILC browsing on calibrated counted-op cost.  Wall clock is
    # recorded beside it (``wall_ms``), never asserted bare: the margin
    # is tens of microseconds and narrows with every SILC kernel gain.
    repeat_density = DENSITIES[-1]
    engine = engines[repeat_density]
    constants = engine.ensure_planner().constants
    op_seconds = constants.op_seconds
    repeated = [q for q in bench_queries[:3] for _ in range(4)]
    rep = _measure(engine, repeated, k=1)
    rep_cost = {
        b: sum(constants.seconds_for(b, ops) for ops, _ in rows) / len(repeated)
        for b, rows in rep.items()
    }
    rep_wall = {
        b: sum(sec for _, sec in rows) / len(repeated)
        for b, rows in rep.items()
    }
    recorder.add(repeat_density, "1(rep)", "labels",
                 sum(ops for ops, _ in rep["labels"]) / len(repeated),
                 op_seconds["labels"] * 1e6, rep_cost["labels"] * 1e3,
                 rep_wall["labels"] * 1e3, "", "")
    recorder.add(repeat_density, "1(rep)", "silc",
                 sum(ops for ops, _ in rep["silc"]) / len(repeated),
                 op_seconds["silc"] * 1e6, rep_cost["silc"] * 1e3,
                 rep_wall["silc"] * 1e3, "", "")

    agreement = agree / total
    recorder.emit(capsys)
    assert rep_cost["labels"] < rep_cost["silc"], (
        f"labels must win the repeated-pair k=1 workload on counted-op "
        f"cost: labels {rep_cost['labels']:.2e}s vs "
        f"silc {rep_cost['silc']:.2e}s per query"
    )
    with capsys.disabled():
        print(f"planner/measured agreement: {agree}/{total} "
              f"({agreement:.0%}, floor {AGREEMENT_FLOOR:.0%})")
    assert agreement >= AGREEMENT_FLOOR, (
        f"planner agreed with the measured winner on only "
        f"{agree}/{total} queries"
    )
