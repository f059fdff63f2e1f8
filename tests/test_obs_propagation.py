"""Trace propagation across the serve/engine/shard stack.

Satellite-3 coverage: the span tree a traced server produces has the
documented skeleton, worker-side spans rejoin the parent trace (one
``shard:<id>`` span for the one worker a query visits), the
sharded and unsharded skeletons agree on the common stages, tracing
never changes answers or counted ops, and the ``stats`` request kind
returns the live registry snapshot over the wire.
"""

import asyncio

import pytest

from repro.engine import QueryEngine
from repro.obs import Tracer
from repro.obs.registry import process_memory
from repro.serve import AsyncEngine, Request, SILCServer


class ListSink:
    """Capture finished trace records in memory."""

    def __init__(self) -> None:
        self.records = []

    def write(self, record: dict) -> None:
        self.records.append(record)


@pytest.fixture()
def engine(small_index, small_object_index):
    return QueryEngine(small_index, small_object_index, cache_fraction=0.05)


def knn_req(query, rid=0, k=3, client="web"):
    return Request(id=rid, client=client, kind="knn", queries=(query,), k=k,
                   exact=False)


def serve(requests, engine, shards=1, tracer=None):
    """Run requests through a fresh (optionally sharded) server."""

    async def go():
        async with AsyncEngine(engine, shards=shards) as ae:
            kwargs = {} if tracer is None else {"tracer": tracer}
            async with SILCServer(ae, **kwargs) as server:
                responses = await asyncio.gather(
                    *(server.submit(r) for r in requests)
                )
            return responses, server.snapshot()

    return asyncio.run(go())


def traced(requests, engine, shards=1):
    sink = ListSink()
    responses, snapshot = serve(
        requests, engine, shards=shards, tracer=Tracer(sink=sink)
    )
    return responses, snapshot, sink.records


def span_names(record):
    return [s["name"] for s in record["spans"]]


_WALL_CLOCK = {"io_time", "elapsed"}


def counted_ops(stats):
    """QueryStats minus its wall-clock fields: the parity contract
    covers counted operations, not timings."""
    return {
        k: v for k, v in vars(stats).items() if k not in _WALL_CLOCK
    }


def by_name(record):
    return {s["name"]: s for s in record["spans"]}


class TestUnshardedSkeleton:
    def test_knn_trace_has_the_documented_spans(self, engine):
        [resp], _, records = traced([knn_req(7, rid=1)], engine)
        assert resp.status == "ok"
        [record] = records
        names = by_name(record)
        assert {"request", "admission", "sched_wait", "execute", "plan"} <= set(
            names
        )
        oracle = [n for n in span_names(record) if n.startswith("oracle:")]
        assert len(oracle) == 1
        # parenting: request is the root; execute hangs off it; the
        # plan and oracle spans nest under execute.
        root = names["request"]
        assert root["parent"] is None
        assert names["admission"]["parent"] == root["sid"]
        assert names["sched_wait"]["parent"] == root["sid"]
        assert names["execute"]["parent"] == root["sid"]
        assert names["plan"]["parent"] == names["execute"]["sid"]
        assert names[oracle[0]]["parent"] == names["execute"]["sid"]

    def test_oracle_span_carries_counted_ops(self, engine):
        _, snapshot, records = traced([knn_req(7)], engine)
        oracle = next(
            s for s in records[0]["spans"] if s["name"].startswith("oracle:")
        )
        counters = oracle.get("counters") or {}
        assert counters, "oracle span should carry nonzero QueryStats"
        # the span's counted ops are the server's counted ops
        for op, value in counters.items():
            assert getattr(snapshot.stats, op) == value

    def test_sched_wait_span_counts_the_scheduling_delay(self, engine):
        _, _, records = traced([knn_req(3)], engine)
        wait = by_name(records[0])["sched_wait"]
        assert "sched_delay" in (wait.get("counters") or {})


class TestParity:
    def test_tracing_changes_no_answers_and_no_counted_ops(self, engine):
        requests = [knn_req(q, rid=i, k=3) for i, q in enumerate((0, 7, 21))]
        plain, plain_snap = serve(requests, engine)
        engine2 = QueryEngine(
            engine.index, engine.object_index, cache_fraction=0.05
        )
        traced_resp, traced_snap, _ = traced(requests, engine2)
        for a, b in zip(plain, traced_resp):
            assert a.status == b.status == "ok"
            assert a.result["ids"] == b.result["ids"]
        assert counted_ops(plain_snap.stats) == counted_ops(traced_snap.stats)

    def test_an_approximate_batch_traces_the_same_answers(
        self, small_index, small_object_index
    ):
        """``epsilon > 0`` has a traced branch of its own: one
        ``oracle:silc`` span per query, labelled with its epsilon, over
        the untraced batch's answers and counted ops."""
        queries = (0, 7, 21)
        plain = QueryEngine(small_index, small_object_index).knn_batch(
            queries, 3, epsilon=0.2
        )
        sink = ListSink()
        trace = Tracer(sink=sink).start_trace()
        batch = QueryEngine(small_index, small_object_index).knn_batch(
            queries, 3, epsilon=0.2, trace=trace
        )
        trace.finish()
        assert [r.ids() for r in batch] == [r.ids() for r in plain]
        assert counted_ops(batch.stats) == counted_ops(plain.stats)
        [record] = sink.records
        oracle = [s for s in record["spans"] if s["name"] == "oracle:silc"]
        assert [s["labels"]["epsilon"] for s in oracle] == ["0.2"] * len(queries)
        assert [s["counters"]["refinements"] for s in oracle] == [
            r.stats.refinements for r in plain
        ]

    def test_sharded_parity_with_tracing_on(self, small_index, small_object_index):
        requests = [knn_req(q, rid=i) for i, q in enumerate((5, 40))]
        plain, plain_snap = serve(
            requests,
            QueryEngine(small_index, small_object_index),
            shards=2,
        )
        traced_resp, traced_snap, _ = traced(
            requests,
            QueryEngine(small_index, small_object_index),
            shards=2,
        )
        for a, b in zip(plain, traced_resp):
            assert a.result["ids"] == b.result["ids"]
        assert counted_ops(plain_snap.stats) == counted_ops(traced_snap.stats)


class TestShardedSkeleton:
    def test_one_shard_span_per_visited_worker(self, small_index, small_object_index):
        eng = QueryEngine(small_index, small_object_index)
        _, _, records = traced([knn_req(9)], eng, shards=2)
        [record] = records
        shard_spans = [
            s for s in record["spans"] if s["name"].startswith("shard:")
        ]
        # One query, one worker: the one visit is the only shard span,
        # and the only plan span is the worker's own.
        assert [s["name"] for s in shard_spans] == ["shard:0"]
        plans = [s for s in record["spans"] if s["name"] == "plan"]
        assert len(plans) == 1

    def test_worker_spans_rejoin_the_parent_trace(self, small_index, small_object_index):
        eng = QueryEngine(small_index, small_object_index)
        _, _, records = traced([knn_req(9)], eng, shards=2)
        [record] = records
        spans = record["spans"]
        shard_sids = {
            s["sid"]: s for s in spans if s["name"].startswith("shard:")
        }
        workers = [s for s in spans if s["name"] == "worker"]
        assert workers, "worker-side spans must rejoin the trace"
        for worker in workers:
            assert worker["parent"] in shard_sids
            parent = shard_sids[worker["parent"]]
            assert parent["labels"]["shard"] == worker["labels"]["shard"]
        # the worker ran its own engine spans, adopted beneath it
        worker_children = [
            s["name"] for s in spans
            if s["parent"] in {w["sid"] for w in workers}
        ]
        assert any(n.startswith("oracle:") for n in worker_children)
        # sids stayed unique through adoption
        sids = [s["sid"] for s in spans]
        assert len(sids) == len(set(sids))

    def test_stage_skeleton_matches_unsharded(self, small_index, small_object_index):
        from repro.obs.report import stage_of

        _, _, flat = traced(
            [knn_req(9)], QueryEngine(small_index, small_object_index)
        )
        _, _, sharded = traced(
            [knn_req(9)],
            QueryEngine(small_index, small_object_index),
            shards=2,
        )
        flat_stages = {stage_of(s["name"]) for s in flat[0]["spans"]}
        sharded_stages = {stage_of(s["name"]) for s in sharded[0]["spans"]}
        # the sharded tree is the unsharded tree plus the scatter layer
        assert flat_stages <= sharded_stages
        assert sharded_stages - flat_stages <= {"shard", "worker"}


class TestStatsRequestKind:
    def test_stats_returns_the_registry_snapshot_over_the_wire(self, engine):
        """Asked after the reply is in (a counter is absent until its
        first event), ``stats`` ships the registry's counters."""

        async def go():
            async with AsyncEngine(engine) as ae:
                async with SILCServer(ae, tracer=Tracer(sink=ListSink())) as server:
                    await server.submit(knn_req(7, rid=1))
                    return await server.submit(Request(id=2, client="ops", kind="stats"))

        stats_resp = asyncio.run(go())
        assert stats_resp.status == "ok"
        metrics = stats_resp.result["metrics"]
        assert set(metrics) == {"counters", "gauges", "histograms"}
        names = {c["name"] for c in metrics["counters"]}
        assert "requests_total" in names

    def test_stats_works_with_tracing_off(self, engine):
        responses, _ = serve(
            [Request(id=1, client="ops", kind="stats")], engine
        )
        [resp] = responses
        assert resp.status == "ok"
        assert "gauges" in resp.result["metrics"]


def memory_gauges(metrics):
    """``{gauge name: {process: value}}`` for the per-process gauges."""
    out = {"process_rss_bytes": {}, "process_peak_rss_bytes": {}}
    for sample in metrics["gauges"]:
        if sample["name"] in out:
            out[sample["name"]][sample["labels"]["process"]] = sample["value"]
    return out


@pytest.mark.skipif(not process_memory(), reason="no /proc/<pid>/status here")
class TestMemoryGauges:
    """Memory sits next to latency in the ``stats`` reply -- as gauges:
    the ``counters`` section is what ``bench/run.py --compare`` diffs."""

    def test_local_stats_carry_the_server_and_the_index(self, engine):
        [resp], _ = serve([Request(id=1, client="ops", kind="stats")], engine)
        metrics = resp.result["metrics"]
        for by_process in memory_gauges(metrics).values():
            assert set(by_process) == {"server"}
            assert by_process["server"] > 0
        [mapped] = [g for g in metrics["gauges"] if g["name"] == "index_mapped_bytes"]
        assert mapped["value"] == engine.index.store.nbytes() > 0
        # An index in memory, not mapped: no page-cache residency to read.
        assert not any(g["name"] == "index_resident_bytes" for g in metrics["gauges"])
        assert not any("rss" in c["name"] or "mapped" in c["name"]
                       for c in metrics["counters"])

    def test_sharded_stats_follow_each_worker_through_a_respawn(
        self, small_index, small_object_index
    ):
        eng = QueryEngine(small_index, small_object_index)
        stats = Request(id=9, client="ops", kind="stats")

        async def go():
            async with AsyncEngine(eng, shards=2) as ae, SILCServer(ae) as server:
                workers = ae.shard_group.workers
                first = (await server.submit(stats)).result["metrics"]
                pids = {shard: w.process.pid for shard, w in workers.items()}
                victim = min(workers)
                workers[victim].process.kill()
                workers[victim].process.join(5.0)
                # The next query goes to slot 0, the dead one: it respawns.
                assert (await server.submit(knn_req(0, rid=1))).status == "ok"
                second = (await server.submit(stats)).result["metrics"]
                new_pid = workers[victim].process.pid
                # Idle since the poll, so its peak has not moved.
                return first, second, pids, victim, new_pid, process_memory(new_pid)

        first, second, pids, victim, new_pid, direct = asyncio.run(go())
        expected = {"server"} | {f"shard-{shard}" for shard in pids}
        for metrics in (first, second):
            for by_process in memory_gauges(metrics).values():
                assert set(by_process) == expected
                assert all(value > 0 for value in by_process.values())
        # The sample is the replacement's: the old pid has no reading left.
        assert new_pid != pids[victim] and not process_memory(pids[victim])
        peak = memory_gauges(second)["process_peak_rss_bytes"][f"shard-{victim}"]
        assert peak == direct["VmHWM"]
