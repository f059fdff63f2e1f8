"""FairScheduler: chunk splitting, round-robin fairness, counted delays."""

import pytest

from repro.serve import FairScheduler, Request


def knn(client, query, rid=0):
    return Request(id=rid, client=client, kind="knn", queries=(query,), k=1)


def batch(client, n, rid=0):
    return Request(id=rid, client=client, kind="knn_batch", queries=tuple(range(n)), k=1)


class TestChunking:
    def test_batch_split_into_chunks(self):
        s = FairScheduler(chunk_size=4)
        assert s.submit(batch("bulk", 10)) == 3
        chunks = list(s.drain())
        assert [c.cost for c in chunks] == [4, 4, 2]
        assert [c.offset for c in chunks] == [0, 4, 8]
        assert [c.last for c in chunks] == [False, False, True]
        # the chunks tile the original query tuple in order
        assert sum((list(c.queries) for c in chunks), []) == list(range(10))

    def test_single_knn_is_one_chunk(self):
        s = FairScheduler(chunk_size=4)
        assert s.submit(knn("web", 3)) == 1
        [chunk] = list(s.drain())
        assert chunk.queries == (3,) and chunk.last

    def test_pair_kinds_never_split(self):
        s = FairScheduler(chunk_size=1)
        req = Request(id=1, client="a", kind="path", queries=(0, 9))
        assert s.submit(req) == 1
        [chunk] = list(s.drain())
        assert chunk.queries == (0, 9)

    def test_pair_kinds_cost_one_engine_query(self):
        """(source, target) is one query: cost must match Request.cost."""
        s = FairScheduler(chunk_size=8)
        dist = Request(id=1, client="a", kind="distance", queries=(0, 9))
        s.submit(dist)
        assert s.pending() == dist.cost == 1
        follow_up = Request(id=2, client="b", kind="knn", queries=(3,))
        s.submit(follow_up)
        s.next_chunk()  # the distance request
        assert s.dispatched == 1
        s.next_chunk()
        assert s.sched_delay(follow_up) == 1  # one query ahead, not two

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            FairScheduler(chunk_size=0)


class TestFairness:
    def test_lanes_alternate_round_robin(self):
        s = FairScheduler(chunk_size=2)
        s.submit(batch("a", 8))
        s.submit(batch("b", 8))
        order = [c.request.client for c in s.drain()]
        assert order == ["a", "b", "a", "b", "a", "b", "a", "b"]

    def test_fifo_within_a_lane(self):
        s = FairScheduler(chunk_size=8)
        for i in range(4):
            s.submit(knn("a", i, rid=i))
        assert [c.request.id for c in s.drain()] == [0, 1, 2, 3]

    def test_uneven_backlogs_alternate_until_one_drains(self):
        """One chunk per occupied lane per sweep.  When a lane drains,
        the cursor indexes the shorter list of occupied lanes: the
        order deficit round-robin gave with every weight at 1."""
        s = FairScheduler(chunk_size=2)
        s.submit(batch("heavy", 12))
        s.submit(batch("light", 4))
        s.submit(batch("mid", 6))
        order = [c.request.client for c in s.drain()]
        assert order == [
            "heavy", "light", "mid", "heavy", "light", "heavy",
            "mid", "heavy", "mid", "heavy", "heavy",
        ]

    def test_interactive_not_starved_by_bulk_backlog(self):
        """The head-of-line invariant, in counted operations."""
        s = FairScheduler(chunk_size=4)
        s.submit(batch("bulk", 400))
        # drain part of the backlog, then an interactive request lands
        for _ in range(10):
            s.next_chunk()
        interactive = knn("web", 0)
        s.submit(interactive)
        clients = []
        while s.sched_delay(interactive) == 0 and (c := s.next_chunk()):
            clients.append(c.request.client)
        # at most one bulk chunk ran before the interactive request
        assert s.sched_delay(interactive) <= 4
        assert clients.count("bulk") <= 1

    def test_sched_delay_counts_only_foreign_queries(self):
        s = FairScheduler(chunk_size=4)
        first = knn("a", 0)
        s.submit(first)
        [chunk] = [s.next_chunk()]
        assert chunk.request is first
        assert s.sched_delay(first) == 0  # nothing ran ahead of it

    def test_empty_scheduler(self):
        s = FairScheduler()
        assert s.next_chunk() is None
        assert len(s) == 0 and s.pending() == 0


class TestAccounting:
    def test_depths_and_pending_count_queries(self):
        s = FairScheduler(chunk_size=4)
        s.submit(batch("bulk", 10))
        s.submit(knn("web", 1))
        assert s.depths() == {"bulk": 10, "web": 1}
        assert s.pending() == 11
        s.next_chunk()
        assert s.pending() in (7, 10)  # one chunk (4 or 1 queries) left the queue

    def test_dispatched_serial_is_monotone(self):
        s = FairScheduler(chunk_size=4)
        s.submit(batch("bulk", 10))
        serials = []
        while s.next_chunk():
            serials.append(s.dispatched)
        assert serials == [4, 8, 10]
