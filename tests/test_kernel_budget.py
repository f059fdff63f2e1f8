"""A counted tripwire against re-layering the kNN kernel.

Wall-clock says nothing reliable in a unit test; Python-level call
counts do.  Fixed queries run under ``sys.setprofile`` and the tests
count (a) the Python frames entered per refinement step of the search
-- from the queued state's ``refine`` down through the probe and the
page accounting --, (b) the frames entered per link walked, below the
state's ``refine_fully``: in the exact finish, and inside an exact
``knn`` search, which walks a colliding object already inside ``Dk``
instead of stepping it, (c) ``DistanceInterval``
constructions, which belong to the output boundary only, and (d) every
frame of the whole query against a budget in the query's own counted
operations.  Before the kernel was flattened the first query cost 29
frames and four validated interval allocations per refinement.

The two methods are found on whatever class a vertex query queues for a
vertex object, so the tripwire outlives a renaming.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.datasets import random_vertex_objects
from repro.geometry.morton import block_cells
from repro.objects import ObjectIndex
from repro.query.bestfirst import best_first_knn
from repro.query.distances import QueryHandle
from repro.query.location import resolve_location
from repro.silc.intervals import DistanceInterval

#: The state's ``refine``: the probe and the page access are inline, and
#: the simulator's ``access`` is the C ``functools.lru_cache``.
FRAMES_PER_REFINEMENT = 1

#: Below ``refine_fully``: nothing (its probes and pages are inline too).
FRAMES_PER_FINISH_LINK = 0

#: The whole-query budget, as counted at the commit that set it (vertex
#: queries over vertex objects, storage attached, ``exact=True``).  The
#: pop loop itself enters no frame, and neither does a change to ``L``
#: or a page access; everything else is per
#:
#: * object seen: ``object_state`` and the state's ``__init__`` (which
#:   probes);
#: * node bounded: ``block_bound`` (row run, pages and minimum inline per
#:   anchor) and the query point's MINDIST to the node; an anchor whose
#:   run is one table block containing the node adds that anchor's
#:   MINDIST to the node's rectangle;
#: * neighbor reported: ``refine_fully``, ``from_state``, the
#:   ``Neighbor`` and ``DistanceInterval`` constructors and
#:   ``__post_init__``, one ``dk_final`` generator step (the sort keys
#:   are ``attrgetter``: no frame);
#: * fallback fill, when the search ends short of k (an exact ``knn``
#:   whose k-th candidate was walked to ``lo == Dk`` ends that way): its
#:   two comprehensions, and one ``refine_fully`` per state it fills;
#: * query: set-up (location, anchors, one bound column), the I/O
#:   snapshot and delta, result assembly.
#:
#: There is no slack left: a step or link that reaches its target costs
#: what any other does.
#:
#: A search bounds the root and at most four children per non-leaf
#: expansion, which ties ``nodes_bounded`` to the reported counters.
FRAMES_PER_OBJECT = 2
FRAMES_PER_NODE_BOUNDED = 2
FRAMES_PER_NODE_INSIDE_ONE_BLOCK = 1
FRAMES_PER_NEIGHBOR = 6
FRAMES_PER_FALLBACK_FILL = 2
FRAMES_PER_QUERY = 34


def _anchors_inside_one_block(handle, node) -> int:
    """Anchors of ``handle`` whose table has one block containing, and
    larger than, ``node``'s (counted from the tables, not the kernel)."""
    end = node.code + block_cells(node.level)
    inside = 0
    for anchor, _ in handle.anchors:
        table = handle.index.tables[anchor]
        rows = table.overlapping(node.code, end)
        inside += len(rows) == 1 and (
            table.codes[rows.start] < node.code or table.ends[rows.start] > end
        )
    return inside


def _count_calls(index, object_index, fn):
    """Run ``fn`` counting Python calls: all of them, those at or under
    a queued state's ``refine``, those under its ``refine_fully``, and
    calls of the two functions in ``named`` -- plus, per node bounded,
    the anchors whose table block contains the node."""
    state = QueryHandle(
        index, object_index, resolve_location(index.network, 0)
    ).object_state(0)
    refine_code = type(state).refine.__code__
    finish_code = type(state).refine_fully.__code__
    named = {
        QueryHandle.block_bound.__code__: "nodes_bounded",
        DistanceInterval.__post_init__.__code__: "intervals",
        refine_code: "refines",
        finish_code: "finishes",
    }
    counts = dict.fromkeys(named.values(), 0) | {
        "frames": -1, "under_refine": 0, "under_finish": 0,
        "nodes_inside_one_block": 0,
    }
    stack = []  # what each frame under a refine / refine_fully counts as

    def profiler(frame, event, arg):
        if event == "call":
            counts["frames"] += 1  # starts at -1: ``fn`` itself
            if stack:
                stack.append(stack[-1])
                counts[stack[-1]] += 1
            elif frame.f_code is refine_code:
                stack.append("under_refine")
                counts["under_refine"] += 1
            elif frame.f_code is finish_code:
                stack.append("under_finish")  # the walk's own frame: per neighbor
            if frame.f_code in named:
                counts[named[frame.f_code]] += 1
            if frame.f_code is QueryHandle.block_bound.__code__:
                counts["nodes_inside_one_block"] += _anchors_inside_one_block(
                    frame.f_locals["self"], frame.f_locals["node"]
                )
        elif event == "return" and stack:
            stack.pop()

    # A collection during ``fn`` would run whatever ``gc.callbacks``
    # other libraries registered (Hypothesis times its collections) as
    # frames of the query.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, counts


def test_frames_per_refinement_and_no_interval_allocations(
    small_net, small_index, small_object_index
):
    # The shared index is only read; the simulator is detached again.
    small_index.attach_storage(small_index.make_storage())
    try:
        for variant in ("inn", "knn"):
            # Once unobserved: the resolved-location cache is a
            # first-touch cost, not a per-refinement one.
            def run():
                return best_first_knn(
                    small_index, small_object_index, 31, 10,
                    variant=variant, exact=True,
                )
            run()
            result, counts = _count_calls(small_index, small_object_index, run)
            s = result.stats
            steps = counts["refines"]
            # ``inn`` steps every collision and leaves the rest of the
            # walk to the exact pass; ``knn`` walks a colliding object
            # inside ``Dk`` in one ``refine_fully`` call.  Either way one
            # collision is one call.
            walks = counts["finishes"] - len(result.neighbors)
            assert steps + walks == s.collisions
            if variant == "inn":
                assert walks == 0 and steps == s.refinements > 50
                assert s.extras["post_refinements"] > 10
            else:
                assert walks > 5 and s.refinements - steps > 50  # links walked
            links = s.refinements - steps + s.extras["post_refinements"]
            assert counts["under_refine"] <= FRAMES_PER_REFINEMENT * steps
            assert counts["under_finish"] <= FRAMES_PER_FINISH_LINK * links
            # One interval per reported neighbor, built at the output
            # boundary; none inside the search loop.
            assert counts["intervals"] == len(result.neighbors) == 10
    finally:
        small_index.detach_storage()


@pytest.mark.parametrize("variant", ["knn", "inn"])
def test_whole_query_frames_within_budget(small_net, small_index, variant):
    # 60 objects: a three-level PMR tree, so non-leaf expansions count.
    object_index = ObjectIndex(
        small_net, random_vertex_objects(small_net, count=60, seed=4),
        small_index.embedding,
    )
    small_index.attach_storage(small_index.make_storage())
    try:
        for query, k in ((31, 10), (77, 25), (5, 1)):
            def run():
                return best_first_knn(
                    small_index, object_index, query, k, variant=variant, exact=True
                )
            run()  # first touch: the resolved-location cache
            result, counts = _count_calls(small_index, object_index, run)
            s = result.stats
            # A collision is one frame, a step or a walk; the links a
            # walk takes cost nothing more (FRAMES_PER_FINISH_LINK).
            budget = (
                FRAMES_PER_REFINEMENT * s.collisions
                + FRAMES_PER_FINISH_LINK * s.extras["post_refinements"]
                + FRAMES_PER_OBJECT * s.objects_seen
                + FRAMES_PER_NODE_BOUNDED * counts["nodes_bounded"]
                + FRAMES_PER_NODE_INSIDE_ONE_BLOCK * counts["nodes_inside_one_block"]
                + FRAMES_PER_NEIGHBOR * len(result.neighbors)
                + FRAMES_PER_QUERY
            )
            filled = s.extras.get("fallback_fill")
            if filled is not None:
                budget += FRAMES_PER_FALLBACK_FILL + filled
            assert counts["frames"] <= budget, (query, k, counts, s)
            assert s.nonleaf_expansions >= 1
            assert counts["nodes_bounded"] <= 1 + 4 * s.nonleaf_expansions
    finally:
        small_index.detach_storage()
