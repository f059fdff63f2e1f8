"""A counted tripwire against re-layering the kNN kernel.

Wall-clock says nothing reliable in a unit test; Python-level call
counts do.  Fixed queries run under ``sys.setprofile`` and the tests
count (a) the Python frames entered per refinement step -- from
``ObjectDistanceState.refine`` down through the probe and the page
accounting --, (b) ``DistanceInterval`` constructions, which belong to
the output boundary only, and (c) every frame of the whole query
against a budget in the query's own counted operations.  Before the
kernel was flattened the first query cost 29 frames and four validated
interval allocations per refinement.
"""

from __future__ import annotations

import sys

import pytest

from repro.datasets import random_vertex_objects
from repro.geometry.grid import GridEmbedding
from repro.objects import ObjectIndex
from repro.query.bestfirst import best_first_knn
from repro.query.distances import ObjectDistanceState, QueryHandle
from repro.silc.intervals import DistanceInterval

#: ObjectDistanceState.refine, RefinableDistance.refine,
#: hop_and_interval, LRUCache.access (the simulator's ``access``).
FRAMES_PER_REFINEMENT = 4

#: The whole-query budget, as counted at the commit that set it (vertex
#: queries over vertex objects, storage attached, ``exact=True``).  The
#: pop loop itself enters no frame; everything else is per
#:
#: * object seen: ``objects[oid]``, ``object_state``,
#:   ``RefinableDistance.__init__``, ``hop_and_interval``, ``access``,
#:   ``checked_bounds`` twice, ``same_edge_direct``,
#:   ``ObjectDistanceState.__init__``;
#: * node bounded: ``block_bound``, ``min_distance_to_point_xy``,
#:   ``block_lower_bound``, ``check_vertex``, ``block_cells``,
#:   ``overlapping``, ``touch_range``, ``pages_of_range``, ``page_of``
#:   twice, ``access`` (one page on this index); a node lying inside a
#:   single table block also pays ``block_lower_bound``'s own
#:   ``block_world_rect`` (9 frames of Morton decoding and ``Rect``
#:   construction, 6 of grid properties, one MINDIST) and a generator
#:   entered and resumed;
#: * neighbor reported: ``refine_fully``, a sort key, ``from_state``,
#:   the ``Neighbor`` and ``DistanceInterval`` constructors and
#:   ``__post_init__``, one ``dk_final`` generator step;
#: * query: set-up (location, anchors, one bound column), the I/O
#:   snapshot and delta, result assembly.
#:
#: The only slack left is a refinement step that reaches its target: it
#: needs no probe, so it costs 2 of its 4 frames.
#:
#: ``knn`` adds one frame per operation that changes ``L`` (an ``add``
#: per object seen, an ``update`` per collision) and its constructor.
#: A search bounds the root and at most four children per non-leaf
#: expansion, which ties ``nodes_bounded`` to the reported counters.
FRAMES_PER_OBJECT = 9
FRAMES_PER_NODE_BOUNDED = 11
FRAMES_PER_NODE_INSIDE_ONE_BLOCK = 18
FRAMES_PER_NEIGHBOR = 7
FRAMES_PER_QUERY = 40


def _count_calls(fn):
    """Run ``fn`` counting Python calls: all of them, those under
    ``ObjectDistanceState.refine``, and calls of the three functions
    in ``named``."""
    refine_code = ObjectDistanceState.refine.__code__
    named = {
        QueryHandle.block_bound.__code__: "nodes_bounded",
        GridEmbedding.block_world_rect.__code__: "nodes_inside_one_block",
        DistanceInterval.__post_init__.__code__: "intervals",
    }
    counts = dict.fromkeys(named.values(), 0) | {"frames": -1, "under_refine": 0}
    depth = 0  # > 0 while a state.refine() frame is on the stack

    def profiler(frame, event, arg):
        nonlocal depth
        if event == "call":
            counts["frames"] += 1  # starts at -1: ``fn`` itself
            if depth or frame.f_code is refine_code:
                depth += 1
                counts["under_refine"] += 1
            if frame.f_code in named:
                counts[named[frame.f_code]] += 1
        elif event == "return" and depth:
            depth -= 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


def test_frames_per_refinement_and_no_interval_allocations(
    small_net, small_index, small_object_index
):
    # The shared index is only read; the simulator is detached again.
    small_index.attach_storage(small_index.make_storage())
    try:
        # Once unobserved: the resolved-location cache is a first-touch
        # cost, not a per-refinement one.
        best_first_knn(small_index, small_object_index, 31, 10, exact=True)
        result, counts = _count_calls(
            lambda: best_first_knn(
                small_index, small_object_index, 31, 10, exact=True
            )
        )
    finally:
        small_index.detach_storage()
    refinements = (
        result.stats.refinements + result.stats.extras["post_refinements"]
    )
    assert refinements > 50  # the query does real work
    assert counts["under_refine"] <= FRAMES_PER_REFINEMENT * refinements
    # One interval per reported neighbor, built at the output boundary;
    # none inside the search loop.
    assert counts["intervals"] == len(result.neighbors) == 10


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
            result, counts = _count_calls(run)
            s = result.stats
            refinements = s.refinements + s.extras["post_refinements"]
            budget = (
                FRAMES_PER_REFINEMENT * refinements
                + FRAMES_PER_OBJECT * s.objects_seen
                + FRAMES_PER_NODE_BOUNDED * counts["nodes_bounded"]
                + FRAMES_PER_NODE_INSIDE_ONE_BLOCK * counts["nodes_inside_one_block"]
                + FRAMES_PER_NEIGHBOR * len(result.neighbors)
                + FRAMES_PER_QUERY
            )
            if variant == "knn":
                budget += s.objects_seen + s.collisions + 1
            assert counts["frames"] <= budget, (query, k, counts, s)
            assert s.nonleaf_expansions >= 1
            assert counts["nodes_bounded"] <= 1 + 4 * s.nonleaf_expansions
    finally:
        small_index.detach_storage()
