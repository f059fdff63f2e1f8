"""A counted tripwire against re-layering the kNN kernel.

Wall-clock says nothing reliable in a unit test; Python-level call
counts do.  Fixed queries run under ``sys.setprofile`` and the tests
count (a) the Python frames entered per refinement step of the search
-- from the queued state's ``refine`` down through the probe and the
page accounting --, (b) the frames entered per link walked, below the
state's ``refine_fully`` or ``walk_home``: in the exact finish, and
inside an exact ``knn`` search, which walks a colliding object already
inside ``Dk`` instead of stepping it, (c) ``DistanceInterval``
constructions, which belong to the output boundary only, and (d) every
frame of the whole query against a budget in the query's own counted
operations.  Before the kernel was flattened the first query cost 29
frames and four validated interval allocations per refinement.

The methods are found on whatever class a vertex query queues for a
vertex object, so the tripwire outlives a renaming.  On these symmetric
networks a query for ``HOME_MIN_K`` or more neighbours walks its vertex
objects home (``walk_home``); one for fewer walks them forward.
"""

from __future__ import annotations

import ast
import gc
import inspect
import sys
import textwrap

import pytest

from repro.datasets import random_vertex_objects
from repro.objects import ObjectIndex
from repro.query import bestfirst
from repro.query.bestfirst import best_first_knn
from repro.query.distances import QueryHandle
from repro.query.location import resolve_location
from repro.silc.intervals import DistanceInterval

#: The state's ``refine``: the probe and the page access are inline, and
#: the simulator's ``access`` is the C ``functools.lru_cache``.
FRAMES_PER_REFINEMENT = 1

#: Below ``refine_fully`` / ``walk_home``: nothing (their probes and
#: pages are inline too).
FRAMES_PER_FINISH_LINK = 0

#: The whole-query budget, as counted at the commit that set it (vertex
#: queries over vertex objects, storage attached, ``exact=True``).  The
#: pop loop itself enters no frame, and neither does a change to ``L``
#: or a page access; everything else is per
#:
#: * object seen: the ``RefinableDistance`` constructor (which probes),
#:   called by the loop itself for a vertex query's one-anchor object;
#: * bounding call: ``block_bounds``, once for the root and once per
#:   non-leaf expansion for all of its live children -- per node and
#:   anchor the row run, pages, minimum and MINDISTs are inline, so a
#:   node bounded costs no frame of its own;
#: * neighbor reported: the ``Neighbor`` and ``DistanceInterval``
#:   constructors (the interval checks its bounds in its own
#:   ``__init__``; the sort keys and ``dk_final``'s are ``attrgetter``:
#:   no frame);
#: * walk after the search: one ``walk_home`` or ``refine_fully`` per
#:   reported or filled state (a state that would walk home and is
#:   already exact is not called);
#: * fallback fill, when the search ends short of k (an exact ``knn``
#:   whose k-th candidate was walked to ``lo == Dk`` ends that way): its
#:   two comprehensions;
#: * query: set-up (stats, counter, location, handle, the Euclidean
#:   slope, one bound column per anchor with its check and geometry),
#:   the I/O snapshot and delta, result assembly.
#:
#: There is no slack left: a step or link that reaches its target costs
#: what any other does, and every case below meets its budget exactly.
FRAMES_PER_OBJECT = 1
FRAMES_PER_BOUNDING_CALL = 1
FRAMES_PER_NEIGHBOR = 2
FRAMES_PER_WALK = 1
FRAMES_PER_FALLBACK_FILL = 2
FRAMES_PER_QUERY = 25


def _lines_after_the_search() -> range:
    """Lines of ``best_first_knn`` after its search loop: a walk called
    from one of them is the exact pass's or the fallback fill's."""
    lines, first = inspect.getsourcelines(bestfirst.best_first_knn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.While))
    return range(first + loop.end_lineno, first + len(lines))


def _count_calls(index, object_index, fn):
    """Run ``fn`` counting Python calls: all of them, those at or under
    a queued state's ``refine``, those under its walks, and calls of the
    functions in ``named`` -- walks split by whether the search loop or
    the code after it made them -- plus the nodes each bounding call
    bounds."""
    state = QueryHandle(
        index, object_index, resolve_location(index.network, 0)
    ).object_state(0)
    refine_code = type(state).refine.__code__
    walk_codes = {type(state).refine_fully.__code__, type(state).walk_home.__code__}
    after_search = _lines_after_the_search()
    named = {
        QueryHandle.block_bounds.__code__: "bounding_calls",
        DistanceInterval.__init__.__code__: "intervals",
        refine_code: "refines",
    }
    counts = dict.fromkeys(named.values(), 0) | {
        "frames": -1, "under_refine": 0, "under_finish": 0, "nodes_bounded": 0,
        "search_walks": 0, "post_walks": 0,
    }
    stack = []  # what each frame under a refine / walk counts as

    def profiler(frame, event, arg):
        if event == "call":
            counts["frames"] += 1  # starts at -1: ``fn`` itself
            if stack:
                stack.append(stack[-1])
                counts[stack[-1]] += 1
            elif frame.f_code is refine_code:
                stack.append("under_refine")
                counts["under_refine"] += 1
            elif frame.f_code in walk_codes:
                stack.append("under_finish")  # the walk's own frame: per call
                after = frame.f_back.f_lineno in after_search
                counts["post_walks" if after else "search_walks"] += 1
            if frame.f_code in named:
                counts[named[frame.f_code]] += 1
            if frame.f_code is QueryHandle.block_bounds.__code__:
                counts["nodes_bounded"] += len(frame.f_locals["nodes"])
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
            # inside ``Dk`` in one ``walk_home`` call.  Either way one
            # collision is one call.
            walks = counts["search_walks"]
            assert steps + walks == s.collisions
            # The exact pass calls no walk for a neighbour already exact.
            assert 0 < counts["post_walks"] <= len(result.neighbors)
            if variant == "inn":
                assert walks == 0 and steps == s.refinements > 50
                assert s.extras["post_refinements"] > 10
            else:
                assert walks > 5 and s.refinements - steps > 20  # links walked
                assert counts["post_walks"] < len(result.neighbors)
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
            # The root, then one call per non-leaf expansion.
            assert counts["bounding_calls"] == 1 + s.nonleaf_expansions
            # A collision is one frame, a step or a walk; the links a
            # walk takes cost nothing more (FRAMES_PER_FINISH_LINK).
            # What the search left inexact costs one walk afterwards.
            post_walks = counts["post_walks"]
            budget = (
                FRAMES_PER_REFINEMENT * s.collisions
                + FRAMES_PER_FINISH_LINK * s.extras["post_refinements"]
                + FRAMES_PER_OBJECT * s.objects_seen
                + FRAMES_PER_BOUNDING_CALL * counts["bounding_calls"]
                + FRAMES_PER_NEIGHBOR * len(result.neighbors)
                + FRAMES_PER_WALK * post_walks
                + FRAMES_PER_QUERY
            )
            filled = s.extras.get("fallback_fill", 0)
            if "fallback_fill" in s.extras:
                budget += FRAMES_PER_FALLBACK_FILL
            assert post_walks <= len(result.neighbors) + filled
            assert counts["frames"] == budget, (query, k, counts, s)
            assert s.nonleaf_expansions >= 1
            assert counts["nodes_bounded"] <= 1 + 4 * s.nonleaf_expansions
    finally:
        small_index.detach_storage()
