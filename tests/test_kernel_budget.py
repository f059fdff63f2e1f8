"""A counted tripwire against re-layering the kNN kernel.

Wall-clock says nothing reliable in a unit test; Python-level call
counts do.  One fixed query runs under ``sys.setprofile`` and the test
counts (a) the Python frames entered per refinement step -- from
``ObjectDistanceState.refine`` down through the probe, the edge lookup
and the page accounting -- and (b) ``DistanceInterval`` constructions,
which belong to the output boundary only.  Before the kernel was
flattened the same query cost 29 frames and four validated
interval allocations per refinement.
"""

from __future__ import annotations

import sys

from repro.query.bestfirst import best_first_knn
from repro.query.distances import ObjectDistanceState
from repro.silc.intervals import DistanceInterval

#: ObjectDistanceState.refine, RefinableDistance.refine, edge_weight,
#: hop_and_interval, StorageSimulator.touch, LRUCache.access.
FRAMES_PER_REFINEMENT = 6


def _count_calls(fn):
    """Run ``fn`` counting Python calls under ``ObjectDistanceState.refine``
    and ``DistanceInterval`` constructions anywhere."""
    refine_code = ObjectDistanceState.refine.__code__
    interval_code = DistanceInterval.__post_init__.__code__
    counts = {"under_refine": 0, "intervals": 0}
    depth = 0  # > 0 while a state.refine() frame is on the stack

    def profiler(frame, event, arg):
        nonlocal depth
        if event == "call":
            if depth or frame.f_code is refine_code:
                depth += 1
                counts["under_refine"] += 1
            if frame.f_code is interval_code:
                counts["intervals"] += 1
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
        # Warm the list mirrors: building one is a first-touch cost,
        # not a per-refinement one.
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
