"""Price the query path in Python frames per request, to the digit.

Wall clock cannot resolve a frame or two per request; a count can, and
it repeats exactly.  This script is a serving process without the
server (``serving_mix.py``: the engine ``repro serve`` builds and one
seeded mix of the calls the server's loop thread makes).  The mix runs
once unobserved (the resolved-location cache and the first read of each
mapped page are first-touch costs), then once under ``sys.setprofile``
counting every Python frame entered.  Beside the frames, each kNN row
carries the counted ops its answers' ``stats`` record, per request:
links walked (``refinements`` + the exact pass's ``post_refinements``),
queue pushes and simulated page misses; ``-`` for path and distance.
Run it before and after a change to the path and quote both tables.

Usage: count_calls.py NETWORK INDEX
"""

from __future__ import annotations

import sys

from serving_mix import seeded_mix, serving_engine


#: Counted ops per kNN row, summed from each answer's stats.
OPS = ("links", "pushes", "io_misses")


def frames_entered(call) -> tuple[int, object]:
    """Python frames entered while ``call()`` runs (``call``'s own
    excluded), and what it returned."""
    frames = -1

    def profiler(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(profiler)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return frames, result


def counted_ops(result) -> tuple[int, ...] | None:
    """``OPS`` of a ``knn`` / ``knn_batch`` answer; None for anything else."""
    answers = getattr(result, "results", [result])  # a batch holds its answers
    stats = [a.stats for a in answers if hasattr(a, "stats")]
    if not stats:
        return None
    return (
        sum(s.refinements + s.extras.get("post_refinements", 0) for s in stats),
        sum(s.queue_pushes for s in stats),
        sum(s.io_misses for s in stats),
    )


def main(network_path: str, index_path: str) -> int:
    mix = seeded_mix(serving_engine(network_path, index_path))
    for _, call in mix:
        call()
    rows: dict[str, list[tuple[int, tuple[int, ...] | None]]] = {}
    for label, call in mix:
        frames, result = frames_entered(call)
        rows.setdefault(label, []).append((frames, counted_ops(result)))
    print(
        f"{'request':<18}{'requests':>9}{'frames':>10}{'frames/request':>16}"
        + "".join(f"{op + '/request':>20}" for op in OPS)
    )
    for label in sorted(rows):
        row = rows[label]
        frames = sum(f for f, _ in row)
        ops = [o for _, o in row if o is not None]
        cells = [
            f"{sum(o[i] for o in ops) / len(ops):>20.1f}" if ops else f"{'-':>20}"
            for i in range(len(OPS))
        ]
        print(f"{label:<18}{len(row):>9}{frames:>10}{frames / len(row):>16.1f}" + "".join(cells))
    total = sum(f for row in rows.values() for f, _ in row)
    print(f"{'all':<18}{len(mix):>9}{total:>10}{total / len(mix):>16.1f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
