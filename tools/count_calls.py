"""Price the query path in Python frames per request, to the digit.

Wall clock cannot resolve a frame or two per request; a count can, and
it repeats exactly.  This script is a serving process without the
server (``serving_mix.py``: the engine ``repro serve`` builds and one
seeded mix of the calls the server's worker thread makes).  The mix runs
once unobserved (the resolved-location cache and the first read of each
mapped page are first-touch costs), then once under ``sys.setprofile``
counting every Python frame entered.  Run it before and after a change
to the path and quote both tables.

Usage: count_calls.py NETWORK INDEX
"""

from __future__ import annotations

import sys

from serving_mix import seeded_mix, serving_engine


def frames_entered(call) -> int:
    """Python frames entered while ``call()`` runs (``call``'s own excluded)."""
    frames = -1

    def profiler(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(None)
    return frames


def main(network_path: str, index_path: str) -> int:
    mix = seeded_mix(serving_engine(network_path, index_path))
    for _, call in mix:
        call()
    rows: dict[str, list[int]] = {}
    for label, call in mix:
        rows.setdefault(label, []).append(frames_entered(call))
    print(f"{'request':<18}{'requests':>9}{'frames':>10}{'frames/request':>16}")
    for label in sorted(rows):
        counts = rows[label]
        print(f"{label:<18}{len(counts):>9}{sum(counts):>10}{sum(counts) / len(counts):>16.1f}")
    total = sum(map(sum, rows.values()))
    print(f"{'all':<18}{len(mix):>9}{total:>10}{total / len(mix):>16.1f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
