"""Assert two `repro serve` JSON-lines outputs answered identically.

CI's planner-parity smoke runs the same request file through
``--oracle silc`` and ``--oracle auto`` and feeds both outputs here, and
its walk smoke the same exact k = 25 requests of every variant through
``--oracle silc`` and ``--oracle ine`` (Dijkstra's ball).
Responses arrive in completion order and carry timing fields, so a
textual diff cannot work; this script pairs responses by request id
and compares the answers themselves: every response must be
``status: ok``, neighbor ids (``knn`` / ``knn_batch``) and paths
(``path``) must match exactly, and distances must agree to within
floating-point tolerance (backends sum the same shortest path in
different association orders).  With ``--requests FILE`` (the lines
both servers read), a ``knn_m`` reply is compared as a set: kNN-M reports
its neighbours unranked, INE ranks them.

Usage: compare_serve_outputs.py A.out B.out [--expect N] [--requests FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import sys

REL_TOL = 1e-9


def load(path: str) -> dict[int, dict]:
    responses: dict[int, dict] = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["status"] != "ok":
                raise SystemExit(f"{path}: request {record['id']} not ok: {record}")
            responses[record["id"]] = record
    return responses


def answer(record: dict, unranked: bool = False) -> tuple[list, list]:
    """``(exact fields, float fields)`` of any request kind's reply;
    ``unranked``: its neighbours in id order."""
    if unranked:
        pairs = sorted(zip(record["ids"], record["distances"]))
        return [[i for i, _ in pairs], None], [[d for _, d in pairs], 0.0]
    return (
        [record.get(k) for k in ("ids", "path")],
        [record.get(k, 0.0) for k in ("distances", "distance")],
    )


def unranked_ids(path: str | None) -> set[int]:
    """Ids of the ``knn_m`` requests in the request file at ``path``."""
    if path is None:
        return set()
    with open(path) as handle:
        requests = [json.loads(line) for line in handle if line.strip()]
    return {r["id"] for r in requests if r.get("variant") == "knn_m"}


def close(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--expect", type=int, default=None,
                        help="required response count per file")
    parser.add_argument("--requests", default=None,
                        help="the request file: its knn_m replies compare as sets")
    args = parser.parse_args(argv)

    base = load(args.baseline)
    cand = load(args.candidate)
    if base.keys() != cand.keys():
        raise SystemExit(
            f"request ids differ: {sorted(base)} vs {sorted(cand)}"
        )
    if args.expect is not None and len(base) != args.expect:
        raise SystemExit(f"expected {args.expect} responses, got {len(base)}")
    unranked = unranked_ids(args.requests)
    for rid in sorted(base):
        ids_a, dists_a = answer(base[rid], rid in unranked)
        ids_b, dists_b = answer(cand[rid], rid in unranked)
        if ids_a != ids_b:
            raise SystemExit(
                f"request {rid}: ids/path differ: {ids_a} vs {ids_b}"
            )
        if not close(dists_a, dists_b):
            raise SystemExit(
                f"request {rid}: distances differ: {dists_a} vs {dists_b}"
            )
    print(f"parity ok: {len(base)} responses identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
