"""Persistent benchmark trajectories behind ``repro bench-report``.

One append-only history file under ``benchmarks/results/``,
``build_times.txt``: every fresh benchmark index build appends one
line (see :func:`append_build_time`)::

    2026-07-29T14:30:10 n=3000 seed=42 workers=1 chunk_size=256 shards=1 oracle=silc seconds=5.162

Older lines predate the ``chunk_size``, ``shards`` and ``oracle``
fields and parse with those set to ``None``.  ``shards`` records the
spatial shard count of sharded-serving runs, and ``oracle`` which
precompute the timing measures (``silc`` quadtrees vs ``labels``
pruned-landmark labelling), so each accumulates its own trajectory
rows instead of overwriting the ``workers`` history.  This module
parses the accumulated history and renders the per-configuration
trajectory table behind the ``repro bench-report`` CLI subcommand --
the ROADMAP's "track the precompute cost from PR to PR without
re-running old revisions" item.  (Serving latency is measured by the
closed-loop benchmark, ``python3 bench/run.py --compare``.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from repro.integrity import append_record

#: Default history file, anchored to the source tree (two levels above
#: this module: src/repro/ -> repo root), so ``repro bench-report``
#: finds it from any working directory.
DEFAULT_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "build_times.txt"
)


@dataclass(frozen=True)
class BuildRecord:
    """One appended build timing."""

    stamp: str
    n: int
    seed: int
    workers: int
    seconds: float
    chunk_size: int | None = None
    #: Spatial shard processes of the recorded run (None on legacy
    #: lines that predate the field; 1 means unsharded).
    shards: int | None = None
    #: Which precompute was timed (None on legacy lines; "silc" is
    #: the quadtree build, "labels" the pruned-landmark labelling).
    oracle: str | None = None


def append_build_time(
    n: int,
    seed: int,
    workers: int,
    chunk_size: int,
    seconds: float,
    path: str | Path = DEFAULT_PATH,
    shards: int = 1,
    oracle: str = "silc",
) -> None:
    """Append one build timing line to the (append-only) history file.

    Shared by the benchmark fixtures and ``repro build --record``, so
    the trajectory accumulates from both suites and operational builds
    without re-running old revisions.  ``shards`` tags runs of the
    sharded serving tier (1 = unsharded) and ``oracle`` names the
    precompute that was timed, so each lands in its own trajectory
    rows.
    """
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    append_record(
        path,
        f"{stamp} n={n} seed={seed} workers={workers} "
        f"chunk_size={chunk_size} shards={shards} oracle={oracle} "
        f"seconds={seconds:.3f}",
    )


def parse_build_times(text: str) -> list[BuildRecord]:
    """Parse the history file's lines, skipping blanks and comments.

    Raises ``ValueError`` naming the offending line on malformed input
    (a truncated write should be loud, not silently dropped).
    """
    records: list[BuildRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            stamp = parts[0]
            fields = dict(p.split("=", 1) for p in parts[1:])
            chunk = fields.get("chunk_size")
            shards = fields.get("shards")
            records.append(
                BuildRecord(
                    stamp=stamp,
                    n=int(fields["n"]),
                    seed=int(fields["seed"]),
                    workers=int(fields["workers"]),
                    seconds=float(fields["seconds"]),
                    chunk_size=None if chunk is None else int(chunk),
                    shards=None if shards is None else int(shards),
                    oracle=fields.get("oracle"),
                )
            )
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"bad build-times line {lineno}: {line!r}") from exc
    return records


def format_report(records: list[BuildRecord]) -> str:
    """The trajectory: one row per (n, workers, chunk, shards, oracle).

    ``first``/``latest`` are in file order (the file is append-only,
    so file order is trajectory order); ``best``/``median`` summarize
    the whole history of that configuration.  Lines predating the
    ``chunk_size``, ``shards`` or ``oracle`` fields render a ``-`` in
    those columns.
    """
    if not records:
        return "no build timings recorded yet"
    groups: dict[tuple[int, int, int, int, str], list[BuildRecord]] = {}
    for r in records:
        key = (
            r.n,
            r.workers,
            -1 if r.chunk_size is None else r.chunk_size,
            -1 if r.shards is None else r.shards,
            "-" if r.oracle is None else r.oracle,
        )
        groups.setdefault(key, []).append(r)
    header = (
        "n", "workers", "chunk", "shards", "oracle",
        "builds", "first_s", "latest_s", "best_s", "median_s",
    )
    rows = []
    for (n, workers, chunk, shards, oracle), rs in sorted(groups.items()):
        secs = [r.seconds for r in rs]
        rows.append(
            (
                str(n),
                str(workers),
                "-" if chunk < 0 else str(chunk),
                "-" if shards < 0 else str(shards),
                oracle,
                str(len(rs)),
                f"{secs[0]:.3f}",
                f"{secs[-1]:.3f}",
                f"{min(secs):.3f}",
                f"{median(secs):.3f}",
            )
        )
    widths = [
        max(len(header[i]), max(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths, strict=True))]
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths, strict=True)))
    span = f"{records[0].stamp} .. {records[-1].stamp}"
    lines.append(f"({len(records)} builds, {span})")
    return "\n".join(lines)


def report_file(path: str | Path) -> str:
    """Parse + format one history file (the CLI entry point)."""
    path = Path(path)
    if not path.exists():
        return f"no build-times history at {path}"
    return format_report(parse_build_times(path.read_text()))
