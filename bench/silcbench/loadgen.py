"""Closed-loop load generation and the floor estimators.

One client with one request outstanding: it sends its next request when
the reply arrives (after a reference slice, see :mod:`silcbench.speed`),
so a slower server receives less load.  The same request list is
replayed round after round against one long-lived server, and a
request's latency is its *minimum* over the measured rounds -- its
floor -- after each sample is scaled to nominal host speed by the two
slices around it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter

from silcbench import speed
from silcbench.data import Server, ServerGone
from silcbench.workloads import encode


@dataclass
class Round:
    """One replay of the request list (seconds; ``None`` reply = missing)."""

    raw: list[float]
    slices: list[float]
    replies: list[bytes | None]

    @property
    def missing(self) -> int:
        return sum(r is None for r in self.replies)

    def latency(self) -> list[float]:
        """Latencies at nominal host speed."""
        return [t * f for t, f in zip(self.raw, speed.factors(self.slices), strict=True)]


def play_round(server: Server, lines: list[bytes]) -> Round:
    """Send each line, wait for its reply, take a reference slice."""
    raw: list[float] = []
    replies: list[bytes | None] = []
    slices = [speed.reference_slice()]
    try:
        for line in lines:
            start = perf_counter()
            server.send(line)
            (reply,) = server.read_lines()
            raw.append(perf_counter() - start)
            replies.append(reply)
            slices.append(speed.reference_slice())
    except ServerGone:
        # The unanswered requests count as failed; the round is not timed.
        replies += [None] * (len(lines) - len(replies))
    return Round(raw, slices, replies)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def floor(best: list[float], new: list[float]) -> list[float]:
    return list(new) if not best else [min(a, b) for a, b in zip(best, new, strict=True)]


@dataclass
class Floors:
    """Per-request minima over the measured rounds, normalised and raw."""

    latency: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    pooled: list[float] = field(default_factory=list)
    slowdown: list[float] = field(default_factory=list)
    rounds: int = 0

    def add(self, rnd: Round) -> None:
        normalised = rnd.latency()
        self.latency = floor(self.latency, normalised)
        self.raw = floor(self.raw, rnd.raw)
        self.pooled.extend(normalised)
        self.slowdown.append(1.0 / speed.factor(rnd.slices))
        self.rounds += 1

    def p50_ms(self) -> float:
        return statistics.median(self.latency) * 1e3

    def p95_ms(self) -> float:
        return percentile(self.latency, 95.0) * 1e3

    def raw_p50_ms(self) -> float:
        return statistics.median(self.raw) * 1e3

    def pooled_p99_ms(self) -> float:
        """The un-floored tail: periodic stalls the floor hides show here."""
        return percentile(self.pooled, 99.0) * 1e3

    def throughput_qps(self, queries: int) -> float:
        """Engine queries per second of service time (think time excluded)."""
        return queries / sum(self.latency)


def encode_all(requests: list[dict]) -> list[bytes]:
    return [encode(r) for r in requests]
