"""Typed request/response protocol for the serving layer.

The serving layer speaks a small, explicit vocabulary: four query
kinds (``knn``, ``knn_batch``, ``path``, ``distance``) plus the
``stats`` monitoring kind (answers immediately with the unified
metrics-registry snapshot; bypasses admission and scheduling so it
works *especially* when the server is overloaded), each carried
by a :class:`Request` tagged with the submitting client and an
optional deadline, and answered by exactly one of four responses --
:class:`Completed`, :class:`Rejected` (admission control shed the
request; retry after the indicated delay), :class:`Expired` (the
deadline passed before the request reached the engine) or
:class:`Failed` (the query raised).

Every type round-trips through plain dicts (:func:`request_from_dict`
/ :func:`response_to_dict`), which is what the ``repro serve``
JSON-lines loop ships over stdin/stdout.

Client-side retry contract
--------------------------
A :class:`Rejected` response is an explicit backpressure signal, not
an error: the server *names the earliest useful resubmission time* in
``retry_after`` (seconds).  Well-behaved clients

1. wait at least ``retry_after`` before resubmitting (resubmitting
   sooner is guaranteed to be shed again and only adds load);
2. on repeated rejections, back off exponentially from that base --
   ``retry_after * 2**(attempt-1)`` capped at a few seconds -- so a
   fleet of rejected clients de-synchronizes instead of stampeding;
3. give up after a bounded number of attempts and surface the
   rejection.

:class:`Expired` responses are terminal for that request: the
deadline was the client's own budget, so resubmission only makes
sense with a fresh (larger) deadline.  ``aborted=True`` means the
budget ran out *mid-execution* (the engine stopped the search; no
partial result is returned); ``aborted=False`` means it ran out while
the request was still queued.  :class:`Failed` responses are not
retried -- the query itself raised and will raise again.
``examples/serve_demo.py`` implements this contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: The request kinds the server understands (four query kinds plus
#: the ``stats`` monitoring probe).
KINDS = ("knn", "knn_batch", "path", "distance", "stats")


@dataclass(frozen=True)
class Request:
    """One unit of work submitted to the server.

    Parameters
    ----------
    id:
        Caller-chosen correlation id, echoed on the response.
    client:
        Lane key for fair scheduling and per-client rate limiting.
    kind:
        One of :data:`KINDS`.
    queries:
        Query locations: one vertex id for ``knn``, a tuple of them
        for ``knn_batch``, and ``(source, target)`` for ``path`` and
        ``distance``.
    k / variant / exact:
        Passed through to the kNN engine (ignored by path/distance).
        ``exact`` defaults to True on both the dataclass and the wire
        -- a serving client reading ``distances`` off the response
        expects real network distances, not interval midpoints.
    oracle:
        Optional per-request backend override
        (``auto``/``silc``/``labels``/``ine``); ``None`` defers to
        the serving engine's default.
    deadline:
        Optional budget in seconds from submission; a request still
        queued when it runs out is answered with :class:`Expired`
        instead of being executed.
    """

    id: int | str
    client: str
    kind: str
    queries: tuple = ()
    k: int = 1
    variant: str = "knn"
    exact: bool = True
    oracle: str | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}; expected one of {KINDS}")
        if self.oracle is not None:
            from repro.oracle.base import ORACLE_CHOICES

            if self.oracle not in ORACLE_CHOICES:
                raise ValueError(
                    f"unknown oracle {self.oracle!r}; "
                    f"expected one of {ORACLE_CHOICES}"
                )
        if self.kind in ("path", "distance") and len(self.queries) != 2:
            raise ValueError(f"{self.kind} requests need (source, target), got {self.queries!r}")
        if self.kind in ("knn", "knn_batch") and not self.queries:
            raise ValueError(f"{self.kind} requests need at least one query location")
        # ``not >`` rather than ``<=``: NaN compares false both ways and
        # would otherwise run with no deadline at all.
        if self.deadline is not None and not self.deadline > 0:
            raise ValueError("deadline must be a positive budget in seconds")

    @property
    def cost(self) -> int:
        """Admission/scheduling cost: the number of engine queries."""
        if self.kind == "stats":
            return 0  # monitoring probes never consume query budget
        if self.kind == "knn_batch":
            return len(self.queries)
        return 1


@dataclass(frozen=True)
class Response:
    """Base class: every response echoes the request id and client."""

    id: int | str
    client: str

    status = "response"


@dataclass(frozen=True)
class Completed(Response):
    """The request ran; ``result`` holds the kind-specific payload.

    ``knn``: ``{"ids": [...], "distances": [...]}``;
    ``knn_batch``: ``{"ids": [[...], ...], "distances": [[...], ...]}``;
    ``path``: ``{"path": [...], "distance": float}``;
    ``distance``: ``{"distance": float}``;
    ``stats``: ``{"metrics": <registry snapshot>}``.
    """

    result: dict = field(default_factory=dict)
    latency: float = 0.0
    sched_delay: int = 0

    status = "ok"


@dataclass(frozen=True)
class Rejected(Response):
    """Admission control shed the request instead of queueing it."""

    retry_after: float = 0.0
    reason: str = "overloaded"

    status = "rejected"


@dataclass(frozen=True)
class Expired(Response):
    """The deadline ran out -- while queued, or mid-execution.

    ``aborted=False`` (the historical case): the budget expired while
    the request was still queued and it was never dispatched.
    ``aborted=True``: the budget expired *during execution* -- the
    engine's time cap stopped the search and no (late) result was
    produced.  Either way the client gets this answer promptly
    instead of a result it can no longer use.
    """

    waited: float = 0.0
    aborted: bool = False

    status = "expired"


@dataclass(frozen=True)
class Failed(Response):
    """The query raised; ``error`` carries the exception text."""

    error: str = ""

    status = "error"


# ----------------------------------------------------------------------
# Wire format (dicts; the CLI adds the JSON framing)
# ----------------------------------------------------------------------

def request_from_dict(obj: dict) -> Request:
    """Build a :class:`Request` from one decoded JSON-lines record.

    Numbers are validated, not coerced (and ``true`` is a ``bool``).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"request must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r}; expected one of {KINDS}")
    if kind in ("path", "distance"):
        vertices = {"source": obj["source"], "target": obj["target"]}
    elif kind == "knn_batch":
        vertices = {f"queries[{i}]": q for i, q in enumerate(obj["queries"])}
    elif kind == "stats":
        vertices = {}
    else:
        vertices = {"query": obj["query"]}
    for name, vertex in vertices.items():  # whether the network has it, the engine says
        if type(vertex) is not int:
            raise ValueError(f"{name} must be an integer vertex id, got {vertex!r}")
    k = obj.get("k", 1)
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {obj['k']!r}")
    deadline = obj.get("deadline")
    if deadline is not None and type(deadline) not in (int, float):
        raise ValueError("deadline must be a positive budget in seconds")
    return Request(
        id=obj.get("id", 0),
        client=str(obj.get("client", "default")),
        kind=kind,
        queries=tuple(vertices.values()),
        k=k,
        variant=obj.get("variant", "knn"),
        exact=bool(obj.get("exact", True)),
        oracle=obj.get("oracle"),
        deadline=deadline,
    )


def response_to_dict(response: Response) -> dict:
    """Flatten any response to one JSON-serializable record."""
    out: dict[str, Any] = {
        "id": response.id,
        "client": response.client,
        "status": response.status,
    }
    if isinstance(response, Completed):
        out.update(response.result)
        out["latency"] = round(response.latency, 6)
        # The counted scheduling delay (engine queries that ran while
        # this request waited) -- the unit the fairness contract is
        # measured in; scripted clients need it as much as in-process
        # ones.
        out["sched_delay"] = response.sched_delay
    elif isinstance(response, Rejected):
        out["retry_after"] = round(response.retry_after, 6)
        out["reason"] = response.reason
    elif isinstance(response, Expired):
        out["waited"] = round(response.waited, 6)
        if response.aborted:
            out["aborted"] = True
    elif isinstance(response, Failed):
        out["error"] = response.error
    return out
