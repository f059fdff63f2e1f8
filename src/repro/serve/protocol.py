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

A :class:`Rejected` response is backpressure, not an error: the
client-side retry contract (wait ``retry_after``, back off, give up) is
in docs/OPERATIONS.md, "Shedding and client retries", and
``examples/serve_demo.py`` implements it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.options import ORACLE_CHOICES
from repro.query.bestfirst import VARIANTS

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
        ``exact`` defaults to True on the dataclass and the wire: a
        client reading ``distances`` expects network distances.
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
    #: Admission/scheduling cost: the number of engine queries (0 for
    #: ``stats``: monitoring probes never consume query budget).
    cost: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost", _checked(self.kind, self.queries, self.oracle, self.deadline))


def _checked(kind: str, queries: tuple, oracle, deadline) -> int:
    """The checks every :class:`Request` passes, however it was built;
    returns its cost."""
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r}; expected one of {KINDS}")
    if oracle is not None and oracle not in ORACLE_CHOICES:
        raise ValueError(f"unknown oracle {oracle!r}; expected one of {ORACLE_CHOICES}")
    if kind in ("path", "distance") and len(queries) != 2:
        raise ValueError(f"{kind} requests need (source, target), got {queries!r}")
    if kind in ("knn", "knn_batch") and not queries:
        raise ValueError(f"{kind} requests need at least one query location")
    # ``not >`` rather than ``<=``: NaN compares false both ways and
    # would otherwise run with no deadline at all.
    if deadline is not None and not deadline > 0:
        raise ValueError("deadline must be a positive budget in seconds")
    return len(queries) if kind == "knn_batch" else 0 if kind == "stats" else 1


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

    One pass: the wire's types and every check :class:`Request` makes.
    Numbers are validated, not coerced (and ``true`` is a ``bool``);
    ``exact`` must be a bool, ``variant`` (of a kNN kind) one of
    :data:`~repro.query.bestfirst.VARIANTS`, ``oracle`` a string.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"request must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r}; expected one of {KINDS}")
    try:
        if kind in ("path", "distance"):
            vertices = {"source": obj["source"], "target": obj["target"]}
        elif kind == "knn_batch":
            queries = obj["queries"]
            if type(queries) is not list:
                raise ValueError("queries must be a list of vertex ids")
            vertices = {f"queries[{i}]": q for i, q in enumerate(queries)}
        elif kind == "stats":
            vertices = {}
        else:
            vertices = {"query": obj["query"]}
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
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
    exact = obj.get("exact", True)
    if type(exact) is not bool:
        raise ValueError(f"exact must be true or false, got {exact!r}")
    variant = obj.get("variant", "knn")
    if kind in ("knn", "knn_batch") and variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    oracle = obj.get("oracle")
    if oracle is not None and type(oracle) is not str:
        raise ValueError(f"oracle must be a string, got {oracle!r}")
    queries = tuple(vertices.values())
    # Every check is made: fill the frozen fields without running them again.
    request = object.__new__(Request)
    request.__dict__.update(
        id=obj.get("id", 0), client=str(obj.get("client", "default")), kind=kind,
        queries=queries, k=k, variant=variant, exact=exact, oracle=oracle,
        deadline=deadline, cost=_checked(kind, queries, oracle, deadline),
    )
    return request


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
