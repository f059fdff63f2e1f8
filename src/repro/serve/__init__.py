"""The asyncio serving layer: from library to service.

Everything needed to stand a long-lived server on top of one built
SILC index: a typed request/response protocol, per-client fair
scheduling, token-bucket + in-flight admission control, an awaitable
engine facade, and latency/shed metrics.  See
:class:`~repro.serve.server.SILCServer` for the orchestration and the
``repro serve`` CLI subcommand for the JSON-lines front end.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.engine import AsyncEngine
from repro.serve.protocol import (
    KINDS,
    Completed,
    Expired,
    Failed,
    Rejected,
    Request,
    Response,
    request_from_dict,
    response_to_dict,
)
from repro.serve.scheduler import Chunk, FairScheduler
from repro.serve.server import MetricsSnapshot, SILCServer, serve_jsonl

__all__ = [
    "KINDS",
    "Request",
    "Response",
    "Completed",
    "Rejected",
    "Expired",
    "Failed",
    "request_from_dict",
    "response_to_dict",
    "FairScheduler",
    "Chunk",
    "AdmissionController",
    "TokenBucket",
    "AsyncEngine",
    "MetricsSnapshot",
    "SILCServer",
    "serve_jsonl",
]
