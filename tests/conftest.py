"""Shared fixtures: small networks and prebuilt SILC indexes.

Session-scoped where construction is expensive; every test that
mutates state builds its own objects instead.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import threading

import numpy as np
import pytest

from repro.datasets import random_vertex_objects
from repro.network import distance_matrix, grid_network, road_like_network
from repro.objects import ObjectIndex
from repro.serve import SILCServer, serve_jsonl
from repro.silc import SILCIndex


@pytest.fixture(scope="session")
def small_net():
    """A 150-vertex road-like network (the main unit-test substrate)."""
    return road_like_network(150, seed=9)


@pytest.fixture(scope="session")
def small_index(small_net):
    return SILCIndex.build(small_net)


@pytest.fixture(scope="session")
def wide_net():
    """An 81-vertex road network on a grid of order 9: uint32 codes."""
    from reference import crowded

    return crowded(road_like_network(80, seed=5), 9)


@pytest.fixture(scope="session")
def wide_index(wide_net):
    return SILCIndex.build(wide_net)


@pytest.fixture(scope="session")
def small_dist(small_net):
    """All-pairs ground-truth distances for ``small_net``."""
    return distance_matrix(small_net)


@pytest.fixture(scope="session")
def grid_net():
    """An 8x8 jittered grid network."""
    return grid_network(8, 8, jitter=0.2, weight_noise=0.2, seed=3)


@pytest.fixture(scope="session")
def grid_index(grid_net):
    return SILCIndex.build(grid_net)


@pytest.fixture(scope="session")
def grid_dist(grid_net):
    return distance_matrix(grid_net)


@pytest.fixture(scope="session")
def small_objects(small_net):
    """Twenty vertex objects on ``small_net``."""
    return random_vertex_objects(small_net, count=20, seed=4)


@pytest.fixture(scope="session")
def small_object_index(small_net, small_index, small_objects):
    return ObjectIndex(small_net, small_objects, small_index.embedding)


def brute_force_knn(dist_matrix, object_set, query_vertex, k):
    """Ground-truth k nearest vertex objects by exact network distance."""
    pairs = sorted(
        (float(dist_matrix[query_vertex, o.position.vertex]), o.oid)
        for o in object_set
    )
    return pairs[:k]


@pytest.fixture(scope="session")
def brute_force():
    return brute_force_knn


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


class PipedServe:
    """``serve_jsonl`` on its own loop thread, driven through real pipes.

    The test thread is the client: it writes request lines into one
    ``os.pipe()`` and reads reply lines from another, so requests can
    be sent closed-loop (next one after the reply), which a request
    file cannot express.  Every wait is bounded by ``TIMEOUT``.
    """

    TIMEOUT = 30.0

    def __init__(self, async_engine, **server_kwargs):
        in_r, in_w = os.pipe()
        out_r, out_w = os.pipe()
        self._requests = os.fdopen(in_w, "w")
        # Unbuffered, so select() sees everything not yet returned.
        self._replies = os.fdopen(out_r, "rb", buffering=0)
        self.server = SILCServer(async_engine, **server_kwargs)
        self.snapshot = None
        self.error = None
        #: Set once serve_jsonl returned or raised (streams still open).
        self.returned = threading.Event()

        async def run():
            source = os.fdopen(in_r)
            sink = os.fdopen(out_w, "w")
            try:
                async with async_engine:
                    self.snapshot = await serve_jsonl(self.server, source, sink)
            except Exception as exc:  # noqa: BLE001 - the test inspects it
                self.error = exc
            self.returned.set()
            for stream in (source, sink):
                try:
                    stream.close()
                except OSError:
                    pass  # the test closed the other end first

        self.thread = threading.Thread(target=lambda: asyncio.run(run()))
        self.thread.start()

    def send(self, *records):
        """Write the records (dicts, or raw lines) in one ``write``."""
        self._requests.write("".join(
            (r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records
        ))
        self._requests.flush()

    def send_bytes(self, data: bytes):
        """Write raw bytes in one ``write``, framed as they are."""
        self._requests.flush()
        os.write(self._requests.fileno(), data)

    def end_input(self):
        """EOF on the request pipe, the reply pipe left open."""
        self._requests.close()

    def recv(self):
        ready, _, _ = select.select([self._replies], [], [], self.TIMEOUT)
        assert ready, "no reply within the timeout"
        return json.loads(self._replies.readline())

    def ask(self, record):
        self.send(record)
        return self.recv()

    def hang_up(self):
        """Close the reply pipe's read end: the next reply cannot be written."""
        self._replies.close()

    def close(self):
        """EOF on the request pipe; returns the final metrics snapshot."""
        self._requests.close()
        self.thread.join(self.TIMEOUT)
        assert not self.thread.is_alive(), "serve_jsonl did not return at EOF"
        if not self._replies.closed:
            self._replies.close()
        return self.snapshot


@pytest.fixture()
def piped_serve():
    """Factory for :class:`PipedServe`; closes what the test left open."""
    opened = []

    def start(async_engine, **server_kwargs):
        opened.append(PipedServe(async_engine, **server_kwargs))
        return opened[-1]

    yield start
    for piped in opened:
        if piped.thread.is_alive():
            piped.close()
