"""The deterministic fault-injection harness itself.

Chaos tests are only as trustworthy as the injector: these pin down
its contracts -- kills fire exactly once at the scripted 1-based
ordinal, delays fire per request, file faults damage bytes the way an
interrupted write or a bad disk would -- with a fake worker, so no
processes are involved.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, corrupt_file, truncate_file
from reference import delay_pipe


class FakeWorker:
    def __init__(self):
        self.kills = 0

    def kill(self):
        self.kills += 1


class TestFaultInjector:
    def test_kill_fires_exactly_once_at_nth_request(self):
        injector = FaultInjector().kill_worker_at(0, 3)
        worker = FakeWorker()
        for _ in range(5):
            injector.before_request(0, worker)
        assert worker.kills == 1
        assert injector.request_counts[0] == 5
        assert injector.fired("worker_kill") == 1
        assert ("worker_kill", 0, 3) in injector.events

    def test_kills_are_per_shard(self):
        injector = FaultInjector().kill_worker_at(1, 1)
        w0, w1 = FakeWorker(), FakeWorker()
        injector.before_request(0, w0)
        injector.before_request(0, w0)
        assert w0.kills == 0  # shard 0 was never scripted
        injector.before_request(1, w1)
        assert w1.kills == 1

    def test_scripting_is_chainable(self):
        injector = FaultInjector()
        assert delay_pipe(injector.kill_worker_at(0, 1), 1, 0.0) is injector

    def test_delay_fires_per_request(self):
        injector = delay_pipe(FaultInjector(), 2, 0.001)
        worker = FakeWorker()
        injector.before_request(2, worker)
        injector.before_request(2, worker)
        assert injector.fired("pipe_delay") == 2
        assert worker.kills == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultInjector().kill_worker_at(0, 0)
        with pytest.raises(ValueError, match="non-negative"):
            delay_pipe(FaultInjector(), 0, -1.0)


class TestFileFaults:
    def test_truncate_keeps_half_by_default(self, tmp_path):
        path = tmp_path / "column.npy"
        np.save(path, np.arange(1000, dtype=np.int64))
        size = path.stat().st_size
        kept = truncate_file(path)
        assert kept == size // 2
        assert path.stat().st_size == kept

    def test_truncate_explicit_and_bounds(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        assert truncate_file(path, keep_bytes=10) == 10
        with pytest.raises(ValueError):
            truncate_file(path, keep_bytes=11)  # file is now 10 bytes

    def test_corrupt_flips_one_byte_size_preserving(self, tmp_path):
        path = tmp_path / "f.bin"
        original = bytes(range(16))
        path.write_bytes(original)
        corrupt_file(path)
        damaged = path.read_bytes()
        assert len(damaged) == len(original)
        assert damaged[:-1] == original[:-1]
        assert damaged[-1] == original[-1] ^ 0xFF
        # XOR is an involution: corrupting twice restores the byte.
        corrupt_file(path)
        assert path.read_bytes() == original

    def test_corrupt_validation(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            corrupt_file(path)
        path.write_bytes(b"ab")
        with pytest.raises(ValueError, match="range"):
            corrupt_file(path, offset=2)
