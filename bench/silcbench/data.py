"""Set-up phases as cold CLI processes, and the ``repro serve`` handle.

Everything the program under test sees is made here: a network file,
an index directory, optionally ``labels/`` + the planner cost model,
and then request lines on a pipe.  Each phase is its own
``python -m repro ...`` process timed from outside, which is what a
user deploying the system pays.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from silcbench import speed
from silcbench.workloads import DATA_SEED, OBJECTS, Workload

#: Seconds to wait for any single reply before declaring it missing.
REPLY_TIMEOUT = 60.0


def child_env(src: Path, tmp: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts.

    ``PYTHONHASHSEED`` pins set/dict iteration order in the program;
    ``TMPDIR`` keeps what it writes (the ``--shards`` store layout)
    inside the benchmark's work directory.
    """
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def timed_cli(args: list, env: dict, log: Path) -> float:
    """Run ``python -m repro <args>`` to completion; seconds at nominal host speed."""
    argv = [sys.executable, "-m", "repro", *map(str, args)]
    with open(log, "ab") as sink:
        slices = speed.bracket()
        start = perf_counter()
        done = subprocess.run(argv, env=env, stdout=sink, stderr=sink, check=False)
        elapsed = perf_counter() - start
        elapsed *= speed.factor(slices + speed.bracket())
    if done.returncode != 0:
        raise RuntimeError(
            f"`repro {' '.join(map(str, args))}` exited {done.returncode}:\n"
            + log.read_text(errors="replace")[-2000:]
        )
    return elapsed


@dataclass
class Dataset:
    """Files of one set-up, plus how long each phase took."""

    network: Path
    index: Path
    phases: dict[str, float] = field(default_factory=dict)


def prepare(workdir: Path, tag: str, size: int, labels: bool, env: dict) -> Dataset:
    """generate -> build -> (build-labels): one cold process per phase."""
    data = Dataset(workdir / f"net-{tag}.txt", workdir / f"index-{tag}")
    log = workdir / "setup.log"
    data.phases["generate"] = timed_cli(
        ["generate", data.network, "--kind", "road", "--size", size, "--seed", DATA_SEED],
        env, log,
    )
    data.phases["build"] = timed_cli(
        ["build", data.network, data.index, "--workers", 1], env, log
    )
    if labels:
        # Calibrates over the objects the server will hold and writes
        # cost_model.json, so --oracle auto never calibrates mid-measurement.
        data.phases["build_labels"] = timed_cli(
            ["build-labels", data.network, data.index,
             "--objects", OBJECTS, "--seed", DATA_SEED, "--mmap"],
            env, log,
        )
    return data


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def session_pids(sid: int) -> list[int]:
    """Live processes whose session is ``sid`` (the server and its workers)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        # Fields after the parenthesised command name: state ppid pgrp session
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident sets (``VmHWM``), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ServerGone(RuntimeError):
    """The server closed its output or stopped answering."""


class Server:
    """A live ``repro serve`` subprocess behind its JSON-lines pipes.

    Started in its own session so that every exit path can kill the
    whole process tree (shard workers included) by group.
    """

    def __init__(
        self, data: Dataset, workload: Workload, env: dict, log: Path,
        extra_flags: tuple[str, ...] = (),
    ) -> None:
        argv = [
            sys.executable, "-m", "repro", "serve", str(data.network),
            str(data.index), "--mmap", "--objects", str(OBJECTS),
            "--seed", str(DATA_SEED), *workload.serve_flags, *extra_flags,
        ]
        self._log = open(log, "ab")  # noqa: SIM115 - closed in close()
        slices = speed.bracket()
        start = perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, bufsize=0, start_new_session=True,
        )
        self.sid = self.proc.pid
        self._rfd = self.proc.stdout.fileno()
        self._wfd = self.proc.stdin.fileno()
        self._buf = b""
        try:
            self.stats()
        except BaseException:
            self.close()
            raise
        #: Seconds (at nominal host speed) from process start to the
        #: first answered probe.
        self.ready_seconds = perf_counter() - start
        self.ready_seconds *= speed.factor(slices + speed.bracket())

    def send(self, line: bytes) -> None:
        while line:
            line = line[os.write(self._wfd, line):]

    def read_lines(self, timeout: float = REPLY_TIMEOUT) -> list[bytes]:
        """Block until at least one complete reply line is available."""
        while b"\n" not in self._buf:
            ready, _, _ = select.select([self._rfd], [], [], timeout)
            chunk = os.read(self._rfd, 1 << 16) if ready else b""
            if not chunk:
                raise ServerGone(
                    "server closed its output" if ready
                    else f"no reply within {timeout:.0f}s"
                )
            self._buf += chunk
        *lines, self._buf = self._buf.split(b"\n")
        return lines

    def stats(self) -> dict:
        """The registry snapshot (only call with no request outstanding)."""
        self.send(b'{"kind": "stats", "id": "stats"}\n')
        (line,) = self.read_lines()
        return json.loads(line)["metrics"]

    def pids(self) -> list[int]:
        return session_pids(self.sid)

    def close(self) -> list[int]:
        """EOF the server, then kill whatever is left of its session.

        Returns the pids that are still there two seconds later (none,
        unless something escaped the kill).
        """
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        with contextlib.suppress(subprocess.TimeoutExpired):
            self.proc.wait(timeout=10)
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.sid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        for _ in range(40):  # killed workers take a moment to be reaped
            if not self.pids():
                break
            time.sleep(0.05)
        return self.pids()
