"""Counted tripwires on the cold path: what a process imports, and how
many Python frames the build spends per source.

Neither reads a clock.  (a) A process that serves a built index --
``repro serve`` and its shard workers, ``knn``, ``path``, ``stats`` --
must not load SciPy: the build needs it, a serving process pays ~0.5 s
and ~45 MB per process for nothing.  (b) ``SILCIndex.build`` compresses
a whole Dijkstra chunk in array passes, so the Python frames it enters
per source are a small constant -- the stack walk it replaced entered
several per *block*.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network import grid_network, road_like_network, save_text
from repro.silc import SILCIndex

TOOLS = Path(__file__).resolve().parent.parent / "tools"

#: The progress callback, the table view SILCIndex hands out, and the
#: per-chunk work (Dijkstra driver, first hops, ratios, the kernel's
#: numpy wrappers: ~130 frames) amortized over a chunk of 128.
FRAMES_PER_SOURCE = 4

_RUN_CLI = """
import sys
from repro.cli import main
rc = main(sys.argv[1:])
bad = sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "networkx", "matplotlib"})
print("LOADED", bad, file=sys.stderr)
sys.exit(rc or bool(bad))
"""


@pytest.fixture(scope="module")
def built(tmp_path_factory, small_net, small_index):
    root = tmp_path_factory.mktemp("cold")
    save_text(small_net, root / "net.txt")
    small_index.save(root / "index.silc")
    return str(root / "net.txt"), str(root / "index.silc")


def _run(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


class TestImportHygiene:
    def test_serving_process_and_shard_workers_load_no_scipy(self, built):
        done = _run([str(TOOLS / "check_imports.py"), *built])
        assert done.returncode == 0, done.stdout + done.stderr
        assert "2 shard workers" in done.stdout

    @pytest.mark.parametrize(
        "command",
        [
            ["stats", "--mmap"],
            ["path", "0", "100", "--mmap"],
            ["knn", "--query", "0", "--query", "25", "--k", "3", "--objects", "20"],
            ["knn", "--query", "0", "--k", "3", "--objects", "20", "--oracle", "ine"],
        ],
        ids=lambda c: "-".join(c[:1] + c[-1:]),
    )
    def test_query_commands_load_no_scipy(self, built, command):
        net, index = built
        done = _run(["-c", _RUN_CLI, command[0], net, index, *command[1:]])
        assert done.returncode == 0, done.stdout + done.stderr
        assert "LOADED []" in done.stderr

    def test_build_still_loads_it_when_first_needed(self, built, tmp_path):
        # The check above is not vacuous: the same probe sees SciPy in
        # a process that builds.
        done = _run(["-c", _RUN_CLI, "build", built[0], str(tmp_path / "again.silc")])
        assert "LOADED ['scipy']" in done.stderr

    def test_no_unused_imports_under_src(self, tmp_path):
        """ruff's F401 gate, runnable where ruff is not installed -- and
        not vacuous: the same tool flags an orphan it is shown."""
        tool = str(TOOLS / "check_unused_imports.py")
        done = _run([tool])
        assert done.returncode == 0, done.stdout + done.stderr
        orphan = tmp_path / "orphan.py"
        orphan.write_text(
            "import os\nimport sys  # noqa: F401\nfrom m import kept, gone\n"
            "__all__ = ['kept']\n"
        )
        done = _run([tool, str(orphan)])
        assert done.returncode == 1
        assert [line.split(": ")[1] for line in done.stdout.splitlines()] == [
            "F401 `os` imported but unused", "F401 `gone` imported but unused",
        ]


def _frames_during(fn):
    frames = 0

    def profiler(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, frames


class TestBuildBudget:
    @pytest.mark.parametrize(
        "network",
        [
            # ~54 blocks per source, and ~78: the budget is the same.
            lambda: grid_network(16, 16, jitter=0.2, weight_noise=0.2, seed=3),
            lambda: road_like_network(600, seed=7),
        ],
        ids=["grid-256", "road-600"],
    )
    def test_frames_per_source_do_not_grow_with_blocks(self, network):
        net = network()
        net.to_csr()  # cached; a per-edge loop, not the build's
        # One untimed build first: the first in a process imports SciPy,
        # and those frames are not the build's.
        SILCIndex.build(net)
        calls = []
        index, frames = _frames_during(
            lambda: SILCIndex.build(net, progress=lambda d, t: calls.append(d))
        )
        assert len(calls) == net.num_vertices
        assert index.total_blocks() > 10 * net.num_vertices
        # A fixed per-build allowance (connectivity check, grid choice,
        # store assembly and validation) plus the per-source constant.
        assert frames <= 300 + FRAMES_PER_SOURCE * net.num_vertices, (
            frames, index.total_blocks()
        )
