"""Assert that querying a built index never loads SciPy (or worse).

SciPy is the build's dependency: ``build`` runs its Dijkstra
(``generate`` triangulates in Python and loads none of it).  A process
that *serves* -- ``repro serve``, its shard workers, ``knn``, ``path``,
``stats`` -- reads
columns and walks them in plain Python; importing SciPy there costs
every such process ~0.5 s and ~45 MB for nothing.  This script is that
serving process: it maps the index, answers every request kind on
every oracle, locally and through two shard worker processes, and then
looks for the modules that must not be there -- in its own
``sys.modules`` and in the workers' memory maps.

Usage: check_imports.py NETWORK INDEX_DIR
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

FORBIDDEN = ("scipy", "networkx", "matplotlib")


def loaded() -> list[str]:
    """Forbidden top-level packages in this process's ``sys.modules``."""
    return sorted({n.split(".")[0] for n in sys.modules} & set(FORBIDDEN))


def mapped(pid: int) -> list[str]:
    """Forbidden packages with a shared object mapped into process ``pid``."""
    maps = Path(f"/proc/{pid}/maps")
    text = maps.read_text() if maps.exists() else ""
    return [name for name in FORBIDDEN if f"/{name}/" in text]


def main(network_path: str, index_path: str) -> int:
    from repro.datasets import random_vertex_objects
    from repro.engine import QueryEngine
    from repro.network import load_text
    from repro.objects import ObjectIndex
    from repro.oracle import PrunedLabellingOracle
    from repro.serve import AsyncEngine
    from repro.silc import SILCIndex

    net = load_text(network_path)
    index = SILCIndex.load(index_path, net, mmap=True)
    objects = random_vertex_objects(net, count=20, seed=0)
    engine = QueryEngine(
        index,
        ObjectIndex(net, objects, index.embedding),
        labelling=PrunedLabellingOracle.build(net),
    )
    far = net.num_vertices - 1
    answered = 0
    for oracle in ("silc", "labels", "ine", "auto"):
        answered += len(engine.knn(0, 3, exact=True, oracle=oracle).neighbors)
        answered += len(engine.knn_batch([1, far], 2, exact=True, oracle=oracle).results)
    assert index.path(0, far)[-1] == far and index.distance(0, far) > 0

    async def sharded() -> list[str]:
        async with AsyncEngine(engine, shards=2) as served:
            result = await served.knn(0, 3)
            batch = await served.knn_batch([1, far], 2, oracle="labels")
            path, dist = await served.route(0, far)
            assert len(result.neighbors) == 3 and len(batch.results) == 2
            assert path[-1] == far and dist == await served.distance(0, far)
            return [
                f"shard worker {shard} (pid {worker.process.pid}): {name}"
                for shard, worker in served.shard_group.workers.items()
                for name in mapped(worker.process.pid)
            ]

    found = [f"this process: {name}" for name in loaded()] + asyncio.run(sharded())
    if found:
        print("loaded while only serving:\n  " + "\n  ".join(found), file=sys.stderr)
        return 1
    print(f"ok: {answered} answers, 2 shard workers, none of {', '.join(FORBIDDEN)} loaded")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
