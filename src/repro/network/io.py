"""Reading and writing spatial networks.

One human-readable text format, close to the edge lists that road
datasets (TIGER/Line extracts, the 9th DIMACS challenge files) ship
in, so real data can be dropped in when available::

    v <id> <x> <y>
    e <source> <target> <weight>

Coordinates and weights are written with ``repr``, so a round trip is
bit-exact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.network.errors import GraphConstructionError
from repro.network.graph import SpatialNetwork


def save_text(network: SpatialNetwork, path: str | Path) -> None:
    """Write the network in the ``v``/``e`` line format."""
    with open(Path(path), "w", encoding="utf-8") as f:
        f.write(f"# spatial network: {network.num_vertices} vertices, "
                f"{network.num_edges} edges\n")
        for u in network.vertices():
            f.write(f"v {u} {float(network.xs[u])!r} {float(network.ys[u])!r}\n")
        for u, v, w in network.iter_edges():
            f.write(f"e {u} {v} {float(w)!r}\n")


def load_text(path: str | Path) -> SpatialNetwork:
    """Read a network in the ``v``/``e`` line format.

    Vertex ids must form a contiguous range starting at zero; lines
    starting with ``#`` are comments.
    """
    coords: dict[int, tuple[float, float]] = {}
    edges: list[tuple[int, int, float]] = []
    with open(Path(path), encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v" and len(parts) == 4:
                coords[int(parts[1])] = (float(parts[2]), float(parts[3]))
            elif parts[0] == "e" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise GraphConstructionError(
                    f"{path}:{lineno}: unrecognized line {line!r}"
                )
    if not coords:
        raise GraphConstructionError(f"{path}: no vertices found")
    n = max(coords) + 1
    if set(coords) != set(range(n)):
        raise GraphConstructionError(
            f"{path}: vertex ids must be contiguous from 0"
        )
    xs = np.array([coords[i][0] for i in range(n)])
    ys = np.array([coords[i][1] for i in range(n)])
    return SpatialNetwork(xs, ys, edges)
