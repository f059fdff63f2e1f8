"""Random object sets over a network.

The paper's experiments draw the object set ``S`` uniformly at random
over the network at densities ``p = |S| / N`` between 0.001 and 0.2
(p.32-33).  These helpers reproduce that sampling reproducibly.
"""

from __future__ import annotations

import numpy as np

from repro.network.graph import SpatialNetwork
from repro.objects.model import ObjectSet


def random_vertex_objects(
    network: SpatialNetwork,
    density: float | None = None,
    count: int | None = None,
    seed: int = 0,
) -> ObjectSet:
    """Objects placed on distinct random vertices.

    Specify either a ``density`` (fraction of N, the paper's ``p``) or
    an absolute ``count``.
    """
    if (density is None) == (count is None):
        raise ValueError("provide exactly one of density or count")
    n = network.num_vertices
    if density is not None:
        if not (0.0 < density <= 1.0):
            raise ValueError("density must be in (0, 1]")
        count = max(1, round(density * n))
    if not (1 <= count <= n):
        raise ValueError(f"count must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    vertices = rng.choice(n, size=count, replace=False)
    return ObjectSet.at_vertices(network, [int(v) for v in vertices])

