"""Proximal SILC: shortest-path quadtrees limited to a travel horizon.

The paper's location-based-services strategy (p.27): instead of
coloring the whole network from every source, color only the vertices
within a network-distance ``radius`` ("say, 100 miles around a
vertex").  Destinations beyond the horizon carry the sentinel color
``-1``; the quadtree then stores the horizon boundary explicitly and
every lookup either answers exactly (target within the horizon) or
raises :class:`BeyondHorizonError` so the caller can fall back to a
point-to-point search.

The trade: storage and build time drop roughly with the horizon area,
while all local queries -- the LBS workload -- remain exact and as
fast as the full index.  The ablation benchmark
``benchmarks/test_ablation_proximal.py`` measures the curve.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.network.errors import NetworkError
from repro.network.graph import SpatialNetwork
from repro.quadtree.blocks import BEYOND
from repro.silc.index import SILCIndex, build_store
from repro.silc.store import FlatStore


class BeyondHorizonError(NetworkError):
    """The queried destination lies beyond the index's travel horizon."""

    def __init__(self, source: int, target: int, radius: float) -> None:
        super().__init__(
            f"target {target} is beyond the {radius}-unit horizon of "
            f"vertex {source}; fall back to a point-to-point search"
        )
        self.source = source
        self.target = target
        self.radius = radius


class ProximalSILCIndex(SILCIndex):
    """A SILC index whose per-source coverage stops at ``radius``.

    Supports the full :class:`SILCIndex` query interface for targets
    within the source's horizon; beyond it, every probe (including the
    first step of ``path``/``distance``) raises
    :class:`BeyondHorizonError` so the caller can fall back to a
    point-to-point search such as A*, ``repro.network.shortest_path(...,
    heuristic_scale=1.0)``.

    Storage behaviour, measured in ``test_ablation_proximal``: the
    horizon *boundary* itself costs blocks (it is one more color
    region), so savings over the full index appear only once the
    horizon is genuinely local (small fraction of the network) -- which
    is exactly the paper's LBS scenario of 100 miles on a continental
    map.
    """

    def __init__(
        self,
        network: SpatialNetwork,
        embedding,
        vertex_codes,
        store: FlatStore,
        radius: float,
    ) -> None:
        super().__init__(network, embedding, vertex_codes, store)
        self.radius = radius

    @classmethod
    def build(  # type: ignore[override]
        cls,
        network: SpatialNetwork,
        radius: float,
        chunk_size: int = 128,
        workers: int | None = None,
        progress: Callable[[int, int], None] | None = None,
    ) -> ProximalSILCIndex:
        if radius <= 0:
            raise ValueError("radius must be positive")
        parts = build_store(network, None, radius, chunk_size, progress, workers)
        return cls(network, *parts, radius)

    def missing_hop(self, source: int, target: int, rank: int) -> Exception:
        """Past the horizon, :class:`BeyondHorizonError`; raised by the
        one probe of ``hop_and_interval`` and of every refinement step
        before it counts a page."""
        if rank == BEYOND:
            return BeyondHorizonError(source, target, self.radius)
        return super().missing_hop(source, target, rank)
