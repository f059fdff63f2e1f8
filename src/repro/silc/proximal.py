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
from repro.silc.index import SILCIndex, build_store
from repro.silc.store import FlatStore

#: Sentinel color for destinations beyond the horizon.
BEYOND = -1


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
    point-to-point search such as :func:`repro.network.astar_path`.

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

    def hop_and_interval(
        self, source: int, target: int
    ) -> tuple[int, float, float]:
        # Horizon check first, on an unaccounted lookup: a probe that
        # raises BeyondHorizonError counts no page access.
        self.network.check_vertex(source)
        self.network.check_vertex(target)
        if source != target:
            hit = self.tables[source].lookup(self._vcodes[target])
            if hit is not None and hit[0] == BEYOND:
                raise BeyondHorizonError(source, target, self.radius)
        return super().hop_and_interval(source, target)

    def within_horizon(self, source: int, target: int) -> bool:
        """Whether a direct probe from ``source`` can answer ``target``."""
        self.network.check_vertex(source)
        self.network.check_vertex(target)
        if source == target:
            return True
        hit = self.tables[source].lookup(self._vcodes[target])
        return hit is not None and hit[0] != BEYOND

    def horizon_fraction(self) -> float:
        """Mean fraction of vertices each source can answer directly.

        1.0 means the horizon covers everything (equivalent to the
        full index); small radii give proportionally smaller coverage
        and storage.
        """
        n = self.network.num_vertices
        if n <= 1:
            return 1.0
        covered = 0
        for source in range(n):
            table = self.tables[source]
            for v in range(n):
                if v == source:
                    continue
                hit = table.lookup(self._vcodes[v])
                if hit is not None and hit[0] != BEYOND:
                    covered += 1
        return covered / (n * (n - 1))
