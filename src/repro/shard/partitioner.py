"""What is left of the Morton-range partition (see :class:`ShardMap`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShardMap:
    """Equal-population cuts of the sorted vertex Morton codes.  Every
    shard worker holds every object, so nothing is partitioned: the only
    caller is bench/'s layer ladder, and ROADMAP 1(a) deletes it."""

    boundaries: np.ndarray
    order: int

    def __post_init__(self) -> None:
        b = self.boundaries
        if b.size < 2 or b[0] != 0 or b[-1] != 4**self.order or (np.diff(b) <= 0).any():
            raise ValueError(f"boundaries must span [0, 4**{self.order}], strictly increasing")

    @classmethod
    def from_codes(cls, codes, num_shards: int, order: int) -> ShardMap:
        ordered, total, bounds = np.sort(codes), 4**order, [0]
        for i in range(1, num_shards):
            cut = int(ordered[i * ordered.size // num_shards]) if ordered.size else 0
            bounds.append(min(max(cut, bounds[-1] + 1), total - (num_shards - i)))
        return cls(np.array([*bounds, total], dtype=np.int64), order)

    @classmethod
    def from_index(cls, index, num_shards: int) -> ShardMap:
        return cls.from_codes(index.vertex_codes, num_shards, index.embedding.order)

    def shard_of_code(self, code: int) -> int:
        return int(np.searchsorted(self.boundaries, code, side="right")) - 1
