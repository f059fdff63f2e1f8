"""Tests for the shortest-path-map renderer."""

import numpy as np
import pytest

from repro.network import road_like_network
from repro.silc import SILCIndex
from viz import (
    region_summary,
    render_ascii,
    render_ppm,
    shortest_path_map_grid,
)


@pytest.fixture(scope="module")
def small_net():
    return road_like_network(150, seed=9)


@pytest.fixture(scope="module")
def small_index(small_net):
    return SILCIndex.build(small_net)


class TestGrid:
    def test_shape(self, small_index):
        grid = shortest_path_map_grid(small_index, 0, resolution=32)
        assert grid.shape == (32, 32)

    def test_resolution_validated(self, small_index):
        with pytest.raises(ValueError):
            shortest_path_map_grid(small_index, 0, resolution=1)

    def test_colors_bounded_by_degree(self, small_net, small_index):
        grid = shortest_path_map_grid(small_index, 5, resolution=48)
        used = set(np.unique(grid)) - {-1}
        # distinct colors <= out-degree + the source's own color
        assert len(used) <= small_net.out_degree(5) + 1

    def test_some_area_is_colored(self, small_index):
        grid = shortest_path_map_grid(small_index, 0, resolution=48)
        assert (grid >= 0).sum() > 0

    def test_vertex_cells_match_quadtree(self, small_net, small_index):
        """The rasterizer must agree with direct table lookups."""
        from repro.geometry.morton import morton_encode

        source = 3
        res = 64
        grid = shortest_path_map_grid(small_index, source, resolution=res)
        cells = small_index.embedding.cells_per_side
        table = small_index.tables[source]
        # check a sample of raster positions against the table
        for ry in range(0, res, 7):
            cy = min(ry * cells // res, cells - 1)
            for rx in range(0, res, 7):
                cx = min(rx * cells // res, cells - 1)
                hit = table.lookup(morton_encode(cx, cy))
                assert (grid[ry, rx] >= 0) == (hit is not None)


class TestRenderers:
    def test_ascii_dimensions(self, small_index):
        grid = shortest_path_map_grid(small_index, 0, resolution=16)
        art = render_ascii(grid)
        lines = art.splitlines()
        assert len(lines) == 16
        assert all(len(line) == 16 for line in lines)

    def test_ascii_uses_letters_and_dots(self, small_index):
        grid = shortest_path_map_grid(small_index, 0, resolution=16)
        art = render_ascii(grid)
        assert set(art) - {"\n"} <= set(".abcdefghijklmnopqrstuvwxyz")

    def test_ppm_file(self, small_index, tmp_path):
        grid = shortest_path_map_grid(small_index, 0, resolution=20)
        path = render_ppm(grid, tmp_path / "map.ppm")
        data = path.read_bytes()
        assert data.startswith(b"P6\n20 20\n255\n")
        header_len = len(b"P6\n20 20\n255\n")
        assert len(data) == header_len + 20 * 20 * 3

    def test_region_summary_counts_blocks(self, small_index):
        counts = region_summary(small_index, 7)
        assert sum(counts.values()) == len(small_index.tables[7])
