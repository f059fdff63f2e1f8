"""Render shortest-path maps (the paper's figures, pp.12-13).

Writes PPM images of shortest-path maps -- one colored region per
first hop of a source vertex -- plus a terminal ASCII preview.  The
spatial contiguity you see in these pictures *is* the paper: it is the
property that lets a quadtree compress each map into O(sqrt N) blocks.

Run:  python examples/visualize_maps.py [output_dir]
"""

import sys
from pathlib import Path

from repro import SILCIndex, road_like_network
from viz import (
    region_summary,
    render_ascii,
    render_ppm,
    shortest_path_map_grid,
)


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("map_renders")
    out_dir.mkdir(exist_ok=True)

    net = road_like_network(900, seed=12)
    index = SILCIndex.build(net)

    # a central source and a corner source show different map shapes
    cx = (net.xs.min() + net.xs.max()) / 2
    cy = (net.ys.min() + net.ys.max()) / 2
    from repro.geometry import Point

    central = net.nearest_vertex(Point(cx, cy))
    corner = net.nearest_vertex(Point(net.xs.min(), net.ys.min()))

    for label, source in (("central", central), ("corner", corner)):
        grid = shortest_path_map_grid(index, source, resolution=160)
        path = render_ppm(grid, out_dir / f"map_{label}_{source}.ppm")
        counts = region_summary(index, source)
        print(f"{label} source {source}: out-degree {net.out_degree(source)}, "
              f"{len(counts)} colors, {len(index.tables[source])} blocks "
              f"-> {path}")

    print("\nASCII preview of the central source's map (48x48):")
    print(render_ascii(shortest_path_map_grid(index, central, resolution=48)))
    print(
        "\nEach letter is one first-hop region; large contiguous runs "
        "are what the shortest-path quadtree stores as single Morton "
        "blocks."
    )


if __name__ == "__main__":
    main()
