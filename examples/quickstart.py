"""Quickstart: build a SILC index and browse network distances.

Walks through the full pipeline of the paper on a synthetic road
network: precompute shortest-path quadtrees, place an object set,
answer a k-nearest-neighbor query by network distance, retrieve a
shortest path, and watch progressive refinement tighten a distance
interval one link at a time.

Run:  python examples/quickstart.py
"""

from repro import ObjectIndex, QueryEngine, SILCIndex, knn, road_like_network
from repro.datasets import random_vertex_objects


def main() -> None:
    # 1. A synthetic road network: ~800 intersections, road-like
    #    degree, arterial/local weight tiers.
    net = road_like_network(800, seed=7)
    print(f"network: {net.num_vertices} vertices, {net.num_edges} edges")

    # 2. The SILC precompute: one shortest-path quadtree per vertex.
    #    workers=0 fans the per-source builds across every available
    #    CPU (it resolves to the serial path on a single-CPU machine);
    #    the output is identical to a serial build either way.
    index = SILCIndex.build(net, workers=0)
    blocks = index.total_blocks()
    print(
        f"SILC index: {blocks} Morton blocks "
        f"({blocks / net.num_vertices:.1f} per vertex, "
        f"{index.storage_bytes() / 1024:.0f} KiB at {index.record_bytes} B/block)"
    )

    # 3. A decoupled object set: 40 restaurants on random corners.
    restaurants = random_vertex_objects(net, count=40, seed=11)
    object_index = ObjectIndex(net, restaurants, index.embedding)

    # 4. The 5 nearest restaurants by *network* distance from vertex 0.
    result = knn(index, object_index, query=0, k=5, exact=True)
    print("\n5 nearest restaurants from vertex 0:")
    for rank, neighbor in enumerate(result.neighbors, start=1):
        obj = restaurants[neighbor.oid]
        print(
            f"  #{rank}: object {neighbor.oid} at vertex "
            f"{obj.position.vertex}, network distance {neighbor.distance:.3f}"
        )
    print(
        f"query work: {result.stats.refinements} refinements, "
        f"peak queue {result.stats.max_queue}"
    )

    # 5. Shortest-path retrieval in size-of-path steps (p.17).
    target = restaurants[result.neighbors[0].oid].position.vertex
    path = index.path(0, target)
    print(f"\nshortest path to the winner ({len(path)} vertices):")
    print("  " + " -> ".join(map(str, path[:12])) + (" ..." if len(path) > 12 else ""))

    # 6. Progressive refinement: the interval tightens link by link.
    far = net.num_vertices - 1
    refinable = index.refinable(0, far)
    print(f"\nprogressive refinement of distance 0 -> {far}:")
    step = 0
    while True:
        iv = refinable.interval
        print(f"  step {step:2d}: [{iv.lo:9.3f}, {iv.hi:9.3f}] width {iv.width:.3f}")
        if not refinable.refine() or step >= 6:
            break
        step += 1
    exact = refinable.refine_fully()
    print(f"  ...fully refined: {exact:.3f} (exact)")

    # 7. Serving many queries: one QueryEngine shares resolved
    #    locations and a warm page cache across the whole batch and
    #    aggregates the per-query stats.
    engine = QueryEngine(index, object_index, cache_fraction=0.05)
    batch = engine.knn_batch(range(0, 100, 5), k=3, variant="knn_m")
    print(
        f"\nbatch of {len(batch)} queries: "
        f"{batch.stats.refinements} refinements, "
        f"{batch.stats.io_misses} page faults, "
        f"{batch.elapsed * 1e3:.1f} ms total"
    )

    # 8. To run this engine as a *service* -- asyncio front end,
    #    per-client fair scheduling, admission control -- see
    #    examples/serve_demo.py and the `python -m repro serve`
    #    JSON-lines CLI.


if __name__ == "__main__":
    main()
