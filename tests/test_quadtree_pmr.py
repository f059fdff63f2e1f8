"""Unit tests for the PMR-style object quadtree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.grid import GridEmbedding
from repro.geometry import Point
from repro.geometry.rect import Rect
from repro.quadtree.pmr import PMRQuadtree
from reference import iter_nodes


def embedding(order=4):
    return GridEmbedding(Rect(0, 0, 16, 16), order)


def leaf_entries(tree):
    """Every stored ``(oid, cell, point)`` triple."""
    return [entry for node in iter_nodes(tree) if node.is_leaf for entry in node.entries]


class TestInsertAndSplit:
    def test_empty_tree(self):
        t = PMRQuadtree(embedding(), capacity=2)
        assert len(t) == 0
        assert t.root.is_leaf

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PMRQuadtree(embedding(), capacity=0)

    def test_insert_below_capacity_no_split(self):
        t = PMRQuadtree(embedding(), capacity=4)
        for i in range(4):
            t.insert(i, Point(i + 0.5, 0.5))
        assert t.root.is_leaf
        assert len(t) == 4

    def test_overflow_splits(self):
        t = PMRQuadtree(embedding(), capacity=2)
        for i in range(5):
            t.insert(i, Point(i + 0.5, i + 0.5))
        assert not t.root.is_leaf
        assert len(t) == 5

    def test_all_entries_preserved_after_splits(self):
        t = PMRQuadtree(embedding(), capacity=1)
        points = [Point(x + 0.5, y + 0.5) for x in range(4) for y in range(4)]
        for i, p in enumerate(points):
            t.insert(i, p)
        got = sorted(oid for oid, _, _ in leaf_entries(t))
        assert got == list(range(16))

    def test_clustered_points_split_deep(self):
        t = PMRQuadtree(embedding(), capacity=2)
        pts = [Point(0.1, 0.1), Point(0.2, 0.2), Point(0.3, 0.3), Point(15.5, 15.5)]
        for i, p in enumerate(pts):
            t.insert(i, p)
        assert max(t.root.level - n.level for n in iter_nodes(t)) >= 2

    def test_coincident_points_tolerated_at_cell_level(self):
        """Points in one cell cannot split further; overflow is allowed."""
        t = PMRQuadtree(embedding(), capacity=2)
        for i in range(5):
            t.insert(i, Point(3.25, 3.25))
        assert len(t) == 5
        leaves = [n for n in iter_nodes(t) if n.is_leaf and n.entries]
        assert len(leaves) == 1
        assert leaves[0].level == 0

    def test_duplicate_ids_allowed(self):
        t = PMRQuadtree(embedding(), capacity=4)
        t.insert(7, Point(1, 1))
        t.insert(7, Point(2, 2))
        assert len(t) == 2


class TestStructure:
    def test_children_partition_parent(self):
        t = PMRQuadtree(embedding(), capacity=1)
        for i in range(8):
            t.insert(i, Point(2 * i + 0.5, (3 * i) % 16 + 0.5))
        for node in iter_nodes(t):
            if not node.is_leaf:
                child_codes = sorted(c.code for c in node.children)
                assert child_codes[0] == node.code
                assert len(child_codes) == 4
                assert all(c.level == node.level - 1 for c in node.children)

    def test_node_rect_contains_entries(self):
        t = PMRQuadtree(embedding(), capacity=2)
        rng = np.random.default_rng(1)
        for i in range(30):
            t.insert(i, Point(*rng.uniform(0, 16, 2)))
        for node in iter_nodes(t):
            rect = t.node_rect(node)
            for _, _, p in node.entries:
                assert rect.xmin <= p.x <= rect.xmax and rect.ymin <= p.y <= rect.ymax

    def test_num_nodes_counts_all(self):
        t = PMRQuadtree(embedding(), capacity=1)
        assert len(list(iter_nodes(t))) == 1
        t.insert(0, Point(1, 1))
        t.insert(1, Point(9, 9))
        assert len(list(iter_nodes(t))) >= 1


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 15.99), st.floats(0, 15.99)),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 8),
    )
    def test_every_point_findable_in_containing_leaf(self, coords, capacity):
        t = PMRQuadtree(embedding(), capacity=capacity)
        for i, (x, y) in enumerate(coords):
            t.insert(i, Point(x, y))
        assert len(t) == len(coords)
        # each object id appears exactly once across leaves
        ids = [oid for oid, _, _ in leaf_entries(t)]
        assert sorted(ids) == list(range(len(coords)))
        # leaf buckets respect capacity unless at cell resolution
        for node in iter_nodes(t):
            if node.is_leaf and len(node.entries) > capacity:
                assert node.level == 0
