"""Edge-case and failure-injection tests for the query engine."""

import numpy as np
import pytest

from repro.datasets import random_vertex_objects
from repro.objects import ObjectIndex
from repro.objects.model import ObjectSet
from repro.query import SILC_ALGORITHMS, browse, ine_knn, knn
from repro.silc import SILCIndex


class TestDegenerateObjectSets:
    @pytest.mark.parametrize("name,algo", list(SILC_ALGORITHMS.items()))
    def test_single_object(self, name, algo, small_net, small_index, small_dist):
        objects = ObjectSet.at_vertices(small_net, [99])
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        result = algo(small_index, oi, 0, 1, exact=True)
        assert result.ids() == [0]
        assert result.neighbors[0].distance == pytest.approx(
            small_dist[0, 99], rel=1e-9
        )

    def test_all_objects_on_one_vertex(self, small_net, small_index, small_dist):
        objects = ObjectSet.at_vertices(small_net, [42] * 7)
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        result = knn(small_index, oi, 3, 5, exact=True)
        assert len(result) == 5
        for n in result.neighbors:
            assert n.distance == pytest.approx(small_dist[3, 42], rel=1e-9)

    def test_object_on_query_vertex(self, small_net, small_index):
        objects = ObjectSet.at_vertices(small_net, [17, 55, 80])
        oi = ObjectIndex(small_net, objects, small_index.embedding)
        result = knn(small_index, oi, 17, 1, exact=True)
        assert result.ids() == [0]
        assert result.neighbors[0].distance == 0.0

    def test_query_equidistant_objects(self, grid_net, grid_index):
        """The kNN worst case (p.26): near-equidistant objects."""
        # on an 8x8 grid, the four corners are symmetric around center
        side = 8
        corners = [0, side - 1, side * (side - 1), side * side - 1]
        objects = ObjectSet.at_vertices(grid_net, corners)
        oi = ObjectIndex(grid_net, objects, grid_index.embedding)
        center = side * (side // 2) + side // 2
        result = knn(grid_index, oi, center, 2, exact=True)
        # still terminates with a correct 2-subset
        truth = ine_knn(oi, center, 2)
        np.testing.assert_allclose(
            sorted(n.distance for n in result.neighbors),
            sorted(n.distance for n in truth.neighbors),
            rtol=1e-9,
        )

    def test_k_equals_object_count(self, small_net, small_index, small_objects):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        result = knn(small_index, oi, 0, len(small_objects), exact=True)
        assert sorted(result.ids()) == sorted(small_objects.ids)

    def test_browse_empty_object_set_possible(self, small_net, small_index):
        """An object index over zero objects yields nothing."""
        oi = ObjectIndex(small_net, ObjectSet([]), small_index.embedding)
        assert list(browse(small_index, oi, 0)) == []
        result = knn(small_index, oi, 0, 3)
        assert len(result) == 0


class TestFailureInjection:
    def test_corrupted_next_hops_detected_by_path(self, small_net):
        """A cycle in next-hop data must raise, not loop forever."""
        index = SILCIndex.build(small_net)
        # corrupt: make some table claim a wrong first hop pointing back
        table = index.tables[0]
        victim_row = len(table) // 2
        colors = table.colors.copy()
        # find a row whose color has an edge back to 0 (guaranteed for
        # neighbors); set it to a neighbor to create a 2-cycle chance
        nbr = small_net.neighbors(0)[0][0]
        back = small_net.neighbors(nbr)[0][0]
        if back == 0:
            colors[:] = nbr  # everything claims 'via nbr'
            # and nbr's table claims 'via 0' for everything
            nbr_colors = index.tables[nbr].colors.copy()
            nbr_colors[:] = 0
            index.tables[nbr].colors.setflags(write=True)
            index.tables[nbr].colors[:] = nbr_colors
            table.colors.setflags(write=True)
            table.colors[:] = colors
            far = max(
                range(small_net.num_vertices),
                key=lambda v: small_net.euclidean(0, v),
            )
            with pytest.raises(RuntimeError):
                index.path(0, far)

    def test_refine_fully_guard(self, small_index):
        r = small_index.refinable(0, 140)
        with pytest.raises(RuntimeError):
            r.refine_fully(max_steps=0)


class TestDeterminism:
    def test_same_query_same_result(self, small_net, small_index, small_objects):
        oi = ObjectIndex(small_net, small_objects, small_index.embedding)
        a = knn(small_index, oi, 31, 5, exact=True)
        b = knn(small_index, oi, 31, 5, exact=True)
        assert a.ids() == b.ids()
        assert a.distances() == b.distances()
        assert a.stats.refinements == b.stats.refinements

    def test_rebuilt_index_same_answers(self, small_net, small_index, small_objects):
        index2 = SILCIndex.build(small_net)
        oi1 = ObjectIndex(small_net, small_objects, small_index.embedding)
        oi2 = ObjectIndex(small_net, small_objects, index2.embedding)
        a = knn(small_index, oi1, 64, 4, exact=True)
        b = knn(index2, oi2, 64, 4, exact=True)
        assert sorted(a.ids()) == sorted(b.ids())
