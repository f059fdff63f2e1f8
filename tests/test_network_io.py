"""Unit tests for repro.network.io."""

import numpy as np
import pytest

from repro.network.errors import GraphConstructionError
from repro.network import load_text, road_like_network, save_text


def assert_networks_equal(a, b):
    np.testing.assert_allclose(a.xs, b.xs)
    np.testing.assert_allclose(a.ys, b.ys)
    assert sorted(a.iter_edges()) == sorted(b.iter_edges())


class TestTextRoundTrip:
    def test_round_trip(self, tmp_path, small_net):
        path = tmp_path / "net.txt"
        save_text(small_net, path)
        assert_networks_equal(small_net, load_text(path))

    def test_preserves_exact_weights(self, tmp_path):
        net = road_like_network(50, seed=1)
        path = tmp_path / "net.txt"
        save_text(net, path)
        loaded = load_text(path)
        assert np.array_equal(net.xs, loaded.xs) and np.array_equal(net.ys, loaded.ys)
        for (u1, v1, w1), (u2, v2, w2) in zip(
            sorted(net.iter_edges()), sorted(loaded.iter_edges())
        ):
            assert (u1, v1) == (u2, v2)
            assert w1 == w2  # bit-exact

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(
            "# a comment\n\nv 0 0.0 0.0\nv 1 1.0 0.0\ne 0 1 1.5\n"
        )
        net = load_text(path)
        assert net.num_vertices == 2
        assert net.edge_weight(0, 1) == 1.5

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("v 0 0.0 0.0\nx nonsense\n")
        with pytest.raises(GraphConstructionError):
            load_text(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# nothing\n")
        with pytest.raises(GraphConstructionError):
            load_text(path)

    def test_non_contiguous_ids_rejected(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("v 0 0.0 0.0\nv 2 1.0 0.0\n")
        with pytest.raises(GraphConstructionError):
            load_text(path)
