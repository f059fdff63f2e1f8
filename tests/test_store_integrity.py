"""Crash-safe persistence: atomic saves, checksum manifests, typed
corruption errors.

The contract under test (docs/ARCHITECTURE.md "Persistence",
docs/OPERATIONS.md "Failure modes"):

* a save either publishes a complete, verified directory or leaves the
  previous state untouched -- never a half-written index;
* a deleted, truncated or byte-flipped file -- ``MANIFEST.json``
  included -- fails the *load* with
  :class:`~repro.errors.CorruptIndexError`, mapped or eager, before
  any query can run on garbage: every load checks every byte;
* the shard tier serves what that load verified, and verifies a copy
  it wrote itself before any worker exists (the last class here).
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.engine import QueryEngine
from repro.errors import CorruptIndexError
from repro.faults import corrupt_file, truncate_file
from repro.integrity import (
    MANIFEST_NAME,
    atomic_directory,
    read_manifest,
    verify_manifest,
    write_manifest,
)
from repro.network import road_like_network
from repro.network.graph import SpatialNetwork
from repro.network.io import save_text
from repro.oracle.labelling import LABEL_COLUMNS, PrunedLabellingOracle
from repro.shard import ShardGroup
from repro.silc import SILCIndex
from repro.quadtree.blocks import OWN_VERTEX
from repro.silc.store import COLUMNS
from test_properties import one_way


@pytest.fixture()
def saved(tmp_path, small_index):
    path = tmp_path / "index.silc"
    small_index.save(path)
    return path


class TestManifest:
    def test_save_writes_a_verifiable_manifest(self, saved):
        assert (saved / MANIFEST_NAME).exists()
        verify_manifest(saved)
        manifest = read_manifest(saved)
        assert "codes.npy" in manifest["files"]
        assert MANIFEST_NAME not in manifest["files"]

    def test_truncation_caught_by_size_check(self, saved):
        truncate_file(saved / "codes.npy")
        with pytest.raises(CorruptIndexError, match="codes") as exc:
            verify_manifest(saved)
        assert exc.value.column == "codes"

    def test_missing_column_caught(self, saved):
        (saved / "levels.npy").unlink()
        with pytest.raises(CorruptIndexError, match="levels"):
            verify_manifest(saved)

    def test_byte_flip_caught_by_the_checksum(self, saved):
        corrupt_file(saved / "colors.npy")  # the size is unchanged
        with pytest.raises(CorruptIndexError, match="'colors' fails its checksum") as exc:
            verify_manifest(saved)
        assert exc.value.column == "colors"


class TestAtomicDirectory:
    def test_failure_mid_write_leaves_original_untouched(self, tmp_path):
        path = tmp_path / "data"
        with atomic_directory(path) as tmp:
            np.save(tmp / "a.npy", np.arange(4))
        before = sorted(p.name for p in path.iterdir())

        with pytest.raises(RuntimeError, match="boom"):
            with atomic_directory(path) as tmp:
                np.save(tmp / "b.npy", np.arange(8))
                raise RuntimeError("boom")

        assert sorted(p.name for p in path.iterdir()) == before
        verify_manifest(path)
        # No staging litter left behind.
        assert [p for p in tmp_path.iterdir() if p.name != "data"] == []

    def test_success_replaces_the_directory_wholesale(self, tmp_path):
        path = tmp_path / "data"
        with atomic_directory(path) as tmp:
            np.save(tmp / "old.npy", np.arange(4))
        with atomic_directory(path) as tmp:
            np.save(tmp / "new.npy", np.arange(8))
        assert not (path / "old.npy").exists()
        assert (path / "new.npy").exists()
        verify_manifest(path)


# ----------------------------------------------------------------------
# The one format's guarantee, as a table: every verified directory x
# every file in it x every kind of damage x both load modes.
# ----------------------------------------------------------------------

INDEX_META = (
    "sizes", "vertex_codes", "embedding_bounds", "embedding_order", "out_edges_digest",
)

#: Verified directory (by its name under ``pristine``) -> its files: an
#: index on a grid of order <= 8 (uint16 codes) and one past it (uint32);
#: a symmetric network's labelling stores its out-labels alone, a
#: directed one's both sides.
LAYOUTS = {
    "index": INDEX_META + COLUMNS,
    "index-wide": INDEX_META + COLUMNS,
    "labels": LABEL_COLUMNS[:3],
    "labels-directed": LABEL_COLUMNS,
}

DAMAGE = {
    "delete": lambda path: path.unlink(),
    "truncate": truncate_file,
    "flip": corrupt_file,
}


def file_name(column: str) -> str:
    return MANIFEST_NAME if column == "MANIFEST" else f"{column}.npy"


def two_way_net():
    """The network ``directed_net`` makes one-way."""
    return road_like_network(60, seed=5)


@pytest.fixture(scope="module")
def directed_net():
    """A one-way network: its labelling stores both sides."""
    return one_way(two_way_net(), 5)


@pytest.fixture(scope="module")
def networks(small_net, wide_net, directed_net):
    """Layout -> the network its directory was saved for."""
    return {
        "index": small_net, "index-wide": wide_net,
        "labels": small_net, "labels-directed": directed_net,
    }


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, small_net, small_index, wide_index, directed_net):
    """One clean save of everything; each case damages a copy."""
    root = tmp_path_factory.mktemp("pristine")
    small_index.save(root / "index")
    wide_index.save(root / "index-wide")
    PrunedLabellingOracle.build(small_net).save(root / "labels")
    PrunedLabellingOracle.build(directed_net).save(root / "labels-directed")
    return root


def load(save: str, path, network, mmap: bool):
    if save.startswith("index"):
        return SILCIndex.load(path, network, mmap=mmap)
    return PrunedLabellingOracle.load(path, network, mmap=mmap)


def test_the_sweep_names_every_file_of_every_layout(pristine):
    for save, columns in LAYOUTS.items():
        on_disk = list((pristine / save).iterdir())
        assert {p.name for p in on_disk} == {file_name(c) for c in (*columns, "MANIFEST")}
        assert all(p.is_file() for p in on_disk)


def damage_cases():
    for layout, columns in LAYOUTS.items():
        for column in (*columns, "MANIFEST"):
            for damage in DAMAGE:
                for mode in ("eager", "mmap"):
                    yield pytest.param(
                        layout, column, damage, mode == "mmap",
                        id=f"{layout}-{column}-{damage}-{mode}",
                    )


@pytest.mark.parametrize("layout, column, damage, mmap", damage_cases())
def test_damage_fails_load(pristine, tmp_path, networks, layout, column, damage, mmap):
    shutil.copytree(pristine / layout, tmp_path / layout)
    DAMAGE[damage](tmp_path / layout / file_name(column))
    with pytest.raises(CorruptIndexError) as exc:
        load(layout, tmp_path / layout, networks[layout], mmap)
    assert column in str(exc.value)  # the error names the file
    if column != "MANIFEST":
        assert exc.value.column == column


#: One column per layout re-saved with a wrong dtype of the *same*
#: item size, manifest rewritten to match: sizes and checksums agree,
#: so only the dtype check stands between the bytes and a query.
WRONG_DTYPES = {
    "index": ("lam_min", ">f2"),
    "index-wide": ("codes", "<i4"),
    "labels": ("out_hubs", "<u4"),
    "labels-directed": ("in_hubs", "<u4"),
}


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("layout", WRONG_DTYPES)
def test_wrong_dtype_fails_load(pristine, tmp_path, networks, layout, mmap):
    column, dtype = WRONG_DTYPES[layout]
    shutil.copytree(pristine / layout, tmp_path / layout)
    path = tmp_path / layout / file_name(column)
    good = np.load(path)
    np.save(path, good.astype(dtype))
    assert path.stat().st_size == (pristine / layout / file_name(column)).stat().st_size
    write_manifest(path.parent)
    verify_manifest(path.parent)
    with pytest.raises(CorruptIndexError, match=column) as exc:
        load(layout, tmp_path / layout, networks[layout], mmap)
    assert exc.value.column == column
    assert np.dtype(dtype).str in str(exc.value)


def save_in_labels(path) -> None:
    """Re-save a symmetric labelling at ``path`` as the layout before
    this one held it: the in-labels a second time, as ``in_*`` twins of
    the ``out_*`` files, in a manifest that lists all six."""
    for column in LABEL_COLUMNS[:3]:
        shutil.copyfile(path / file_name(column), path / file_name(column.replace("out", "in", 1)))
    write_manifest(path, manifest_format=2)
    verify_manifest(path)


def assert_refused_for_a_labels_rebuild(exc, found: str):
    assert exc.value.column == "in_offsets"
    assert f"column 'in_offsets' {found}" in str(exc.value)
    assert "rebuild it with `repro build-labels`" in str(exc.value)


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_a_symmetric_labelling_with_stale_in_columns_is_refused(
    pristine, tmp_path, small_net, mmap
):
    path = tmp_path / "labels"
    shutil.copytree(pristine / "labels", path)
    save_in_labels(path)
    with pytest.raises(CorruptIndexError) as exc:
        PrunedLabellingOracle.load(path, small_net, mmap=mmap)
    assert_refused_for_a_labels_rebuild(exc, "is not stored by a symmetric network's labelling")


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("layout, found", [
    ("labels", "is missing from a directed network's labelling"),
    ("labels-directed", "is not stored by a symmetric network's labelling"),
], ids=["three-columns-directed-network", "six-columns-symmetric-network"])
def test_a_labelling_loaded_with_the_other_kind_of_network_is_refused(
    pristine, networks, layout, found, mmap
):
    """Each directory is loaded with the other kind of network on the
    same vertices (streets made one-way, or two-way again), so the
    offsets fit and only the layout check can refuse it."""
    saved_for = networks[layout]
    other = one_way(saved_for, 9) if saved_for.symmetric else two_way_net()
    assert other.num_vertices == saved_for.num_vertices
    assert other.symmetric != saved_for.symmetric
    with pytest.raises(CorruptIndexError) as exc:
        PrunedLabellingOracle.load(pristine / layout, other, mmap=mmap)
    assert_refused_for_a_labels_rebuild(exc, found)


def save_float32_lambdas(path) -> None:
    """Re-save ``path``'s lambdas as the layouts before the 10-byte one
    held them: float32 (every float16 widens exactly)."""
    for column in ("lam_min", "lam_max"):
        np.save(path / file_name(column), np.load(path / file_name(column)).astype("<f4"))


def save_vertex_id_colours(path, network) -> None:
    """Re-save ``path``'s colours as the layouts before the 14-byte one
    held them: the int32 id of each block's first hop (the table's own
    vertex for its own block)."""
    ranks = np.load(path / file_name("colors")).tolist()
    owners = np.repeat(network.vertices(), np.load(path / file_name("sizes"))).tolist()
    ids = [u if r == OWN_VERTEX else network.out_edges[u][r][0] for u, r in zip(owners, ranks)]
    np.save(path / file_name("colors"), np.array(ids, dtype="<i4"))


@pytest.fixture()
def old_layout(pristine, tmp_path, small_net):
    """The index re-saved in the 29-byte layout the 17-byte one replaced
    (int64 codes, int32 vertex-id colours, float64 lambdas) with a
    manifest that matches it: every size and checksum agrees, so only
    the dtype check can refuse it."""
    path = tmp_path / "index"
    shutil.copytree(pristine / "index", path)
    for column, dtype in (("codes", "<i8"), ("lam_min", "<f8"), ("lam_max", "<f8")):
        np.save(path / file_name(column), np.load(path / file_name(column)).astype(dtype))
    save_vertex_id_colours(path, small_net)
    write_manifest(path)
    verify_manifest(path)
    save_text(small_net, tmp_path / "net.txt")
    return path


def assert_refused_for_a_rebuild(exc):
    assert exc.value.column == "codes"
    assert "column 'codes' holds <i8 items, expected <u2" in str(exc.value)
    assert "rebuild it with `repro build`" in str(exc.value)


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_an_index_in_the_old_layout_is_refused_by_name(old_layout, small_net, mmap):
    with pytest.raises(CorruptIndexError) as exc:
        SILCIndex.load(old_layout, small_net, mmap=mmap)
    assert_refused_for_a_rebuild(exc)


def test_a_sharded_mapped_server_refuses_the_old_layout(old_layout, monkeypatch, capsys):
    """The CLI reports the refusal as one line and exits 2."""
    def spawned(spec):
        raise AssertionError(f"a worker was spawned on {spec.directory}")

    monkeypatch.setattr("repro.shard.worker.spawn_worker", spawned)
    assert main([
        "serve", str(old_layout.parent / "net.txt"), str(old_layout),
        "--shards", "2", "--mmap", "--input", os.devnull,
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro serve: error: corrupt index") and err.count("\n") == 1
    assert "column 'codes' holds <i8 items, expected <u2" in err
    assert "rebuild it with `repro build`" in err


@pytest.fixture()
def vertex_id_colours(pristine, tmp_path, small_net):
    """The index re-saved in the 17-byte layout the 14-byte one replaced
    (int32 vertex-id colours) with a manifest that matches it."""
    path = tmp_path / "index"
    shutil.copytree(pristine / "index", path)
    save_vertex_id_colours(path, small_net)
    save_float32_lambdas(path)
    write_manifest(path)
    verify_manifest(path)
    save_text(small_net, tmp_path / "net.txt")
    return path


@pytest.fixture()
def float32_lambdas(pristine, tmp_path):
    """The index re-saved in the 14-byte layout the 10-byte one replaced
    (float32 lambdas) with a manifest that matches it."""
    path = tmp_path / "index"
    shutil.copytree(pristine / "index", path)
    save_float32_lambdas(path)
    write_manifest(path)
    verify_manifest(path)
    return path


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_an_index_with_float32_lambdas_is_refused_by_name(float32_lambdas, small_net, mmap):
    with pytest.raises(CorruptIndexError) as exc:
        SILCIndex.load(float32_lambdas, small_net, mmap=mmap)
    assert exc.value.column == "lam_min"
    assert "column 'lam_min' holds <f4 items, expected <f2" in str(exc.value)
    assert "rebuild it with `repro build`" in str(exc.value)


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_an_index_with_vertex_id_colours_is_refused_by_name(
    vertex_id_colours, small_net, mmap
):
    with pytest.raises(CorruptIndexError) as exc:
        SILCIndex.load(vertex_id_colours, small_net, mmap=mmap)
    assert exc.value.column == "colors"
    assert "column 'colors' holds <i4 items, expected |i1" in str(exc.value)
    assert "rebuild it with `repro build`" in str(exc.value)


def test_a_sharded_mapped_server_refuses_vertex_id_colours(
    vertex_id_colours, monkeypatch, capsys
):
    """The CLI reports the refusal as one line and exits 2."""
    def spawned(spec):
        raise AssertionError(f"a worker was spawned on {spec.directory}")

    monkeypatch.setattr("repro.shard.worker.spawn_worker", spawned)
    assert main([
        "serve", str(vertex_id_colours.parent / "net.txt"), str(vertex_id_colours),
        "--shards", "2", "--mmap", "--input", os.devnull,
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro serve: error: corrupt index") and err.count("\n") == 1
    assert "column 'colors' holds <i4 items, expected |i1" in err
    assert "rebuild it with `repro build`" in err


@pytest.fixture()
def ten_byte_blocks(pristine, tmp_path, small_net):
    """The index re-saved in the 10-byte layout the 8-byte one replaced
    on a grid of order <= 8 (uint32 codes, int64 vertex codes) with a
    manifest that matches it."""
    path = tmp_path / "index"
    shutil.copytree(pristine / "index", path)
    for column, dtype in (("codes", "<u4"), ("vertex_codes", "<i8")):
        np.save(path / file_name(column), np.load(path / file_name(column)).astype(dtype))
    write_manifest(path)
    verify_manifest(path)
    save_text(small_net, tmp_path / "net.txt")
    return path


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_an_index_with_ten_byte_blocks_is_refused_by_name(ten_byte_blocks, small_net, mmap):
    assert int(np.load(ten_byte_blocks / "embedding_order.npy")[0]) <= 8
    with pytest.raises(CorruptIndexError) as exc:
        SILCIndex.load(ten_byte_blocks, small_net, mmap=mmap)
    assert exc.value.column == "codes"
    assert "column 'codes' holds <u4 items, expected <u2" in str(exc.value)
    assert "rebuild it with `repro build`" in str(exc.value)


def test_the_cli_refuses_ten_byte_blocks(ten_byte_blocks, capsys):
    net = ten_byte_blocks.parent / "net.txt"
    assert main(["knn", str(net), str(ten_byte_blocks), "--query", "0", "--mmap"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro knn: error: corrupt index") and err.count("\n") == 1
    assert "column 'codes' holds <u4 items, expected <u2" in err


#: Per index layout, ``vertex_codes`` in the other grid's width: int64
#: on a grid of order <= 8, uint16 past it.
WRONG_VERTEX_CODES = {"index": ("<i8", "<u2"), "index-wide": ("<u2", "<i8")}


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("layout", WRONG_VERTEX_CODES)
def test_vertex_codes_of_the_wrong_width_are_refused(pristine, tmp_path, networks, layout, mmap):
    wrong, expected = WRONG_VERTEX_CODES[layout]
    path = tmp_path / layout
    shutil.copytree(pristine / layout, path)
    vertex_codes = np.load(path / "vertex_codes.npy")
    assert vertex_codes.dtype.str == expected
    np.save(path / "vertex_codes.npy", vertex_codes.astype(wrong))
    write_manifest(path)
    with pytest.raises(CorruptIndexError) as exc:
        load(layout, path, networks[layout], mmap)
    assert exc.value.column == "vertex_codes"
    assert f"column 'vertex_codes' holds {wrong} items, expected {expected}" in str(exc.value)


def edited(network, edit: str) -> SpatialNetwork:
    """``network`` with one edge added at vertex 0, removed from it,
    re-pointed (the out-degrees unchanged, one target different) or
    re-weighted (the out-edge lists unchanged, one weight different),
    or with vertex 0 moved (the edges unchanged)."""
    edges = list(network.iter_edges())
    (u, v, w), *_ = edges
    stranger = next(x for x in network.vertices() if x != u and x not in network.out_weights[u])
    xs = network.xs.copy()
    if edit == "added":
        edges.append((u, stranger, w))
    elif edit == "removed":
        edges.remove((u, v, w))
    elif edit == "retargeted":
        edges[edges.index((u, v, w))] = (u, stranger, w)
    elif edit == "reweighted":
        edges[edges.index((u, v, w))] = (u, v, 1.5 * w)
    else:
        xs[u] += 0.5 * w
    return SpatialNetwork(xs, network.ys, edges)


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("edit", ["added", "removed", "retargeted", "reweighted", "moved"])
def test_an_index_loaded_with_an_edited_network_is_refused(
    pristine, small_net, tmp_path, edit, mmap
):
    """A colour is a rank in its vertex's out-edge list and λ a ratio
    of a path's weight to a Euclidean distance: under a network whose
    lists, weights or positions differ, a rank after the changed slot
    would name another real edge and a bound could miss the distance,
    so the load refuses it before any query."""
    other = edited(small_net, edit)
    assert other.num_vertices == small_net.num_vertices
    with pytest.raises(CorruptIndexError) as exc:
        SILCIndex.load(pristine / "index", other, mmap=mmap)
    assert exc.value.column == "out_edges_digest"
    assert "built for a different network" in str(exc.value)
    assert "rebuild it with `repro build`" in str(exc.value)
    save_text(other, tmp_path / "net.txt")
    assert main(["knn", str(tmp_path / "net.txt"), str(pristine / "index"), "--query", "0"]) == 2


class TestIndexLoadRejectsCorruption:
    def test_clean_roundtrip_still_works(self, pristine, small_net, small_index):
        loaded = load("index", pristine / "index", small_net, mmap=True)
        assert np.array_equal(loaded.vertex_codes, small_index.vertex_codes)


class TestLabellingPersistence:
    def test_labelling_save_verified_on_load(self, pristine, small_net, small_index):
        verify_manifest(pristine / "labels")
        loaded = load("labels", pristine / "labels", small_net, mmap=False)
        assert loaded.distance(0, 40) == pytest.approx(small_index.distance(0, 40))


class TestManifestFormat:
    def test_manifest_is_json_with_sizes_and_checksums(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        entry = manifest["files"]["codes.npy"]
        assert entry["size"] == (saved / "codes.npy").stat().st_size
        assert isinstance(entry["crc32"], int)

    def test_write_manifest_is_rerunnable(self, saved):
        write_manifest(saved)
        verify_manifest(saved)


class TestTheShardTierVerifiesWhatItServes:
    """The workers map what the parent's load verified, or a copy the
    tier wrote and verified itself: either way a bad byte is refused
    before any worker exists."""

    @pytest.fixture(autouse=True)
    def no_worker_may_start(self, monkeypatch, tmp_path):
        def spawned(spec):
            raise AssertionError(f"a worker was spawned on {spec.directory}")

        monkeypatch.setattr("repro.shard.worker.spawn_worker", spawned)
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))

    @pytest.mark.parametrize("column", COLUMNS)
    def test_a_flipped_byte_in_the_mapped_directory(
        self, pristine, tmp_path, small_net, capsys, column
    ):
        """The mapped load refuses it, so ``serve --shards 2 --mmap``
        reports it as one line and exits 2 with no worker started."""
        path = tmp_path / "index"
        shutil.copytree(pristine / "index", path)
        corrupt_file(path / file_name(column))
        with pytest.raises(CorruptIndexError, match=f"'{column}' fails its checksum") as exc:
            SILCIndex.load(path, small_net, mmap=True)
        assert exc.value.column == column
        assert str(path) in str(exc.value)
        save_text(small_net, tmp_path / "net.txt")
        assert main([
            "serve", str(tmp_path / "net.txt"), str(path),
            "--shards", "2", "--mmap", "--input", os.devnull,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error: corrupt index") and err.count("\n") == 1
        assert f"column '{column}' fails its checksum" in err
        assert list((tmp_path / "tmp").iterdir()) == []  # nothing written

    @pytest.mark.parametrize("explicit", [False, True], ids=["temp-copy", "shard-dir"])
    def test_a_copy_that_landed_wrong(
        self, monkeypatch, tmp_path, small_index, small_object_index, explicit
    ):
        """The tier checks the bytes it wrote, not the bytes it meant to."""
        save = SILCIndex.save

        def lossy_save(index, path):
            save(index, path)
            corrupt_file(Path(path) / "codes.npy")

        monkeypatch.setattr(SILCIndex, "save", lossy_save)
        with pytest.raises(CorruptIndexError, match="codes"):
            ShardGroup.from_engine(
                QueryEngine(small_index, small_object_index), 2,
                directory=tmp_path / "shards" if explicit else None,
            )
        assert list((tmp_path / "tmp").iterdir()) == []  # a private copy is removed
        assert (tmp_path / "shards").exists() == explicit
