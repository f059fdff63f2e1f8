"""Crash-safe persistence: atomic saves, checksum manifests, typed
corruption errors.

The contract under test (docs/ARCHITECTURE.md "Persistence",
docs/OPERATIONS.md "Failure modes"):

* a save either publishes a complete, verified directory or leaves the
  previous state untouched -- never a half-written index;
* a deleted, truncated or byte-flipped file -- ``MANIFEST.json``
  included -- fails the *load* with
  :class:`~repro.errors.CorruptIndexError`, before any query can run
  on garbage.  One gap, pinned below as 15 strict xfails (9 index
  files + 6 label files): an mmap load checks sizes, not checksums, so
  a flipped byte is served.  The shard tier closes it for what it
  serves (the last class here): one deep pass before a worker exists.
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
from repro.network.io import save_text
from repro.oracle.labelling import LABEL_COLUMNS, PrunedLabellingOracle
from repro.shard import ShardGroup
from repro.silc import SILCIndex
from repro.silc.store import COLUMNS


@pytest.fixture()
def saved(tmp_path, small_index):
    path = tmp_path / "index.silc"
    small_index.save(path)
    return path


class TestManifest:
    def test_save_writes_a_verifiable_manifest(self, saved):
        assert (saved / MANIFEST_NAME).exists()
        verify_manifest(saved)
        verify_manifest(saved, deep=True)
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

    def test_byte_flip_caught_only_by_deep_check(self, saved):
        corrupt_file(saved / "colors.npy")
        verify_manifest(saved)  # size is unchanged
        with pytest.raises(CorruptIndexError, match="colors"):
            verify_manifest(saved, deep=True)


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
        verify_manifest(path, deep=True)
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
        verify_manifest(path, deep=True)


# ----------------------------------------------------------------------
# The one format's guarantee, as a table: every verified directory x
# every file in it x every kind of damage x both load modes.
# ----------------------------------------------------------------------

INDEX_META = ("sizes", "vertex_codes", "embedding_bounds", "embedding_order")

#: Verified directory (by its name under ``pristine``) -> its files.
LAYOUTS = {
    "index": INDEX_META + COLUMNS,
    "labels": LABEL_COLUMNS,
}

DAMAGE = {
    "delete": lambda path: path.unlink(),
    "truncate": truncate_file,
    "flip": corrupt_file,
}


def file_name(column: str) -> str:
    return MANIFEST_NAME if column == "MANIFEST" else f"{column}.npy"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, small_net, small_index):
    """One clean save of everything; each case damages a copy."""
    root = tmp_path_factory.mktemp("pristine")
    small_index.save(root / "index")
    PrunedLabellingOracle.build(small_net).save(root / "labels")
    return root


def load(save: str, path, network, mmap: bool):
    if save == "index":
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
                    served = (
                        mode == "mmap" and damage == "flip" and column != "MANIFEST"
                    )
                    yield pytest.param(
                        layout, column, damage, mode == "mmap",
                        id=f"{layout}-{column}-{damage}-{mode}",
                        marks=[pytest.mark.xfail(
                            strict=True,
                            reason="ROADMAP item 1: mmap loads verify sizes, "
                            "not checksums (deep=not mmap), so a flipped byte "
                            "is served; whoever adds verify-on-first-touch "
                            "flips this",
                        )] if served else [],
                    )


@pytest.mark.parametrize("layout, column, damage, mmap", damage_cases())
def test_damage_fails_load(pristine, tmp_path, small_net, layout, column, damage, mmap):
    shutil.copytree(pristine / layout, tmp_path / layout)
    DAMAGE[damage](tmp_path / layout / file_name(column))
    with pytest.raises(CorruptIndexError) as exc:
        load(layout, tmp_path / layout, small_net, mmap)
    assert column in str(exc.value)  # the error names the file
    if column != "MANIFEST":
        assert exc.value.column == column


#: One column per layout re-saved with a wrong dtype of the *same*
#: item size, manifest rewritten to match: sizes and checksums agree,
#: so only the dtype check stands between the bytes and a query.
WRONG_DTYPES = {
    "index": ("lam_min", ">f4"),
    "labels": ("out_hubs", "<u4"),
}


@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
@pytest.mark.parametrize("layout", WRONG_DTYPES)
def test_wrong_dtype_fails_load(pristine, tmp_path, small_net, layout, mmap):
    column, dtype = WRONG_DTYPES[layout]
    shutil.copytree(pristine / layout, tmp_path / layout)
    path = tmp_path / layout / file_name(column)
    good = np.load(path)
    np.save(path, good.astype(dtype))
    assert path.stat().st_size == (pristine / layout / file_name(column)).stat().st_size
    write_manifest(path.parent)
    verify_manifest(path.parent, deep=True)
    with pytest.raises(CorruptIndexError, match=column) as exc:
        load(layout, tmp_path / layout, small_net, mmap)
    assert exc.value.column == column
    assert np.dtype(dtype).str in str(exc.value)


@pytest.fixture()
def old_layout(pristine, tmp_path, small_net):
    """The index re-saved in the 29-byte layout the 17-byte one replaced
    (int64 codes, float64 lambdas) with a manifest that matches it: every
    size and checksum agrees, so only the dtype check can refuse it."""
    path = tmp_path / "index"
    shutil.copytree(pristine / "index", path)
    for column, dtype in (("codes", "<i8"), ("lam_min", "<f8"), ("lam_max", "<f8")):
        np.save(path / file_name(column), np.load(path / file_name(column)).astype(dtype))
    write_manifest(path)
    verify_manifest(path, deep=True)
    save_text(small_net, tmp_path / "net.txt")
    return path


def assert_refused_for_a_rebuild(exc):
    assert exc.value.column == "codes"
    assert "column 'codes' holds <i8 items, expected <u4" in str(exc.value)
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
    assert "column 'codes' holds <i8 items, expected <u4" in err
    assert "rebuild it with `repro build`" in err


class TestIndexLoadRejectsCorruption:
    def test_clean_roundtrip_still_works(self, pristine, small_net, small_index):
        loaded = load("index", pristine / "index", small_net, mmap=True)
        assert np.array_equal(loaded.vertex_codes, small_index.vertex_codes)


class TestLabellingPersistence:
    def test_labelling_save_verified_on_load(self, pristine, small_net, small_index):
        verify_manifest(pristine / "labels", deep=True)
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
        verify_manifest(saved, deep=True)


class TestTheShardTierVerifiesWhatItServes:
    """A mapped load trusts the bytes (the xfails above) and N workers
    would map them too, so ``ShardGroup.from_engine`` streams the
    directory through its checksums once, in the parent, first."""

    @pytest.fixture(autouse=True)
    def no_worker_may_start(self, monkeypatch, tmp_path):
        def spawned(spec):
            raise AssertionError(f"a worker was spawned on {spec.directory}")

        monkeypatch.setattr("repro.shard.worker.spawn_worker", spawned)
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))

    @pytest.mark.parametrize("column", COLUMNS)
    def test_a_flipped_byte_in_the_mapped_directory(
        self, pristine, tmp_path, small_net, small_object_index, column
    ):
        shutil.copytree(pristine / "index", tmp_path / "index")
        corrupt_file(tmp_path / "index" / file_name(column))
        index = SILCIndex.load(tmp_path / "index", small_net, mmap=True)  # the gap
        with pytest.raises(CorruptIndexError, match=column) as exc:
            ShardGroup.from_engine(QueryEngine(index, small_object_index), 2)
        assert exc.value.column == column
        assert str(tmp_path / "index") in str(exc.value)
        assert list((tmp_path / "tmp").iterdir()) == []  # served in place

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
