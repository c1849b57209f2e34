"""Tests for the checkpoint store: atomicity, checksums, version stamps."""

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import CacheCorruptionError, CheckpointStore, ValidationError
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    atomic_write_bytes,
    npz_bytes,
)


@pytest.fixture()
def store(tmp_path) -> CheckpointStore:
    return CheckpointStore(tmp_path / "ckpt")


class TestAtomicWrite:
    def test_roundtrip_and_no_temp_residue(self, tmp_path):
        path = tmp_path / "deep" / "a.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert [p.name for p in path.parent.iterdir()] == ["a.bin"]

    def test_overwrite_is_replace(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"


class TestCheckpointStore:
    def test_bytes_roundtrip(self, store):
        store.save_bytes("k.bin", b"\x00\x01hello")
        assert store.has("k.bin")
        assert store.load_bytes("k.bin") == b"\x00\x01hello"

    def test_arrays_roundtrip(self, store):
        X = np.random.default_rng(0).normal(size=(3, 4))
        store.save_bytes("a.npz", npz_bytes({"X": X, "y": np.array([1, 0, 1], dtype=np.int8)}))
        back = store.load_arrays("a.npz")
        assert back["X"].dtype == np.float64
        assert np.array_equal(back["X"], X)
        assert back["y"].tolist() == [1, 0, 1]

    def test_array_payload_bytes_depend_only_on_data(self, store):
        # no wall-clock stamp in the zip members: equal arrays, equal bytes
        path = store.save_bytes("a.npz", npz_bytes({"X": np.eye(3)}))
        with zipfile.ZipFile(path) as zf:
            assert {i.date_time for i in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        assert npz_bytes({"X": np.eye(3)}) == path.read_bytes()

    def test_json_roundtrip(self, store):
        store.save_json("m.json", {"a": [1, 2], "b": "x"})
        assert store.load_json("m.json") == {"a": [1, 2], "b": "x"}

    def test_missing_key(self, store):
        assert not store.has("ghost")
        with pytest.raises(CacheCorruptionError, match="no manifest entry"):
            store.load_bytes("ghost")

    def test_corruption_detected_by_checksum(self, store):
        store.save_bytes("c.bin", b"A" * 64)
        path = store.root / "c.bin"
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.has("c.bin")  # cheap check still true
        with pytest.raises(CacheCorruptionError, match="checksum mismatch"):
            store.load_bytes("c.bin")

    def test_truncation_detected(self, store):
        store.save_bytes("t.bin", b"B" * 128)
        path = store.root / "t.bin"
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CacheCorruptionError):
            store.load_bytes("t.bin")

    def test_version_mismatch_rejected(self, store):
        store.save_bytes("v.bin", b"data")
        manifest = json.loads(store.manifest_path.read_text())
        manifest["entries"]["v.bin"]["format_version"] = CHECKPOINT_FORMAT_VERSION - 1
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CacheCorruptionError, match="format"):
            store.load_bytes("v.bin")

    def test_store_format_bump_invalidates_wholesale(self, store):
        store.save_bytes("w.bin", b"data")
        manifest = json.loads(store.manifest_path.read_text())
        manifest["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        store.manifest_path.write_text(json.dumps(manifest))
        assert not store.has("w.bin")
        with pytest.raises(CacheCorruptionError, match="no manifest entry"):
            store.load_bytes("w.bin")

    def test_torn_manifest_treated_as_empty(self, store):
        store.save_bytes("k.bin", b"data")
        store.manifest_path.write_text('{"format_version": 2, "entr')  # torn
        assert not store.has("k.bin")

    def test_missing_payload_is_corruption(self, store):
        store.save_bytes("m.bin", b"data")
        (store.root / "m.bin").unlink()
        with pytest.raises(CacheCorruptionError, match="missing"):
            store.load_bytes("m.bin")

    def test_unreadable_payload_is_not_corruption(self, store, monkeypatch):
        # a read error says nothing about the payload: callers keep the file
        store.save_bytes("r.bin", b"data")

        def denied(path):
            raise PermissionError("transient EACCES")

        monkeypatch.setattr(Path, "read_bytes", denied)
        with pytest.raises(PermissionError):
            store.load_bytes("r.bin")
        monkeypatch.undo()
        assert store.load_bytes("r.bin") == b"data"

    def test_file_digests_cover_payloads_and_manifest(self, store):
        store.save_bytes("a.bin", b"1")
        digests = store.file_digests()
        assert sorted(digests) == ["a.bin", "manifest.json"]
        assert digests["a.bin"] == hashlib.sha256(b"1").hexdigest()

    def test_invalidate(self, store):
        store.save_bytes("d.bin", b"data")
        store.invalidate("d.bin")
        assert not store.has("d.bin")
        assert not (store.root / "d.bin").exists()
        store.invalidate("d.bin")  # idempotent

    def test_invalid_keys_rejected(self, store):
        for bad in ("../escape", "a/b", "", ".hidden"):
            with pytest.raises(ValueError):
                store.save_bytes(bad, b"x")

    def test_manifest_filename_is_a_reserved_key(self, store):
        store.save_bytes("k.bin", b"data")
        with pytest.raises(ValueError, match="invalid checkpoint key"):
            store.save_bytes("manifest.json", b"payload over the manifest")
        with pytest.raises(ValueError, match="invalid checkpoint key"):
            store.load_bytes("manifest.json")
        # the store survived the attempt intact
        assert store.load_bytes("k.bin") == b"data"
        assert sorted(store.file_digests()) == ["k.bin", "manifest.json"]

    def test_undecodable_array_payload(self, store):
        store.save_bytes("x.npz", b"not an npz at all")
        with pytest.raises(CacheCorruptionError, match="array payload"):
            store.load_arrays("x.npz")

    def test_undecodable_json_payload(self, store):
        store.save_bytes("x.json", b"\xff\xfe{nope")
        with pytest.raises(CacheCorruptionError, match="JSON payload"):
            store.load_json("x.json")


class TestRestorePolicy:
    """``CheckpointStore.restore``: skip what is absent or unreadable, drop
    only what is proven unsound."""

    def test_sound_checkpoint_is_returned(self, store):
        store.save_json("a.json", {"v": 1})
        store.save_json("b.json", {"v": 2})
        assert store.restore(["a.json", "missing.json", "b.json"], store.load_json) == {
            "a.json": {"v": 1},
            "b.json": {"v": 2},
        }

    def test_read_error_skips_key_and_keeps_file(self, store, monkeypatch, capsys):
        store.save_json("a.json", {"v": 1})
        store.save_json("b.json", {"v": 2})
        before = store.file_digests()
        real_read = Path.read_bytes

        def denied(path):
            if path.name == "a.json":
                raise PermissionError("transient EACCES")
            return real_read(path)

        monkeypatch.setattr(Path, "read_bytes", denied)
        loaded = store.restore(["a.json", "b.json"], store.load_json, verbose=True)
        monkeypatch.undo()
        assert loaded == {"b.json": {"v": 2}}
        assert store.file_digests() == before
        assert "a            checkpoint unreadable (transient EACCES); re-running" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("error", [CacheCorruptionError, ValidationError])
    def test_unsound_checkpoint_is_invalidated(self, store, error, capsys):
        store.save_json("a.json", {"v": 1})
        store.save_json("b.json", {"v": 2})

        def load(key):
            doc = store.load_json(key)
            if doc["v"] == 1:
                raise error("stale")
            return doc

        assert store.restore(["a.json", "b.json"], load, verbose=True) == {"b.json": {"v": 2}}
        assert not store.has("a.json")
        assert sorted(store.file_digests()) == ["b.json", "manifest.json"]
        assert "a            checkpoint invalid (stale); re-running" in capsys.readouterr().out

    def test_corrupt_payload_is_invalidated(self, store):
        store.save_json("a.json", {"v": 1})
        (store.root / "a.json").write_bytes(b"tampered")
        assert store.restore(["a.json"], store.load_json) == {}
        assert not store.has("a.json")
        assert sorted(store.file_digests()) == ["manifest.json"]
