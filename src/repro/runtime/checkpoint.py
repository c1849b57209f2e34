"""Checkpoint store: atomic, checksummed, version-stamped artefact persistence.

A :class:`CheckpointStore` manages a flat directory of artefact files plus a
``manifest.json`` recording, per key, the SHA-256 of the payload and the
store format version.  All writes go through write-temp-then-``os.replace``
so an interrupt can never leave a half-written payload *and* a manifest entry
claiming it is complete: the manifest is only updated after the payload
rename, and a payload whose bytes don't match the manifest checksum is
rejected as :class:`~repro.runtime.errors.CacheCorruptionError` on load.

Layout of a store rooted at ``suite_scale1.ckpt/``::

    suite_scale1.ckpt/
        manifest.json          {"format_version": 3, "entries": {key: {...}}}
        des_perf_b.npz         one payload file per checkpoint key
        des_perf_1.npz
        ...

Array payloads written with :func:`npz_bytes` depend only on the arrays,
so two stores holding the same data are byte-identical.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import re
import time
import zipfile
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

import numpy as np
from numpy.lib import format as npy_format

from .errors import CacheCorruptionError, ValidationError
from .telemetry import get_tracer

_T = TypeVar("_T")

#: Bump when the on-disk layout of checkpoints changes; old stores are
#: invalidated wholesale rather than migrated.
#: v3: design checkpoints hold X as float64 (v2 rounded it to float32).
CHECKPOINT_FORMAT_VERSION = 3

_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-]*$")

#: Filename of the per-store manifest; never a valid payload key, or a
#: ``save_bytes("manifest.json", ...)`` would overwrite the manifest itself.
_MANIFEST_NAME = "manifest.json"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Fixed zip-entry timestamp (the DOS epoch).  ``np.savez`` stamps each
#: archive member with wall-clock time, so two runs producing identical
#: arrays would still yield different bytes.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    """An ``np.load``-compatible compressed .npz whose bytes depend only on data."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, arr in arrays.items():
            member = io.BytesIO()
            npy_format.write_array(member, np.asanyarray(arr), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            zf.writestr(info, member.getvalue())
    return buf.getvalue()


#: Process-wide monotonic counter for temp-file names.  A pid alone is not
#: unique enough: two writers sharing a process (threads, or a re-entrant
#: call) would race on the same temp path and could tear each other's write.
_TMP_COUNTER = itertools.count()

#: How old an orphaned ``.*.tmp*`` file must be before the startup sweep
#: deletes it.  Generous on purpose: a *live* writer's temp file exists for
#: seconds, so an hour-old one can only be the residue of a killed process.
ORPHAN_TMP_MAX_AGE_S = 3600.0

#: Glob matching every temp name this module ever creates
#: (``.{name}.tmp{pid}-{n}``).
_TMP_GLOB = ".*.tmp*"


def unique_tmp_suffix() -> str:
    """A temp-name component unique per (process, call): ``<pid>-<counter>``."""
    return f"{os.getpid()}-{next(_TMP_COUNTER)}"


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes the rename atomic against *crashes of the writer*,
    but the new directory entry itself lives in the page cache until the
    directory inode is flushed — on power loss the file can revert to its
    old name (or vanish).  Best-effort: platforms that cannot open
    directories (Windows) or filesystems that reject directory fsync are
    silently tolerated, matching POSIX durability folklore.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def sweep_orphan_temps(
    root: str | Path, max_age_s: float = ORPHAN_TMP_MAX_AGE_S
) -> int:
    """Delete orphaned atomic-write temp files older than the safety window.

    A process killed between ``tmp.write_bytes`` and ``os.replace`` leaves
    its ``.*.tmp*`` sibling behind forever (the ``finally: unlink`` never
    ran).  Call this once at startup on every cache/checkpoint directory;
    the age window guarantees a concurrently *running* writer's temp files
    are never touched.  Returns how many files were removed and counts them
    on the ``runtime.cache.orphans_swept`` counter.
    """
    root = Path(root)
    swept = 0
    if not root.is_dir():
        return 0
    cutoff = time.time() - max(0.0, max_age_s)
    for tmp in root.glob(_TMP_GLOB):
        try:
            if not tmp.is_file() or tmp.stat().st_mtime > cutoff:
                continue
            tmp.unlink()
            swept += 1
        except OSError:
            continue  # vanished underneath us, or not ours to delete
    if swept:
        get_tracer().counter("runtime.cache.orphans_swept", swept)
    return swept


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` via a same-directory temp file + rename.

    The temp file is flushed to disk before the rename and the containing
    directory is fsynced after it, so the artefact is durable against power
    loss, not just against writer crashes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{unique_tmp_suffix()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


class CheckpointStore:
    """A directory of checksummed checkpoint artefacts keyed by filename."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.manifest_path = self.root / _MANIFEST_NAME
        # startup hygiene: a writer killed mid-write (SIGKILL, power loss)
        # leaves temp siblings behind; reclaim them once they are safely old
        sweep_orphan_temps(self.root)

    # -- manifest -----------------------------------------------------------------

    def _read_manifest(self) -> dict[str, dict[str, Any]]:
        if not self.manifest_path.exists():
            return {}
        try:
            doc = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}  # torn manifest: treat the whole store as empty
        if not isinstance(doc, dict) or doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            return {}  # older/newer store layout: invalidate wholesale
        entries = doc.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _write_manifest(self, entries: dict[str, dict[str, Any]]) -> None:
        atomic_write_text(
            self.manifest_path,
            json.dumps(
                {"format_version": CHECKPOINT_FORMAT_VERSION, "entries": entries},
                indent=0,
                sort_keys=True,
            ),
        )

    # -- primitives ---------------------------------------------------------------

    def _path_of(self, key: str) -> Path:
        if not _KEY_RE.match(key) or key == _MANIFEST_NAME:
            raise ValueError(f"invalid checkpoint key {key!r}")
        return self.root / key

    def save_bytes(self, key: str, data: bytes) -> Path:
        """Atomically persist ``data`` under ``key`` and record its checksum.

        The checksum is computed from the in-memory payload, so corruption
        after the write is caught by the next :meth:`load_bytes`.
        """
        path = self._path_of(key)
        checksum = sha256_bytes(data)
        atomic_write_bytes(path, data)
        get_tracer().counter("checkpoint.writes")
        entries = self._read_manifest()
        entries[key] = {
            "sha256": checksum,
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "size": len(data),
        }
        self._write_manifest(entries)
        return path

    def load_bytes(self, key: str) -> bytes:
        """Load and checksum-verify the payload stored under ``key``.

        Raises :class:`CacheCorruptionError` when the checkpoint is unsound,
        and ``OSError`` when its file exists but cannot be read.
        """
        path = self._path_of(key)
        entry = self._read_manifest().get(key)
        if entry is None:
            raise CacheCorruptionError(f"{path}: no manifest entry for {key!r}")
        if entry.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CacheCorruptionError(
                f"{path}: checkpoint format {entry.get('format_version')} != "
                f"{CHECKPOINT_FORMAT_VERSION}; regenerate with the current code"
            )
        try:
            data = path.read_bytes()
        except FileNotFoundError as exc:
            raise CacheCorruptionError(f"{path}: checkpoint payload missing") from exc
        # any other OSError (EACCES, an NFS hiccup) propagates: it says
        # nothing about whether the checkpoint is sound
        if sha256_bytes(data) != entry.get("sha256"):
            raise CacheCorruptionError(f"{path}: checksum mismatch (corrupted checkpoint)")
        get_tracer().counter("checkpoint.reads")
        return data

    # -- typed convenience layers -------------------------------------------------

    def load_arrays(self, key: str) -> dict[str, np.ndarray]:
        buf = io.BytesIO(self.load_bytes(key))
        try:
            with np.load(buf, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except (ValueError, OSError, EOFError) as exc:
            raise CacheCorruptionError(f"{key}: undecodable array payload") from exc

    def save_json(self, key: str, obj: Any) -> Path:
        return self.save_bytes(key, json.dumps(obj, sort_keys=True).encode("utf-8"))

    def load_json(self, key: str) -> Any:
        try:
            return json.loads(self.load_bytes(key).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CacheCorruptionError(f"{key}: undecodable JSON payload") from exc

    # -- queries & maintenance ----------------------------------------------------

    def has(self, key: str) -> bool:
        """Cheap existence check: manifest entry + payload file present."""
        return key in self._read_manifest() and self._path_of(key).exists()

    def restore(
        self, keys: Iterable[str], load: Callable[[str], _T], verbose: bool = False
    ) -> dict[str, _T]:
        """``load(key)`` of every key whose checkpoint loads, by key.

        The package's one restore policy.  A key without a checkpoint is
        skipped.  A checkpoint that cannot be read right now (an ``OSError``:
        EACCES, an NFS hiccup) is skipped for this run but kept: only a
        checkpoint proven unsound — a :class:`CacheCorruptionError` or
        :class:`~repro.runtime.errors.ValidationError` from the read or from
        ``load`` — is invalidated.  With ``verbose`` each skipped checkpoint
        prints one line naming the key without its suffix.
        """
        loaded: dict[str, _T] = {}
        for key in keys:
            if not self.has(key):
                continue
            try:
                loaded[key] = load(key)
            except OSError as exc:
                if verbose:
                    print(f"  {Path(key).stem:<12s} checkpoint unreadable ({exc}); "
                          "re-running", flush=True)
            except (CacheCorruptionError, ValidationError) as exc:
                self.invalidate(key)
                if verbose:
                    print(f"  {Path(key).stem:<12s} checkpoint invalid ({exc}); "
                          "re-running", flush=True)
        return loaded

    def file_digests(self) -> dict[str, str]:
        """SHA-256 of every file in the store directory (manifest included), by name."""
        return {p.name: sha256_bytes(p.read_bytes()) for p in sorted(self.root.iterdir())}

    def invalidate(self, key: str) -> None:
        """Drop a key's payload and manifest entry (idempotent)."""
        self._path_of(key).unlink(missing_ok=True)
        entries = self._read_manifest()
        if entries.pop(key, None) is not None:
            get_tracer().counter("checkpoint.invalidated")
            self._write_manifest(entries)
