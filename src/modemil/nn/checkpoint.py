"""Named-tensor archive used for model checkpoints and cached features.

The container is a numpy ``.npz`` file with one entry per named array plus a
reserved ``__meta__`` entry holding a JSON document::

    {"format": "modemil-tensors", "version": 1, "meta": {...}}

Array names, shapes and dtypes are self-describing through the npz index;
``meta`` carries caller-supplied metadata (config, seed, provenance).
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["save_arrays", "load_arrays", "FORMAT_NAME", "FORMAT_VERSION"]

FORMAT_NAME = "modemil-tensors"
FORMAT_VERSION = 1
_META_KEY = "__meta__"


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "meta": meta or {}}
    payload = {name: np.asarray(value) for name, value in arrays.items()}
    payload[_META_KEY] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **payload)


class _Entries(dict):
    """An archive's arrays or metadata: reading an absent entry raises a ``ValueError`` naming it."""

    def __init__(self, entries: dict, path, what: str):
        super().__init__(entries)
        self._missing = f"{path}: missing {what}"

    def __missing__(self, key):
        raise ValueError(f"{self._missing} {key!r}")


def load_arrays(path, kind: str | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and metadata of an archive (of metadata ``kind``, if given); a file that is not one,
    or an array or metadata field it lacks, raises a ``ValueError`` naming the file."""
    try:
        archive = np.load(path)
        arrays = {}  # a lone .npy array has no header
        if isinstance(archive, np.lib.npyio.NpzFile):
            with archive:
                arrays = {name: archive[name] for name in archive.files}
    except (ValueError, zipfile.BadZipFile) as exc:  # not a zip, a truncated one, or pickled data
        raise ValueError(f"{path}: not a readable {FORMAT_NAME} archive ({exc})") from exc
    if _META_KEY not in arrays:
        raise ValueError(f"{path}: not a {FORMAT_NAME} archive (missing header)")
    header = json.loads(bytes(arrays.pop(_META_KEY)).decode("utf-8"))
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: unexpected format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {header.get('version')!r}")
    meta = header.get("meta", {})
    if kind is not None and meta.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} archive")
    return _Entries(arrays, path, "array"), _Entries(meta, path, "metadata field")
