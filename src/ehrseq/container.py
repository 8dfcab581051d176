"""Binary artifact container: encoder checkpoints, embedding stores, scorers.

Layout: 7-byte magic ``EHRSEQ1``, u32 little-endian header length, UTF-8 JSON
header, then one length-prefixed blob per array in header order. Arrays are
float32 little-endian, so save -> load round-trips float32 data bitwise.

Header shape::

    {"format_version": 1, "kind": "encoder" | ...,
     "meta": {...caller metadata...},
     "arrays": [{"name": str, "shape": [int, ...]}, ...]}

Provenance: a derived artifact records in its meta the ``<what>_sha256`` of
each artifact it was built from (a checkpoint its vocabulary; a replacement
scorer the encoder and vocabulary of its group table). :func:`check_pin`
compares a recorded value with the offered one where the two are joined.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

MAGIC = b"EHRSEQ1"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """Malformed, truncated, or mismatched artifact file."""


def check_pin(what: str, recorded: str, offered: str) -> None:
    """Refuse a ``what`` other than the one a derived artifact recorded ("" if none)."""
    if recorded != offered:
        raise ContainerError(f"{what} mismatch: built with {recorded[:12] or '(none recorded)'}, "
                             f"offered {offered[:12]}; refit with `ehrseq score-train`")


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open ``path`` for writing ("w" text as UTF-8, or "wb") so a crash leaves no half file.

    The data goes to a temporary file in the target's directory, which is
    fsynced and renamed over ``path`` when the block exits cleanly, after
    which the directory is fsynced too. If the block raises, the temporary
    file is removed and any old file at ``path`` is left as it was.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"mode must be 'w' or 'wb', got {mode!r}")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), encoding=None if mode == "wb" else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if os.name == "posix":
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def save_artifact(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write an artifact atomically: a failed write leaves any old file as it was."""
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "meta": meta,
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays.values():
            raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def load_artifact(path: str | Path, kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read an artifact; raises :class:`ContainerError` on any malformation."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ContainerError(f"cannot read artifact {path}: {exc}") from exc
    if len(data) < len(MAGIC) + 4 or not data.startswith(MAGIC):
        raise ContainerError(f"not an artifact file (bad magic): {path}")
    pos = len(MAGIC)
    (hlen,) = struct.unpack_from("<I", data, pos)
    pos += 4
    if pos + hlen > len(data):
        raise ContainerError(f"truncated artifact header: {path}")
    try:
        header = json.loads(data[pos : pos + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"unreadable artifact header: {path}: {exc}") from exc
    pos += hlen
    if header.get("format_version") != FORMAT_VERSION:
        raise ContainerError(
            f"unsupported format version {header.get('format_version')} (expected {FORMAT_VERSION})"
        )
    if kind is not None and header.get("kind") != kind:
        raise ContainerError(f"artifact kind {header.get('kind')!r}, expected {kind!r}")
    arrays: dict[str, np.ndarray] = {}
    for spec in header.get("arrays", []):
        if pos + 4 > len(data):
            raise ContainerError(f"truncated artifact (missing blob length for {spec['name']!r})")
        (nbytes,) = struct.unpack_from("<I", data, pos)
        pos += 4
        shape = tuple(spec["shape"])
        expected = int(np.prod(shape, dtype=np.int64)) * 4
        if nbytes != expected:
            raise ContainerError(
                f"blob size {nbytes} for array {spec['name']!r} does not match shape {shape}"
            )
        if pos + nbytes > len(data):
            raise ContainerError(f"truncated artifact (array {spec['name']!r})")
        arr = np.frombuffer(data[pos : pos + nbytes], dtype="<f4").reshape(shape)
        arrays[spec["name"]] = arr.astype(np.float32, copy=True)  # writable copy
        pos += nbytes
    if pos != len(data):
        raise ContainerError(f"{len(data) - pos} trailing bytes after declared arrays: {path}")
    return header["meta"], arrays


def artifact_hash(path: str | Path) -> str:
    """sha256 of the artifact file bytes; identifies a model in logs/responses."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
