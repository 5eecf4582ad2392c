"""The on-disk format shared by datasets and checkpoints.

An artifact is a directory holding a JSON header and a binary payload of
little-endian float64 values.  Next to its owner's fields the header carries
``format_version``, ``payload_bytes`` and ``payload_crc32``; it is written
with sorted keys, so equal contents give equal bytes.  Every way the pair can
be missing, unreadable or inconsistent is raised as the owner's error type.

Opening an artifact checks the payload's length and CRC32 in one streaming
pass and hands back a :class:`Payload`, which reads the file again on
request: whole (checkpoints) or at computed offsets (dataset blocks).
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["Payload", "save_artifact", "open_artifact", "describing"]

# Bytes the streaming CRC pass reads at a time
_CHECK_BYTES = 1 << 16


def save_artifact(path, header_name: str, payload_name: str, header: dict,
                  payload: np.ndarray) -> None:
    """Write ``payload`` as little-endian float64 and ``header`` plus its length and CRC32."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(payload, dtype="<f8")
    header = {**header, "payload_bytes": data.nbytes, "payload_crc32": zlib.crc32(data)}
    (path / payload_name).write_bytes(data)
    (path / header_name).write_text(json.dumps(header, indent=1, sort_keys=True))


@contextmanager
def describing(header_name: str, payload_name: str, error: type[Exception]):
    """Raise a lookup or conversion failure in the block as ``error``: the
    header does not describe its payload."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{header_name} does not describe {payload_name}: "
                    f"{type(exc).__name__}: {exc}") from exc


class Payload:
    """A payload file whose length and CRC32 matched its header when it was
    opened.  It is not checked again: a read that finds fewer bytes than it
    asks for raises ``error`` ("... is truncated")."""

    def __init__(self, path: Path, size: int, error: type[Exception]):
        self.path, self.size, self.error = path, size, error

    @contextmanager
    def reader(self):
        """``read(out, offset)``, which fills the C-contiguous array ``out``
        with the payload's bytes from byte ``offset`` on."""
        name = self.path.name
        try:
            fh = open(self.path, "rb")
        except OSError as exc:
            raise self.error(f"cannot read {name}: {exc}") from exc

        def read(out: np.ndarray, offset: int) -> None:
            try:
                fh.seek(offset)
                n_read = fh.readinto(memoryview(out).cast("B"))
            except OSError as exc:
                raise self.error(f"cannot read {name}: {exc}") from exc
            if n_read != out.nbytes:
                raise self.error(f"{name} is truncated")

        with fh:
            yield read

    def read_all(self) -> np.ndarray:
        """The whole payload as a flat float64 array."""
        values = np.empty(self.size // 8, dtype="<f8")
        with self.reader() as read:
            read(values, 0)
        return values.astype(np.float64, copy=False)


def open_artifact(path, header_name: str, payload_name: str, version: int,
                  error: type[Exception]) -> tuple[dict, Payload]:
    """The checked header and a handle on its payload, whose length and CRC32
    are checked here, ``_CHECK_BYTES`` at a time."""
    path = Path(path)
    header_path = path / header_name
    if not header_path.exists():
        raise error(f"no {header_name} under {path}")
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {header_name}: {exc}") from exc
    except ValueError as exc:  # bad JSON or not UTF-8
        raise error(f"{header_name} is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise error(f"{header_name} holds a {type(header).__name__}, not a JSON object")
    if header.get("format_version") != version:
        raise error(f"unsupported {header_name} version {header.get('format_version')!r}")
    chunk = bytearray(_CHECK_BYTES)
    view = memoryview(chunk)
    crc = size = 0
    try:
        with open(path / payload_name, "rb") as fh:
            while n_read := fh.readinto(chunk):
                crc = zlib.crc32(view[:n_read], crc)
                size += n_read
    except OSError as exc:
        raise error(f"cannot read {payload_name}: {exc}") from exc
    with describing(header_name, payload_name, error):
        if size != header["payload_bytes"] or size % 8:
            raise error(f"{payload_name} is truncated")
        if crc != header["payload_crc32"]:
            raise error(f"{payload_name} failed its checksum")
    return header, Payload(path / payload_name, size, error)

