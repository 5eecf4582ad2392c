"""The on-disk format shared by datasets and checkpoints.

An artifact is a directory holding a JSON header and a binary payload of
little-endian float64 values.  Next to its owner's fields the header carries
``format_version``, ``payload_bytes`` and ``payload_crc32``; it is written
with sorted keys, so equal contents give equal bytes.  Every way the pair can
be missing, unreadable or inconsistent is raised as the owner's error type.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["save_artifact", "load_artifact", "describing"]


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


def load_artifact(path, header_name: str, payload_name: str, version: int,
                  error: type[Exception]) -> tuple[dict, np.ndarray]:
    """The checked header and the payload as a flat float64 array."""
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
    try:  # read straight into the array, so the payload is held once
        size = (path / payload_name).stat().st_size
        values = np.empty(size // 8, dtype="<f8")
        with open(path / payload_name, "rb") as fh:
            n_read = fh.readinto(values)
    except OSError as exc:
        raise error(f"cannot read {payload_name}: {exc}") from exc
    with describing(header_name, payload_name, error):
        if size != header["payload_bytes"] or n_read != size:
            raise error(f"{payload_name} is truncated")
        if zlib.crc32(values) != header["payload_crc32"]:
            raise error(f"{payload_name} failed its checksum")
    return header, values.astype(np.float64, copy=False)
