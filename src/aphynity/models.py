"""The combined dynamics model and its on-disk checkpoint format.

A model is a physical family, a learned residual, or their sum.  Checkpoints
are a directory holding ``manifest.json`` (model description plus an array
table of name/shape/byte-offset entries and a payload checksum) and
``params.bin`` (the named arrays concatenated as little-endian float64).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .augments import make_augmentation
from .diffcore import ParamSet, Tensor
from .physics import PhysicalFamily, make_family

__all__ = ["AugmentedDynamics", "CheckpointError", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Checkpoint directory is missing, corrupt, or from an unknown version."""


class AugmentedDynamics:
    """Dynamics ``X -> physical(X) + residual(X)``; either side may be absent."""

    def __init__(self, physical: PhysicalFamily | None, augmentation=None):
        if physical is None and augmentation is None:
            raise ValueError("need a physical family, an augmentation, or both")
        self.physical = physical
        self.augmentation = augmentation
        self.params = ParamSet()
        if physical is not None:
            self.params.adopt("physics", physical.params)
        if augmentation is not None:
            self.params.adopt("augment", augmentation.params)

    def rhs(self, x: Tensor) -> Tensor:
        if self.physical is None:
            return self.augmentation(x)
        out = self.physical.rhs(x)
        if self.augmentation is not None:
            out = dc.add(out, self.augmentation(x))
        return out

    def physical_param_values(self) -> dict[str, float]:
        return {} if self.physical is None else self.physical.param_values()

    def describe(self) -> dict:
        desc: dict = {"physics": None, "augmentation": None}
        if self.physical is not None:
            fam = self.physical
            desc["physics"] = {
                "system": fam.system,
                "variant": fam.variant,
                "trainable": len(fam.params) > 0,
                "values": fam.param_values(),
                "dx": getattr(fam, "dx", None),
            }
        if self.augmentation is not None:
            desc["augmentation"] = self.augmentation.spec.to_dict()
        return desc


def _array_table(params: ParamSet):
    entries = []
    chunks = []
    offset = 0
    for name, tensor in params.items():
        data = np.ascontiguousarray(tensor.values, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(tensor.values.shape), "offset": offset})
        chunks.append(data)
        offset += len(data)
    return entries, b"".join(chunks)


def save_checkpoint(model: AugmentedDynamics, path, extra: dict | None = None) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    # persist frozen physics parameters too, so restoration is exact
    store = ParamSet()
    store.adopt("", model.params)
    if model.physical is not None:
        for pname, raw in model.physical.raw_params().items():
            key = f"physics.{pname}"
            if key not in store:
                store.add(key, raw)
    entries, payload = _array_table(store)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "dynamics-checkpoint",
        "model": model.describe(),
        "arrays": entries,
        "payload_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
        "extra": extra or {},
    }
    (path / "params.bin").write_bytes(payload)
    (path / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _read_arrays(path: Path, manifest: dict) -> dict[str, np.ndarray]:
    try:
        payload = (path / "params.bin").read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read params.bin: {exc}") from exc
    if len(payload) != manifest["payload_bytes"]:
        raise CheckpointError("params.bin is truncated")
    if zlib.crc32(payload) != manifest["payload_crc32"]:
        raise CheckpointError("params.bin failed its checksum")
    arrays = {}
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=entry["offset"])
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float64)
    return arrays


def load_checkpoint(path) -> tuple[AugmentedDynamics, dict]:
    """Rebuild the model from a checkpoint directory; returns (model, extra)."""
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"no manifest.json under {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"manifest.json is not valid JSON: {exc}") from exc
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {manifest.get('format_version')!r}")
    try:
        arrays = _read_arrays(path, manifest)
        desc = manifest["model"]
        physical = None
        if desc["physics"] is not None:
            p = desc["physics"]
            physical = make_family(p["system"], p["variant"], dx=p.get("dx"),
                                   trainable=p["trainable"])
            for pname, raw in physical.raw_params().items():
                raw.values = np.asarray(arrays[f"physics.{pname}"])
        augmentation = None
        if desc["augmentation"] is not None:
            augmentation = make_augmentation(desc["augmentation"])
            for name, tensor in augmentation.params.items():
                src = arrays[f"augment.{name}"]
                if src.shape != tensor.values.shape:
                    raise CheckpointError(f"array {name!r} has shape {src.shape}, "
                                          f"expected {tensor.values.shape}")
                tensor.values = src
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"manifest.json does not describe params.bin: {type(exc).__name__}: {exc}") from exc
    model = AugmentedDynamics(physical, augmentation)
    return model, manifest.get("extra", {})
