"""The combined dynamics model and its on-disk checkpoint format.

A model is a physical family, a learned residual, or their sum.  A checkpoint
is an artifact (see :mod:`aphynity.artifacts`): ``manifest.json`` holds the
model description and an array table of name/shape/byte-offset entries, and
``params.bin`` the named arrays concatenated.
"""

from __future__ import annotations

import math

import numpy as np

from . import diffcore as dc
from .artifacts import describing, open_artifact, save_artifact
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


def _stored_params(model: AugmentedDynamics) -> ParamSet:
    """The arrays a checkpoint stores: the trainable parameters plus the raw
    leaves of frozen physics, so restoration is exact."""
    store = ParamSet()
    store.adopt("", model.params)
    if model.physical is not None:
        for pname, raw in model.physical.raw_params().items():
            key = f"physics.{pname}"
            if key not in store:
                store.add(key, raw)
    return store


def save_checkpoint(model: AugmentedDynamics, path, extra: dict | None = None) -> None:
    store = _stored_params(model)
    entries, offset = [], 0
    for name, tensor in store.items():
        entries.append({"name": name, "shape": list(tensor.values.shape), "offset": offset})
        offset += tensor.values.nbytes
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "dynamics-checkpoint",
        "model": model.describe(),
        "arrays": entries,
        "extra": extra or {},
    }
    payload = np.concatenate([t.values.ravel() for t in store.tensors()])
    save_artifact(path, "manifest.json", "params.bin", manifest, payload)


def load_checkpoint(path) -> tuple[AugmentedDynamics, dict]:
    """Rebuild the model from a checkpoint directory; returns (model, extra)."""
    manifest, payload = open_artifact(path, "manifest.json", "params.bin",
                                      CHECKPOINT_VERSION, CheckpointError)
    values = payload.read_all()
    with describing("manifest.json", "params.bin", CheckpointError):
        desc = manifest["model"]
        physical = augmentation = None
        if desc["physics"] is not None:
            # the payload restores the values exactly
            physical = make_family(**{k: v for k, v in desc["physics"].items()
                                      if k != "values"})
        if desc["augmentation"] is not None:
            augmentation = make_augmentation(desc["augmentation"])
        model = AugmentedDynamics(physical, augmentation)
        arrays = {}
        for entry in manifest["arrays"]:
            count = math.prod(entry["shape"])
            arrays[entry["name"]] = np.frombuffer(
                values, np.float64, count, entry["offset"]).reshape(entry["shape"])
        _stored_params(model).load_state(arrays)
        extra = manifest.get("extra", {})
        if not isinstance(extra, dict):
            raise TypeError(f"extra is not a JSON object: {extra!r}")
    return model, extra
