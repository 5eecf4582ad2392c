"""Data-driven residual dynamics.

Two architectures cover the two state layouts: an MLP for flat vector
states and a small shape-preserving ConvNet for two-channel grid fields.
Both map a batch of states to a batch of state derivatives of the same
shape.  Weights start uniform in ``(-s, s)`` with ``s = 1/sqrt(fan_in)``;
biases start at zero, batch-norm at identity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ParamSet, Tensor

__all__ = ["MlpSpec", "ConvNetSpec", "MlpAugmentation", "ConvNetAugmentation",
           "make_augmentation"]


@dataclass(frozen=True)
class MlpSpec:
    in_dim: int = 2
    hidden: int = 200
    depth: int = 3  # hidden layers
    out_dim: int = 2

    def __post_init__(self):  # the residual is a derivative of the state
        if self.out_dim != self.in_dim:
            raise ValueError(f"out_dim {self.out_dim} differs from in_dim {self.in_dim}")

    def to_dict(self) -> dict:
        return {"kind": "mlp", **asdict(self)}


@dataclass(frozen=True)
class ConvNetSpec:
    in_channels: int = 2
    hidden_channels: int = 16
    out_channels: int = 2
    padding: str = "circular"  # "circular" for periodic systems, "zero" otherwise

    def __post_init__(self):  # the residual is a derivative of the state
        if self.out_channels != self.in_channels:
            raise ValueError(f"out_channels {self.out_channels} differs from "
                             f"in_channels {self.in_channels}")

    def to_dict(self) -> dict:
        return {"kind": "convnet", **asdict(self)}


def _uniform_fan_in(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


class MlpAugmentation:
    """ReLU MLP residual model on (B, in_dim) states, linear output layer."""

    def __init__(self, spec: MlpSpec, seed: int = 0):
        self.spec = spec
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        dims = [spec.in_dim] + [spec.hidden] * spec.depth + [spec.out_dim]
        self._layers = []
        for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
            w = self.params.add(f"w{i}", _uniform_fan_in(rng, (n_in, n_out), n_in))
            b = self.params.add(f"b{i}", np.zeros(n_out))
            self._layers.append((w, b))

    def check_batch(self, shape: tuple) -> None:
        if len(shape) != 2 or shape[1] != self.spec.in_dim:
            raise ValueError(f"expected (B, {self.spec.in_dim}) state batch, got {shape}")

    def __call__(self, x: Tensor) -> Tensor:
        self.check_batch(x.shape)
        h = x
        for w, b in self._layers[:-1]:
            h = dc.relu(dc.affine(h, w, b))
        w, b = self._layers[-1]
        return dc.affine(h, w, b)


class ConvNetAugmentation:
    """conv-bn-relu x2 then conv, all 3x3 and shape preserving.

    Each batch norm and its ReLU run as the normalized input of the next
    convolution (``conv2d``'s ``norm``), so the graph keeps one normalized
    activation per block.  Batch norm removes any per-channel constant, so a
    bias on the two convolutions that feed it would get an exactly zero
    gradient; only the last convolution has one.
    """

    def __init__(self, spec: ConvNetSpec, seed: int = 0):
        if spec.padding not in ("zero", "circular"):
            raise ValueError(f"padding must be 'zero' or 'circular', got {spec.padding!r}")
        self.spec = spec
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        chans = [spec.in_channels, spec.hidden_channels, spec.hidden_channels,
                 spec.out_channels]
        self._kernels = [
            self.params.add(f"k{i}", _uniform_fan_in(rng, (c_out, c_in, 3, 3), c_in * 9))
            for i, (c_in, c_out) in enumerate(zip(chans[:-1], chans[1:]))]
        self._bias = self.params.add("c2", np.zeros(spec.out_channels))
        self._norms = []
        for i in (0, 1):
            g = self.params.add(f"g{i}", np.ones(spec.hidden_channels))
            s = self.params.add(f"s{i}", np.zeros(spec.hidden_channels))
            self._norms.append((g, s))

    def check_batch(self, shape: tuple) -> None:
        if len(shape) != 4 or shape[1] != self.spec.in_channels or min(shape[2:]) < 3:
            raise ValueError(f"expected (B, {self.spec.in_channels}, H, W) state batch "
                             f"with H, W >= 3, got {shape}")

    def __call__(self, x: Tensor) -> Tensor:
        self.check_batch(x.shape)
        pad = self.spec.padding
        k0, k1, k2 = self._kernels
        norm0, norm1 = self._norms
        h = dc.conv2d(x, k0, padding=pad)
        h = dc.conv2d(h, k1, padding=pad, norm=norm0)
        return dc.conv2d(h, k2, self._bias, padding=pad, norm=norm1)


_KINDS = {"mlp": (MlpSpec, MlpAugmentation), "convnet": (ConvNetSpec, ConvNetAugmentation)}


def make_augmentation(spec_dict: dict, seed: int = 0):
    """Build an augmentation from its serialized spec."""
    kind = spec_dict.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown augmentation kind {kind!r}")
    spec_cls, net_cls = _KINDS[kind]
    return net_cls(spec_cls(**{k: v for k, v in spec_dict.items() if k != "kind"}), seed=seed)
