"""Parametric physical dynamics for the three benchmark systems.

Each family maps a batched state tensor to its time derivative through
autodiff ops, so a trajectory loss can be differentiated with respect to
both the state and the physical parameters.  Positive parameters are kept
strictly above a floor via ``floor + softplus(raw)``; the raw value is the
trainable quantity.

The systems:

* damped pendulum, state ``(theta, dtheta/dt)``:
  ``d2theta/dt2 + omega0^2 sin(theta) + alpha dtheta/dt = 0``
* FitzHugh-Nagumo reaction-diffusion, state ``(u, v)`` on a periodic grid:
  ``du/dt = a lap(u) + u - u^3 - k - v``, ``dv/dt = b lap(v) + u - v``
* damped wave, state ``(w, dw/dt)`` with zero-Neumann boundaries:
  ``d2w/dt2 = c^2 lap(w) - k dw/dt``
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import diffcore as dc
from .diffcore import ParamSet, Tensor, laplacian
from .diffcore.ops import laplacian_stencil, pad_boundary

__all__ = [
    "softplus_inverse", "ConstrainedParam", "laplacian", "laplacian_np",
    "PhysicalFamily", "PendulumDynamics", "ReactionDiffusionDynamics",
    "DampedWaveDynamics", "make_family", "level_variant",
    "PENDULUM_FLOORS", "REACDIFF_FLOORS", "WAVE_FLOORS",
]

PENDULUM_FLOORS = {"omega0_sq": 1e-4, "alpha": 1e-4}
REACDIFF_FLOORS = {"a": 1e-6, "b": 1e-6, "k": 1e-6}
WAVE_FLOORS = {"c": 1.0, "k": 1.0}

def softplus_inverse(y):
    """Inverse of log(1 + e^x), stable across magnitudes."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("softplus_inverse requires positive input")
    out = np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))
    return out if out.ndim else float(out)


class ConstrainedParam:
    """A scalar physical parameter constrained to ``(floor, inf)``.

    The trainable leaf is the raw pre-softplus value; ``tensor()`` rebuilds
    the constrained value inside the current graph so gradients reach the
    raw leaf.  Frozen parameters are plain constants.
    """

    def __init__(self, name: str, floor: float, init: float | None = None,
                 trainable: bool = True):
        if not floor > 0:
            raise ValueError("floor must be positive")
        self.floor = float(floor)
        if init is not None and (isinstance(init, bool) or not isinstance(init, numbers.Real)):
            raise ValueError(f"{name}: initial value must be a number, got {init!r}")
        value = 2.0 * self.floor if init is None else float(init)
        if not (math.isfinite(value) and value > self.floor):
            raise ValueError(f"{name}: initial value {value} must be finite and exceed "
                             f"floor {floor}")
        self.raw = Tensor(softplus_inverse(value - self.floor), requires_grad=trainable)

    def tensor(self) -> Tensor:
        return dc.add(dc.softplus(self.raw), self.floor)

    def item(self) -> float:
        return float(np.logaddexp(0.0, self.raw.values) + self.floor)


def laplacian_np(field: np.ndarray, bc: str, dx: float, order: int = 2) -> np.ndarray:
    """5-point (or 4th-order 9-point cross) Laplacian on the last two axes.

    ``bc`` is "periodic" (wrap) or "neumann_zero" (edge replication).  The
    5-point stencil is the one the autodiff :func:`laplacian` uses; the
    4th-order variant exists for the wave-equation simulator only.
    """
    if order == 2:
        return laplacian_stencil(field, bc, dx)
    if order != 4:
        raise ValueError("order must be 2 or 4")
    p = pad_boundary(field, bc, width=2)
    h, w = field.shape[-2], field.shape[-1]

    def sh(di, dj):
        return p[..., 2 + di:2 + di + h, 2 + dj:2 + dj + w]

    out = (-sh(-2, 0) + 16 * sh(-1, 0) + 16 * sh(1, 0) - sh(2, 0)
           - sh(0, -2) + 16 * sh(0, -1) + 16 * sh(0, 1) - sh(0, 2)
           - 60.0 * field)
    return out / (12.0 * dx * dx)


class PhysicalFamily:
    """Base for parametric dynamics: owns constrained params, exposes rhs().

    A subclass names its variants in ``VARIANTS`` (variant -> the parameters
    it trains, in registration order), the incomplete one first and the
    complete one last, and their floors in ``FLOORS``.  A parameter the
    variant lacks reads as ``None`` through :meth:`tensor`.
    """

    system: str = ""
    VARIANTS: dict[str, tuple[str, ...]] = {}
    FLOORS: dict[str, float] = {}

    def __init__(self, variant: str, init: dict | None = None, trainable: bool = True,
                 dx: float | None = None):
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown physical family {self.system!r}/{variant!r}")
        init = init or {}
        unknown = sorted(set(init) - set(self.VARIANTS[variant]))
        if unknown:
            raise ValueError(f"{self.system}/{variant} has no parameter {', '.join(unknown)}; "
                             f"it trains {', '.join(self.VARIANTS[variant])}")
        self.variant = variant
        self.dx = None if dx is None else float(dx)
        self.params = ParamSet()
        self._constrained: dict[str, ConstrainedParam] = {}
        for name in self.VARIANTS[variant]:
            cp = ConstrainedParam(name, self.FLOORS[name], init.get(name), trainable)
            self._constrained[name] = cp
            if trainable:
                self.params.add(name, cp.raw)

    def tensor(self, name: str) -> Tensor | None:
        cp = self._constrained.get(name)
        return None if cp is None else cp.tensor()

    def param_values(self) -> dict[str, float]:
        return {name: cp.item() for name, cp in self._constrained.items()}

    def raw_params(self) -> dict[str, Tensor]:
        """Pre-softplus leaves for all parameters, trainable or frozen."""
        return {name: cp.raw for name, cp in self._constrained.items()}

    def rhs(self, x: Tensor) -> Tensor:
        raise NotImplementedError


class PendulumDynamics(PhysicalFamily):
    """Pendulum rhs ``(v, -omega0^2 sin(u) [- alpha v])`` on (B, 2) states."""

    system = "pendulum"
    VARIANTS = {"omega0": ("omega0_sq",), "omega0_alpha": ("omega0_sq", "alpha")}
    FLOORS = PENDULUM_FLOORS

    def rhs(self, x: Tensor) -> Tensor:
        u = dc.narrow(x, 1, 0, 1)
        v = dc.narrow(x, 1, 1, 1)
        accel = dc.smul(-1.0, dc.mul(self.tensor("omega0_sq"), dc.sin(u)))
        alpha = self.tensor("alpha")
        if alpha is not None:
            accel = dc.sub(accel, dc.mul(alpha, v))
        return dc.concat([v, accel], 1)


class ReactionDiffusionDynamics(PhysicalFamily):
    """FitzHugh-Nagumo rhs on (B, 2, H, W) states with periodic boundaries."""

    system = "reacdiff"
    bc = "periodic"
    VARIANTS = {"ab": ("a", "b"), "abk": ("a", "b", "k")}
    FLOORS = REACDIFF_FLOORS

    def rhs(self, x: Tensor) -> Tensor:
        u = dc.narrow(x, 1, 0, 1)
        v = dc.narrow(x, 1, 1, 1)
        du = dc.mul(self.tensor("a"), laplacian(u, self.bc, self.dx))
        dv = dc.mul(self.tensor("b"), laplacian(v, self.bc, self.dx))
        k = self.tensor("k")
        if k is not None:
            # R_u = u - u^3 - k - v;  R_v = u - v
            u3 = dc.mul(dc.square(u), u)
            ru = dc.sub(dc.sub(dc.sub(u, u3), k), v)
            du = dc.add(du, ru)
            dv = dc.add(dv, dc.sub(u, v))
        return dc.concat([du, dv], 1)


class DampedWaveDynamics(PhysicalFamily):
    """Damped-wave rhs ``(v, c^2 lap(w) [- k v])`` with zero-Neumann boundaries."""

    system = "wave"
    bc = "neumann_zero"
    VARIANTS = {"c": ("c",), "ck": ("c", "k")}
    FLOORS = WAVE_FLOORS

    def rhs(self, x: Tensor) -> Tensor:
        w = dc.narrow(x, 1, 0, 1)
        v = dc.narrow(x, 1, 1, 1)
        accel = dc.mul(dc.square(self.tensor("c")), laplacian(w, self.bc, self.dx))
        k = self.tensor("k")
        if k is not None:
            accel = dc.sub(accel, dc.mul(k, v))
        return dc.concat([v, accel], 1)


_FAMILIES = {cls.system: cls for cls in
             (PendulumDynamics, ReactionDiffusionDynamics, DampedWaveDynamics)}


def make_family(system: str, variant: str, *, dx: float | None = None,
                init: dict | None = None, trainable: bool = True) -> PhysicalFamily:
    """Construct a family by (system, variant) name, as used by configs."""
    if system not in _FAMILIES:
        raise ValueError(f"unknown physical family {system!r}/{variant!r}")
    if system == "reacdiff" and dx is None:
        raise ValueError("reacdiff families need dx")
    if system == "wave":
        dx = dx or 1.0
    return _FAMILIES[system](variant, init=init, trainable=trainable, dx=dx)


def level_variant(system: str, level: str) -> str:
    """The variant a config's physics level names: ``incomplete`` is the
    family's first, ``complete`` and ``true`` its last."""
    variants = list(_FAMILIES[system].VARIANTS)
    return variants[0] if level == "incomplete" else variants[-1]
