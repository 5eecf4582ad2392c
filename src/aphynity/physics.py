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

import numpy as np

from . import diffcore as dc
from .diffcore import ParamSet, Tensor
from .diffcore.ops import laplacian_stencil, pad_boundary

__all__ = [
    "softplus_inverse", "ConstrainedParam", "laplacian", "laplacian_np",
    "PhysicalFamily", "PendulumDynamics", "ReactionDiffusionDynamics",
    "DampedWaveDynamics", "make_family", "project_linear_family",
    "SingularProjectionError",
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
        self.name = name
        self.floor = float(floor)
        value = 2.0 * self.floor if init is None else float(init)
        if value <= self.floor:
            raise ValueError(f"{name}: initial value {value} must exceed floor {floor}")
        self.raw = Tensor(softplus_inverse(value - self.floor), requires_grad=trainable)
        self.trainable = trainable

    def tensor(self) -> Tensor:
        return dc.add(dc.softplus(self.raw), self.floor)

    def item(self) -> float:
        return float(np.logaddexp(0.0, self.raw.values) + self.floor)

    def set(self, value: float) -> None:
        if value <= self.floor:
            raise ValueError(f"{self.name}: value {value} must exceed floor {self.floor}")
        self.raw.values = np.asarray(softplus_inverse(value - self.floor))


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


def laplacian(field, bc: str, dx: float = 1.0) -> Tensor:
    """Differentiable 5-point Laplacian of a field tensor (see :func:`diffcore.laplacian`)."""
    return dc.laplacian(field, bc, dx)


class PhysicalFamily:
    """Base for parametric dynamics: owns constrained params, exposes rhs()."""

    system: str = ""
    variant: str = ""

    def __init__(self):
        self.params = ParamSet()
        self._constrained: dict[str, ConstrainedParam] = {}

    def _register(self, cp: ConstrainedParam) -> ConstrainedParam:
        self._constrained[cp.name] = cp
        if cp.trainable:
            self.params.add(cp.name, cp.raw)
        return cp

    def param_values(self) -> dict[str, float]:
        return {name: cp.item() for name, cp in self._constrained.items()}

    def raw_params(self) -> dict[str, Tensor]:
        """Pre-softplus leaves for all parameters, trainable or frozen."""
        return {name: cp.raw for name, cp in self._constrained.items()}

    def set_param_values(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self._constrained[name].set(value)

    def rhs(self, x: Tensor) -> Tensor:
        raise NotImplementedError


class PendulumDynamics(PhysicalFamily):
    """Pendulum rhs ``(v, -omega0^2 sin(u) [- alpha v])`` on (B, 2) states."""

    system = "pendulum"

    def __init__(self, damped: bool, init: dict | None = None, trainable: bool = True,
                 floors: dict | None = None):
        super().__init__()
        init = init or {}
        floors = {**PENDULUM_FLOORS, **(floors or {})}
        self.damped = damped
        self.variant = "omega0_alpha" if damped else "omega0"
        self._w2 = self._register(ConstrainedParam(
            "omega0_sq", floors["omega0_sq"], init.get("omega0_sq"), trainable))
        self._alpha = None
        if damped:
            self._alpha = self._register(ConstrainedParam(
                "alpha", floors["alpha"], init.get("alpha"), trainable))

    def rhs(self, x: Tensor) -> Tensor:
        u = dc.narrow(x, 1, 0, 1)
        v = dc.narrow(x, 1, 1, 1)
        accel = dc.smul(-1.0, dc.mul(self._w2.tensor(), dc.sin(u)))
        if self._alpha is not None:
            accel = dc.sub(accel, dc.mul(self._alpha.tensor(), v))
        return dc.concat([v, accel], 1)


class ReactionDiffusionDynamics(PhysicalFamily):
    """FitzHugh-Nagumo rhs on (B, 2, H, W) states with periodic boundaries."""

    system = "reacdiff"
    bc = "periodic"

    def __init__(self, include_reaction: bool, dx: float, init: dict | None = None,
                 trainable: bool = True, floors: dict | None = None):
        super().__init__()
        init = init or {}
        floors = {**REACDIFF_FLOORS, **(floors or {})}
        self.include_reaction = include_reaction
        self.variant = "abk" if include_reaction else "ab"
        self.dx = float(dx)
        self._a = self._register(ConstrainedParam("a", floors["a"], init.get("a"), trainable))
        self._b = self._register(ConstrainedParam("b", floors["b"], init.get("b"), trainable))
        self._k = None
        if include_reaction:
            self._k = self._register(ConstrainedParam("k", floors["k"], init.get("k"), trainable))

    def rhs(self, x: Tensor) -> Tensor:
        u = dc.narrow(x, 1, 0, 1)
        v = dc.narrow(x, 1, 1, 1)
        du = dc.mul(self._a.tensor(), laplacian(u, self.bc, self.dx))
        dv = dc.mul(self._b.tensor(), laplacian(v, self.bc, self.dx))
        if self._k is not None:
            # R_u = u - u^3 - k - v;  R_v = u - v
            u3 = dc.mul(dc.square(u), u)
            ru = dc.sub(dc.sub(dc.sub(u, u3), self._k.tensor()), v)
            du = dc.add(du, ru)
            dv = dc.add(dv, dc.sub(u, v))
        return dc.concat([du, dv], 1)


class DampedWaveDynamics(PhysicalFamily):
    """Damped-wave rhs ``(v, c^2 lap(w) [- k v])`` with zero-Neumann boundaries."""

    system = "wave"
    bc = "neumann_zero"

    def __init__(self, damped: bool, dx: float = 1.0, init: dict | None = None,
                 trainable: bool = True, floors: dict | None = None):
        super().__init__()
        init = init or {}
        floors = {**WAVE_FLOORS, **(floors or {})}
        self.damped = damped
        self.variant = "ck" if damped else "c"
        self.dx = float(dx)
        self._c = self._register(ConstrainedParam("c", floors["c"], init.get("c"), trainable))
        self._k = None
        if damped:
            self._k = self._register(ConstrainedParam("k", floors["k"], init.get("k"), trainable))

    def rhs(self, x: Tensor) -> Tensor:
        w = dc.narrow(x, 1, 0, 1)
        v = dc.narrow(x, 1, 1, 1)
        accel = dc.mul(dc.square(self._c.tensor()), laplacian(w, self.bc, self.dx))
        if self._k is not None:
            accel = dc.sub(accel, dc.mul(self._k.tensor(), v))
        return dc.concat([v, accel], 1)


def make_family(system: str, variant: str, *, dx: float | None = None,
                init: dict | None = None, trainable: bool = True) -> PhysicalFamily:
    """Construct a family by (system, variant) name, as used by configs."""
    if system == "pendulum":
        if variant == "omega0":
            return PendulumDynamics(damped=False, init=init, trainable=trainable)
        if variant == "omega0_alpha":
            return PendulumDynamics(damped=True, init=init, trainable=trainable)
    elif system == "reacdiff":
        if dx is None:
            raise ValueError("reacdiff families need dx")
        if variant == "ab":
            return ReactionDiffusionDynamics(False, dx, init=init, trainable=trainable)
        if variant == "abk":
            return ReactionDiffusionDynamics(True, dx, init=init, trainable=trainable)
    elif system == "wave":
        if variant == "c":
            return DampedWaveDynamics(False, dx=dx or 1.0, init=init, trainable=trainable)
        if variant == "ck":
            return DampedWaveDynamics(True, dx=dx or 1.0, init=init, trainable=trainable)
    raise ValueError(f"unknown physical family {system!r}/{variant!r}")


class SingularProjectionError(RuntimeError):
    """The normal matrix of a linear-family projection is singular."""


def _projection_parts(state: np.ndarray, family: str, dx: float, bc: str):
    """Offset term and per-parameter basis responses for a linear family."""
    u, v = state[0], state[1]
    if family == "reacdiff_diffusion_only":
        zero = np.zeros_like(u)
        basis = {
            "a": np.stack([laplacian_np(u, bc, dx), zero]),
            "b": np.stack([zero, laplacian_np(v, bc, dx)]),
        }
        offset = np.zeros_like(state)
    elif family == "wave_undamped_c_sq":
        zero = np.zeros_like(u)
        basis = {"c_sq": np.stack([zero, laplacian_np(u, bc, dx)])}
        offset = np.stack([v, zero])
    else:
        raise ValueError(f"unknown linear family {family!r}")
    return offset, basis


def project_linear_family(samples, family: str, *, dx: float = 1.0,
                          bc: str | None = None) -> dict[str, float]:
    """Closed-form least squares of (state, dX/dt target) pairs onto a family
    that is linear in its parameters.

    Solves the normal equations of ``min_p sum_i ||target_i - Fp_p(X_i)||^2``.
    This is the projection oracle the trajectory-based optimizer is checked
    against.  Supported families: ``reacdiff_diffusion_only`` (periodic) and
    ``wave_undamped_c_sq`` (zero-Neumann).
    """
    if not samples:
        raise ValueError("need at least one sample")
    if bc is None:
        bc = "periodic" if family == "reacdiff_diffusion_only" else "neumann_zero"
    names = None
    gram = None
    rhs = None
    for state, target in samples:
        state = np.asarray(state, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        offset, basis = _projection_parts(state, family, dx, bc)
        if names is None:
            names = list(basis)
            gram = np.zeros((len(names), len(names)))
            rhs = np.zeros(len(names))
        resid = target - offset
        for i, ni in enumerate(names):
            rhs[i] += np.sum(basis[ni] * resid)
            for j, nj in enumerate(names):
                gram[i, j] += np.sum(basis[ni] * basis[nj])
    try:
        sol = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularProjectionError("degenerate samples: singular normal matrix") from exc
    if np.linalg.cond(gram) > 1e12:
        raise SingularProjectionError("degenerate samples: ill-conditioned normal matrix")
    return dict(zip(names, sol))
