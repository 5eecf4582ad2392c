"""Time integration.

Two worlds live here.  ``rk4_step``/``integrate`` are the fixed-step solvers
used for training and forecasting: they work on either numpy arrays or
autodiff tensors (the arithmetic is polymorphic) so gradients can flow
through the whole unrolled rollout.  ``dopri5`` and ``euler_fine`` are
non-differentiable numpy-only simulators reserved for ground-truth data
generation, deliberately different schemes than the training solver.
"""

from __future__ import annotations

import numpy as np

from .diffcore import Tensor

__all__ = [
    "BlowUpError", "StepUnderflowError",
    "rk4_step", "integrate", "dopri5", "euler_fine",
]


class BlowUpError(RuntimeError):
    """A state stopped being finite mid-rollout."""


class StepUnderflowError(RuntimeError):
    """Adaptive step control shrank the step below the representable minimum."""


def _raw(x):
    return x.values if isinstance(x, Tensor) else np.asarray(x)


def rk4_step(f, x, dt: float):
    """One classical Runge-Kutta step.  Polymorphic over arrays and tensors."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    k1 = f(x)
    k2 = f(x + (dt / 2.0) * k1)
    k3 = f(x + (dt / 2.0) * k2)
    k4 = f(x + dt * k3)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(_raw(out))):
        raise BlowUpError(f"non-finite state after RK4 step of dt={dt}")
    return out


def integrate(f, x0, n_steps: int, dt: float) -> list:
    """Unrolled fixed-step RK4 rollout: returns [x0, x_dt, ..., x_{n dt}].

    The output states are whatever ``x0``'s world is (tensors stay tensors,
    so gradients reach every step).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    states = [x0]
    x = x0
    for _ in range(n_steps):
        x = rk4_step(f, x, dt)
        states.append(x)
    return states


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)

_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
# quartic dense-output weights (stage combination for the interpolant tail)
_DP_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
])


def _dp_step(f, y, h):
    k = [f(y)]
    for i in range(1, 7):
        yi = y + h * sum(a * kk for a, kk in zip(_DP_A[i], k))
        k.append(f(yi))
    y5 = y + h * sum(b * kk for b, kk in zip(_DP_B5, k) if b != 0.0)
    err = h * sum((b5 - b4) * kk for b5, b4, kk in zip(_DP_B5, _DP_B4, k))
    return y5, err, k


def _dp_interp(y_old, y_new, k, h, theta):
    ydiff = y_new - y_old
    bspl = h * k[0] - ydiff
    r4 = ydiff - h * k[6] - bspl
    r5 = h * sum(d * kk for d, kk in zip(_DP_D, k) if d != 0.0)
    return y_old + theta * (ydiff + (1 - theta) * (bspl + theta * (r4 + (1 - theta) * r5)))


def dopri5(f, x0, t_grid, rtol: float = 1e-8, atol: float = 1e-10,
           max_steps: int = 1_000_000) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) with PI step control and dense output.

    ``t_grid`` must be strictly increasing and start at 0.  Returns the states
    at the grid times, shape ``(len(t_grid), *x0.shape)``.  Simulation only:
    no gradients flow through this.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.ndim != 1 or t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    y = np.array(x0, dtype=np.float64)
    out = np.empty((t_grid.size, *y.shape))
    out[0] = y
    next_i = 1
    if t_grid.size == 1:
        return out

    t_end = float(t_grid[-1])
    t = 0.0
    # conservative initial step from the first derivative's magnitude
    f0 = f(y)
    scale0 = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale0) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale0) ** 2))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h = min(h, t_end)

    err_prev = 1e-4
    for _ in range(max_steps):
        if t >= t_end:
            break
        h = min(h, t_end - t)
        if h < 16 * np.finfo(np.float64).eps * max(abs(t), 1.0):
            raise StepUnderflowError(f"step size underflow at t={t}")
        y_new, err_vec, k = _dp_step(f, y, h)
        if not np.all(np.isfinite(y_new)):
            h *= 0.25
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t_new = t + h
            while next_i < t_grid.size and t_grid[next_i] <= t_new + 1e-14 * max(1.0, t_new):
                theta = (t_grid[next_i] - t) / h
                out[next_i] = y_new if theta >= 1.0 else _dp_interp(y, y_new, k, h, theta)
                next_i += 1
            t, y = t_new, y_new
            factor = 0.9 * err ** -0.17 * err_prev ** 0.04 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
            err_prev = max(err, 1e-10)
        else:
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
    else:
        raise StepUnderflowError("dopri5 exceeded the step budget")
    return out


def euler_fine(f, x0, dt_sim: float, n: int, keep_every: int) -> np.ndarray:
    """Forward Euler at a fine step, subsampled every ``keep_every`` steps.

    Returns ``(n // keep_every + 1)`` states including ``x0``.
    """
    if n % keep_every != 0:
        raise ValueError("keep_every must divide n")
    x = np.array(x0, dtype=np.float64)
    out = np.empty((n // keep_every + 1, *x.shape))
    out[0] = x
    for step in range(1, n + 1):
        x = x + dt_sim * f(x)
        if step % keep_every == 0:
            if not np.all(np.isfinite(x)):
                raise BlowUpError(f"non-finite state at fine step {step}")
            out[step // keep_every] = x
    return out
