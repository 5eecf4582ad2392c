"""Time integration.

Two worlds live here.  ``rk4_step``/``integrate`` are the fixed-step solvers
used for training and forecasting: they work on either numpy arrays or
autodiff tensors (the arithmetic is polymorphic) so gradients can flow
through the whole unrolled rollout; ``rk4_step`` raises ``BlowUpError`` on a
non-finite state.  ``dopri5`` and ``euler_fine`` are non-differentiable
numpy-only simulators reserved for ground-truth data generation, deliberately
different schemes than the training solver; ``euler_fine`` stores non-finite
states as they are, for its caller to drop.
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

    An ``x0`` of rank >= 2 holds independent problems along its leading axis.
    They advance in lock-step: each iteration calls ``f`` once per stage on
    the whole batch, while every row keeps its own time, step size, error
    history and dense-output position, so a row's result is the same as if
    it were integrated alone.  An ``x0`` of rank 0 or 1 is one problem.
    ``max_steps`` bounds the lock-step iterations; exhausting it, or a live
    row's step underflowing, raises ``StepUnderflowError``.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.ndim != 1 or t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    y = np.array(x0, dtype=np.float64)
    if y.ndim <= 1:  # a batch of one row; a 0-d state is wrapped twice
        return dopri5(lambda yb: f(yb[0])[None], y[None], t_grid,
                      rtol, atol, max_steps)[:, 0]
    n = y.shape[0]
    out = np.empty((t_grid.size, *y.shape))
    out[0] = y
    if t_grid.size == 1:
        return out

    def rms(v):
        return np.sqrt(np.mean(v.reshape(n, -1) ** 2, axis=1))

    def per_row(v):
        return v.reshape(-1, *(1,) * (y.ndim - 1))

    t_end = float(t_grid[-1])
    t = np.zeros(n)
    next_i = np.ones(n, dtype=np.intp)
    # conservative initial step from the first derivative's magnitude
    scale0 = atol + rtol * np.abs(y)
    d0 = rms(y / scale0)
    d1 = rms(f(y) / scale0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where((d0 > 1e-5) & (d1 > 1e-5), 0.01 * d0 / d1, 1e-6)
    h = np.minimum(h, t_end)

    err_prev = np.full(n, 1e-4)
    for _ in range(max_steps):
        live = t < t_end
        if not live.any():
            break
        h = np.where(live, np.minimum(h, t_end - t), 0.0)
        under = live & (h < 16 * np.finfo(np.float64).eps * np.maximum(np.abs(t), 1.0))
        if under.any():
            row = int(np.flatnonzero(under)[0])
            raise StepUnderflowError(f"step size underflow in row {row} at t={t[row]}")
        y_new, err_vec, k = _dp_step(f, y, per_row(h))
        finite = np.isfinite(y_new.reshape(n, -1)).all(axis=1)
        # rows that are finished (h = 0) or non-finite are masked out below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = rms(err_vec / scale)
            accept = live & finite & (err <= 1.0)
            grow = np.clip(np.where(err > 0, 0.9 * err ** -0.17 * err_prev ** 0.04, 5.0),
                           0.2, 5.0)
            shrink = np.where(finite, np.clip(0.9 * err ** -0.2, 0.2, 1.0), 0.25)
        t_new = t + h
        while True:
            t_next = t_grid[np.minimum(next_i, t_grid.size - 1)]
            due = (accept & (next_i < t_grid.size)
                   & (t_next <= t_new + 1e-14 * np.maximum(1.0, t_new)))
            if not due.any():
                break
            r = np.flatnonzero(due)
            theta = per_row((t_grid[next_i[r]] - t[r]) / h[r])
            dense = _dp_interp(y[r], y_new[r], [kk[r] for kk in k], per_row(h[r]), theta)
            out[next_i[r], r] = np.where(theta >= 1.0, y_new[r], dense)
            next_i[r] += 1
        h = h * np.where(accept, grow, shrink)
        err_prev = np.where(accept, np.maximum(err, 1e-10), err_prev)
        t = np.where(accept, t_new, t)
        y = np.where(per_row(accept), y_new, y)
    else:
        raise StepUnderflowError("dopri5 exceeded the step budget")
    return out


def euler_fine(f, x0, dt_sim: float, n: int, keep_every: int,
               kept=lambda x: x) -> np.ndarray:
    """Forward Euler at a fine step, subsampled every ``keep_every`` steps.

    Returns ``(n // keep_every + 1)`` states including ``x0``, of which
    ``kept`` selects the part stored, finite or not.  The state is a copy of
    ``x0`` updated in place; ``f`` may write its ghost cells.
    """
    if n < 0 or keep_every < 1:
        raise ValueError(f"need n >= 0 and keep_every >= 1, got n={n}, keep_every={keep_every}")
    if n % keep_every != 0:
        raise ValueError("keep_every must divide n")
    x = np.array(x0, dtype=np.float64)
    out = np.empty((n // keep_every + 1, *kept(x).shape))
    out[0] = kept(x)
    buf = np.empty_like(x)
    for step in range(1, n + 1):
        x += np.multiply(f(x), dt_sim, out=buf)
        if step % keep_every == 0:
            out[step // keep_every] = kept(x)
    return out
