"""Shared test oracles.

The finite-difference gradient here is the independent reference for every
gradcheck: it only ever calls the forward path, so it cannot inherit a bug
from the backward implementation it is checking.
"""

import numpy as np

from aphynity.diffcore import Tensor, backward


def finite_difference_gradient(fn, tensors, h=1e-6):
    """Central-difference d fn / d t for each tensor, perturbing raw values.

    ``fn`` maps the current tensor values to a scalar float and must not
    depend on any gradient machinery.  The step is scaled per coordinate so
    large parameter values do not lose all significant digits.
    """
    grads = []
    for t in tensors:
        vals = t.values
        g = np.zeros_like(vals)
        flat = vals.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            fplus = fn()
            flat[i] = orig - step
            fminus = fn()
            flat[i] = orig
            gflat[i] = (fplus - fminus) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck(build, tensors, h=1e-6, floor=None):
    """Compare reverse-mode gradients of ``build()`` against central differences.

    ``build`` constructs and returns a fresh scalar output tensor from the
    current values of ``tensors``.  Returns the worst relative error over all
    coordinates of all tensors.  The error floor scales with the dominant
    gradient magnitude so that coordinates whose true gradient is zero (e.g.
    parameters the output is exactly invariant to) are judged against the
    finite-difference noise floor instead of their own vanishing size.
    """
    root = build()
    for t in tensors:
        t.zero_grad()
    backward(root)
    analytic = [t.grad.copy() for t in tensors]
    numeric = finite_difference_gradient(lambda: float(build().values), tensors, h=h)
    if floor is None:
        scale = max(
            max(np.max(np.abs(a)), np.max(np.abs(n))) for a, n in zip(analytic, numeric)
        )
        floor = max(1e-6, 1e-4 * scale)
    return max(
        max_relative_error(a, n, floor=floor) for a, n in zip(analytic, numeric)
    )


def make_tensor(rng, shape, scale=1.0, requires_grad=True):
    return Tensor(scale * rng.standard_normal(shape), requires_grad=requires_grad)


def conv2d_direct(x, k, padding):
    """Shape-preserving 3x3 convolution as an explicit sum over taps.

    ``out[b, o, i, j] = sum_{c, di, dj} k[o, c, di, dj] * x[b, c, i + di - 1, j + dj - 1]``
    where out-of-grid reads are zero ("zero") or wrap around ("circular").
    """
    n, _, h, w = x.shape
    out = np.zeros((n, k.shape[0], h, w))
    for i in range(h):
        for j in range(w):
            for di in range(3):
                for dj in range(3):
                    si, sj = i + di - 1, j + dj - 1
                    if padding == "circular":
                        si, sj = si % h, sj % w
                    elif not (0 <= si < h and 0 <= sj < w):
                        continue
                    out[:, :, i, j] += x[:, :, si, sj] @ k[:, :, di, dj].T
    return out
