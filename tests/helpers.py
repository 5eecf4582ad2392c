"""Shared test oracles.

The finite-difference gradient here is the independent reference for every
gradcheck: it only ever calls the forward path, so it cannot inherit a bug
from the backward implementation it is checking.  The least-squares
projection onto a linear physical family is the closed-form reference for
physical parameters.
"""

import contextlib
import gc
import tracemalloc

import numpy as np

from aphynity.datagen import Dataset
from aphynity.diffcore import Tensor, backward
from aphynity.models import AugmentedDynamics
from aphynity.physics import laplacian_np, make_family


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


def assert_adjoint(apply, apply_adjoint, x, y, rtol=1e-12):
    """Dot-product test of a linear map: ``<apply(x), y> == <x, apply_adjoint(y)>``.

    A VJP of a linear map is exact only if it passes this for every ``x`` and
    ``y``; random operands make a wrong adjoint fail with probability one.
    """
    np.testing.assert_allclose(np.sum(apply(x) * y), np.sum(x * apply_adjoint(y)), rtol=rtol)


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


def numpy_buffer_bytes():
    """Bytes of numpy array buffers allocated now, while ``tracemalloc`` traces.

    numpy reports its buffers to ``tracemalloc`` in a domain of their own;
    counting only that domain leaves out Python objects and the
    interpreter's free lists.
    """
    numpy_buffers = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    traces = tracemalloc.take_snapshot().filter_traces(numpy_buffers).traces
    return sum(trace.size for trace in traces)


@contextlib.contextmanager
def _traced_without_gc():
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        yield
    finally:
        if not tracing:
            tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()


def retained_bytes(fn):
    """Bytes of numpy array buffers that ``fn()`` leaves allocated while its
    result is still held.

    Returns ``(bytes, result)``.  The cyclic garbage collector is off during
    the call, so only reference counting frees memory: an array kept alive
    by a reference cycle counts as retained.
    """
    with _traced_without_gc():
        before = numpy_buffer_bytes()
        result = fn()
        retained = numpy_buffer_bytes() - before
    return retained, result


def peak_bytes(fn):
    """The most memory ``fn()`` has allocated at any one time, above what was
    allocated when it started: the ``tracemalloc`` peak companion of
    :func:`retained_bytes`, under the same rules.

    Returns ``(bytes, result)``.  The peak counts every traced allocation,
    numpy buffers and Python objects alike; the arrays a pass allocates
    dwarf the rest.
    """
    with _traced_without_gc():
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    return peak, result


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
    It is a closed-form reference for the parameters the trajectory-based
    optimizer should recover.  Supported families:
    ``reacdiff_diffusion_only`` (periodic) and ``wave_undamped_c_sq``
    (zero-Neumann).
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


def field_model_and_data(n_traj, n_steps, grid=16, seed=0):
    """A frozen physics-only reaction-diffusion model and random fields.

    With no batch norm in the model, each trajectory's forecast is the same
    whatever batch it is rolled out in."""
    fam = make_family("reacdiff", "abk", dx=1.0, init={"a": 0.1, "b": 0.2, "k": 0.01},
                      trainable=False)
    fields = np.random.default_rng(seed).uniform(size=(n_traj, n_steps + 1, 2, grid, grid))
    ds = Dataset(system="reacdiff", split="test", dt=0.05, trajectories=fields,
                 true_params={"a": 0.1}, noise_sigma=0.0, seed=seed,
                 grid={"dx": 1.0, "bc": "periodic"})
    return AugmentedDynamics(fam, None), ds
