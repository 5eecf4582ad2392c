import numpy as np
import pytest

import aphynity.diffcore as dc
from aphynity.diffcore import Tensor, backward
from aphynity.integrators import rk4_step
from aphynity.physics import (
    ConstrainedParam, DampedWaveDynamics, PendulumDynamics,
    ReactionDiffusionDynamics, laplacian, laplacian_np, make_family, softplus_inverse,
)

from helpers import SingularProjectionError, gradcheck, project_linear_family


def pendulum(damped, **init):
    return make_family("pendulum", "omega0_alpha" if damped else "omega0", init=init)


def test_pendulum_equilibrium():
    fam = pendulum(True, omega0_sq=0.7, alpha=0.3)
    out = fam.rhs(Tensor([[0.0, 0.0]])).values
    np.testing.assert_array_equal(out, [[0.0, 0.0]])


def test_pendulum_right_angle_no_damping():
    fam = pendulum(False, omega0_sq=1.0)
    out = fam.rhs(Tensor([[np.pi / 2, 0.0]])).values
    np.testing.assert_allclose(out, [[0.0, -1.0]], atol=1e-15)


def test_pendulum_damping_term():
    fam = pendulum(True, omega0_sq=1.0, alpha=0.2)
    out = fam.rhs(Tensor([[0.0, 2.0]])).values
    np.testing.assert_allclose(out, [[2.0, -0.4]], rtol=1e-12)


def test_pendulum_gradcheck():
    fam = pendulum(True, omega0_sq=0.5, alpha=0.15)
    x = Tensor(np.array([[0.4, -0.6], [1.0, 0.3]]), requires_grad=True)
    leaves = [x] + fam.params.tensors()

    def build():
        return dc.sum_all(dc.square(fam.rhs(x)))

    assert gradcheck(build, leaves) < 1e-4


@pytest.mark.parametrize("bc", ["periodic", "neumann_zero"])
def test_laplacian_constant_field_is_zero(bc):
    field = np.full((6, 7), 2.25)
    np.testing.assert_array_equal(laplacian_np(field, bc, 0.5), np.zeros((6, 7)))
    out = laplacian(Tensor(field), bc, 0.5)
    np.testing.assert_array_equal(out.values, np.zeros((6, 7)))


def test_laplacian_delta_periodic():
    field = np.zeros((5, 5))
    field[2, 2] = 1.0
    out = laplacian_np(field, "periodic", 1.0)
    expected = np.zeros((5, 5))
    expected[2, 2] = -4.0
    expected[1, 2] = expected[3, 2] = expected[2, 1] = expected[2, 3] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_laplacian_quadratic_interior():
    x = np.arange(7, dtype=float)
    field = np.tile(x * x, (6, 1))
    out = laplacian_np(field, "neumann_zero", 1.0)
    np.testing.assert_allclose(out[:, 1:-1], 2.0, rtol=1e-13)


def test_laplacian_tensor_matches_numpy_paths():
    rng = np.random.default_rng(5)
    field = rng.standard_normal((2, 2, 6, 6))
    for bc in ("periodic", "neumann_zero"):
        dense = laplacian(Tensor(field), bc, 0.3).values
        direct = laplacian_np(field, bc, 0.3)
        np.testing.assert_allclose(dense, direct, atol=1e-12)


def test_laplacian_periodic_conserves_mass():
    rng = np.random.default_rng(9)
    field = rng.standard_normal((16, 16))
    total = laplacian_np(field, "periodic", 1.0).sum()
    assert abs(total) < 1e-10 * field.size


def test_laplacian_4th_order_is_more_accurate_on_smooth_field():
    n = 64
    xs = np.linspace(0, 2 * np.pi, n, endpoint=False)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    field = np.sin(xx) * np.cos(yy)
    exact = -2.0 * field
    dx = xs[1] - xs[0]
    e2 = np.max(np.abs(laplacian_np(field, "periodic", dx, order=2) - exact))
    e4 = np.max(np.abs(laplacian_np(field, "periodic", dx, order=4) - exact))
    assert e4 < e2 / 50


def test_reacdiff_uniform_zero_state_reaction_only():
    fam = ReactionDiffusionDynamics("abk", init={"a": 1e-3, "b": 5e-3, "k": 5e-3}, dx=1.0)
    x = Tensor(np.zeros((1, 2, 8, 8)))
    out = fam.rhs(x).values
    np.testing.assert_allclose(out[0, 0], -0.005, rtol=1e-12)
    np.testing.assert_allclose(out[0, 1], 0.0, atol=1e-15)


def test_reacdiff_uniform_field_diffusion_only_is_zero():
    fam = ReactionDiffusionDynamics("ab", init={"a": 2.0, "b": 3.0}, dx=1.0)
    x = Tensor(np.full((1, 2, 6, 6), 0.8))
    np.testing.assert_allclose(fam.rhs(x).values, 0.0, atol=1e-14)


def test_reacdiff_reaction_formula():
    k = 5e-3
    fam = ReactionDiffusionDynamics("abk", init={"a": 1e-3, "b": 5e-3, "k": k}, dx=1.0)
    x = np.zeros((1, 2, 6, 6))
    x[0, 0] = 1.0  # u = 1, v = 0, uniform so diffusion vanishes
    out = fam.rhs(Tensor(x)).values
    np.testing.assert_allclose(out[0, 0], 1.0 - 1.0 - k - 0.0, rtol=1e-12)
    np.testing.assert_allclose(out[0, 1], 1.0, rtol=1e-12)


def test_reacdiff_gradcheck():
    rng = np.random.default_rng(21)
    fam = ReactionDiffusionDynamics("abk", init={"a": 0.01, "b": 0.02, "k": 0.005}, dx=0.5)
    x = Tensor(rng.random((2, 2, 4, 4)), requires_grad=True)
    leaves = [x] + fam.params.tensors()

    def build():
        return dc.sum_all(dc.square(fam.rhs(x)))

    assert gradcheck(build, leaves) < 1e-4


def test_wave_static_flat_field():
    fam = DampedWaveDynamics("ck", init={"c": 2.0, "k": 50.0}, dx=1.0)
    x = np.zeros((1, 2, 5, 5))
    x[0, 0] = 3.0
    np.testing.assert_allclose(fam.rhs(Tensor(x)).values, 0.0, atol=1e-12)


def test_wave_damping_of_uniform_velocity():
    fam = DampedWaveDynamics("ck", init={"c": 2.0, "k": 50.0}, dx=1.0)
    x = np.zeros((1, 2, 5, 5))
    x[0, 1] = 0.7
    out = fam.rhs(Tensor(x)).values
    np.testing.assert_allclose(out[0, 0], 0.7, rtol=1e-12)
    np.testing.assert_allclose(out[0, 1], -50.0 * 0.7, rtol=1e-10)


def test_wave_reduces_to_laplacian():
    fam = DampedWaveDynamics("c", init={"c": 1.0 + 1e-9}, dx=1.0)
    bump = np.zeros((1, 2, 7, 7))
    bump[0, 0, 3, 3] = 1.0
    out = fam.rhs(Tensor(bump)).values
    np.testing.assert_allclose(out[0, 1], laplacian_np(bump[0, 0], "neumann_zero", 1.0),
                               rtol=1e-8, atol=1e-8)


def test_wave_gradcheck():
    rng = np.random.default_rng(33)
    fam = DampedWaveDynamics("ck", init={"c": 1.5, "k": 2.0}, dx=1.0)
    x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    leaves = [x] + fam.params.tensors()

    def build():
        return dc.sum_all(dc.square(fam.rhs(x)))

    assert gradcheck(build, leaves) < 1e-4


def test_constrained_param_above_floor():
    for raw in (-10.0, 0.0, 10.0):
        cp = ConstrainedParam("p", 1e-4)
        cp.raw.values = np.asarray(raw)
        assert cp.item() > 1e-4


def test_constrained_param_inverse_roundtrip():
    for target in (1e-3, 0.274, 42.0):
        cp = ConstrainedParam("p", 1e-4, init=target)
        assert cp.item() == pytest.approx(target, abs=1e-10)


def test_constrained_param_raw_value_example():
    cp = ConstrainedParam("a", 1e-4, init=1e-3)
    assert float(cp.raw.values) == pytest.approx(softplus_inverse(9e-4), rel=1e-12)


def test_constrained_param_rejects_value_at_floor():
    with pytest.raises(ValueError):
        ConstrainedParam("p", 1e-2, init=1e-2)


def test_softplus_inverse_extremes():
    for y in (1e-9, 1.0, 50.0, 500.0):
        assert np.logaddexp(0.0, softplus_inverse(y)) == pytest.approx(y, rel=1e-12)


def test_projection_recovers_exact_diffusion_pair():
    rng = np.random.default_rng(41)
    samples = []
    for _ in range(4):
        state = rng.random((2, 8, 8))
        target = np.stack([2.0 * laplacian_np(state[0], "periodic", 1.0),
                           3.0 * laplacian_np(state[1], "periodic", 1.0)])
        samples.append((state, target))
    sol = project_linear_family(samples, "reacdiff_diffusion_only", dx=1.0)
    assert sol["a"] == pytest.approx(2.0, abs=1e-12)
    assert sol["b"] == pytest.approx(3.0, abs=1e-12)


def test_projection_ignores_orthogonal_residual():
    rng = np.random.default_rng(43)
    samples = []
    for _ in range(3):
        state = rng.random((2, 8, 8))
        lap_u = laplacian_np(state[0], "periodic", 1.0)
        lap_v = laplacian_np(state[1], "periodic", 1.0)
        r = rng.standard_normal(lap_u.shape)
        r -= lap_u * (np.sum(r * lap_u) / np.sum(lap_u * lap_u))
        samples.append((state, np.stack([2.0 * lap_u + r, 3.0 * lap_v])))
    sol = project_linear_family(samples, "reacdiff_diffusion_only", dx=1.0)
    assert sol["a"] == pytest.approx(2.0, abs=1e-10)


def test_projection_matches_gradient_descent_minimizer():
    rng = np.random.default_rng(47)
    samples = []
    for _ in range(3):
        state = rng.random((2, 8, 8))
        samples.append((state, rng.standard_normal((2, 8, 8))))
    sol = project_linear_family(samples, "reacdiff_diffusion_only", dx=1.0)

    # independent gradient descent on the same quadratic, backtracking step
    lap = [(laplacian_np(s[0], "periodic", 1.0), laplacian_np(s[1], "periodic", 1.0))
           for s, _ in samples]

    def loss(a, b):
        return sum(np.sum((t[0] - a * lu) ** 2) + np.sum((t[1] - b * lv) ** 2)
                   for (lu, lv), (_, t) in zip(lap, samples))

    a = b = 0.0
    lr = 1e-4
    for _ in range(20000):
        ga = sum(-2.0 * np.sum(lu * (t[0] - a * lu)) for (lu, _), (_, t) in zip(lap, samples))
        gb = sum(-2.0 * np.sum(lv * (t[1] - b * lv)) for (_, lv), (_, t) in zip(lap, samples))
        while loss(a - lr * ga, b - lr * gb) > loss(a, b) and lr > 1e-12:
            lr *= 0.5
        a, b = a - lr * ga, b - lr * gb
        if abs(lr * ga) < 1e-13 and abs(lr * gb) < 1e-13:
            break
    assert sol["a"] == pytest.approx(a, abs=1e-6)
    assert sol["b"] == pytest.approx(b, abs=1e-6)


def test_projection_wave_family_with_fixed_offset():
    rng = np.random.default_rng(53)
    samples = []
    for _ in range(3):
        state = rng.random((2, 10, 10))
        target = np.stack([state[1], 4.0 * laplacian_np(state[0], "neumann_zero", 1.0)])
        samples.append((state, target))
    sol = project_linear_family(samples, "wave_undamped_c_sq", dx=1.0)
    assert sol["c_sq"] == pytest.approx(4.0, abs=1e-10)


def test_projection_degenerate_samples_error():
    state = np.full((2, 6, 6), 1.3)  # constant field: laplacian basis vanishes
    with pytest.raises(SingularProjectionError):
        project_linear_family([(state, np.zeros((2, 6, 6)))],
                              "reacdiff_diffusion_only", dx=1.0)


def test_projection_requires_samples():
    with pytest.raises(ValueError):
        project_linear_family([], "reacdiff_diffusion_only")


def test_exact_fit_residual_reproduces_true_derivatives():
    # residual forced by the constraint is F - Fp; adding it back to Fp must
    # reproduce dX/dt at every visited state
    rng = np.random.default_rng(59)
    truth = pendulum(True, omega0_sq=0.274, alpha=0.2)
    partial = pendulum(False, omega0_sq=0.4)
    states = rng.uniform(-1.5, 1.5, size=(40, 2))
    with dc.no_grad():
        f_true = truth.rhs(Tensor(states)).values
        f_partial = partial.rhs(Tensor(states)).values
    residual = f_true - f_partial
    np.testing.assert_allclose(f_partial + residual, f_true, rtol=1e-14, atol=1e-15)


def test_linearized_pendulum_residual_fixture():
    # trajectory theta(t) = theta0 e^{-t} cos t solves theta'' + 2 theta' + 2 theta = 0,
    # i.e. F(u, v) = (v, -2(u + v)).  Against the linear family (u, v) -> (v, -a u)
    # the constraint-satisfying residual is (0, (a - 2) u - 2 v).
    theta0 = 1.3
    ts = np.linspace(0.0, 4.0, 25)
    u = theta0 * np.exp(-ts) * np.cos(ts)
    v = theta0 * np.exp(-ts) * (-np.cos(ts) - np.sin(ts))
    f_true = np.stack([v, -2.0 * (u + v)], axis=1)
    for a in (1.0, 2.0, 3.5):
        fp = np.stack([v, -a * u], axis=1)
        residual = f_true - fp
        expected = np.stack([np.zeros_like(u), (a - 2.0) * u - 2.0 * v], axis=1)
        np.testing.assert_allclose(residual, expected, atol=1e-12)


def test_frictionless_energy_drift_under_rk4_at_data_resolution():
    # RK4's linear-stability magnitude is 1 - (w0*dt)^6/72 per step, so at
    # dt=0.5 with w0=2*pi/12 the energy decays ~4.5e-6 per step; over 40
    # steps the drift sits near 1.3e-4 -- small, but bounded by the scheme,
    # not by float precision.
    w2 = (2.0 * np.pi / 12.0) ** 2
    fam = pendulum(False, omega0_sq=w2)

    def energy(x):
        return 0.5 * x[0, 1] ** 2 + w2 * (1.0 - np.cos(x[0, 0]))

    with dc.no_grad():
        x = Tensor(np.array([[np.pi / 3, 0.0]]))
        e0 = energy(x.values)
        worst = 0.0
        for _ in range(40):
            x = rk4_step(fam.rhs, x, 0.5)
            worst = max(worst, abs(energy(x.values) - e0) / e0)
    theory = 40.0 * (np.sqrt(w2) * 0.5) ** 6 / 72.0
    assert worst < 2.0 * theory
    assert worst < 2.5e-4


def test_make_family_rejects_unknown():
    with pytest.raises(ValueError):
        make_family("pendulum", "full")
    with pytest.raises(ValueError, match="dx"):
        make_family("reacdiff", "ab")


def test_frozen_family_has_no_trainable_params():
    fam = make_family("pendulum", "omega0_alpha",
                      init={"omega0_sq": 0.274, "alpha": 0.2}, trainable=False)
    assert len(fam.params) == 0
    assert fam.param_values()["alpha"] == pytest.approx(0.2, abs=1e-12)
