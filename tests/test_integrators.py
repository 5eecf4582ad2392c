import numpy as np
import pytest
from scipy.integrate import solve_ivp

import aphynity.diffcore as dc
from aphynity.diffcore import Tensor, backward
from aphynity.integrators import (
    BlowUpError, StepUnderflowError,
    dopri5, euler_fine, integrate, rk4_step,
)

DECAY = lambda x: -x
ZERO = lambda x: 0.0 * x


def test_rk4_null_dynamics_keeps_state():
    x = np.array([1.0, -2.0, 3.5])
    np.testing.assert_array_equal(rk4_step(ZERO, x, 0.5), x)


def test_rk4_decay_single_step_matches_quartic_taylor():
    out = rk4_step(DECAY, np.array(1.0), 0.1)
    assert out == pytest.approx(0.90483750, abs=1e-8)
    assert abs(out - np.exp(-0.1)) < 1e-7


def test_rk4_harmonic_oscillator_long_run():
    f = lambda x: np.array([x[1], -x[0]])
    x = np.array([1.0, 0.0])
    for _ in range(1000):
        x = rk4_step(f, x, 0.01)
    np.testing.assert_allclose(x, [np.cos(10.0), -np.sin(10.0)], atol=1e-6)


def test_rk4_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        rk4_step(DECAY, np.array(1.0), 0.0)


def test_rk4_signals_blow_up():
    f = lambda x: x * x  # finite-time blow-up
    x = np.array(1e150)
    with np.errstate(over="ignore"), pytest.raises(BlowUpError):
        rk4_step(f, x, 10.0)


def test_integrate_constant_trajectory():
    states = integrate(ZERO, np.array([2.0, -1.0]), 7, 0.3)
    assert len(states) == 8
    for s in states:
        np.testing.assert_array_equal(s, [2.0, -1.0])


def test_integrate_linear_decay_endpoint():
    states = integrate(DECAY, np.array(1.0), 10, 0.1)
    assert abs(states[-1] - np.exp(-1.0)) < 1e-6


def test_integrate_gradient_is_rk4_growth_polynomial():
    # one RK4 step of dX/dt = -X: d(final)/d(X0) is the quartic stability poly
    expected = 1.0 - 0.1 + 0.005 - 1.0 / 6.0 * 0.1**3 + 1.0 / 24.0 * 0.1**4
    x0 = Tensor(1.0, requires_grad=True)
    final = integrate(lambda x: -x, x0, 1, 0.1)[-1]
    backward(final)
    assert x0.grad == pytest.approx(expected, rel=1e-12)

    # central finite differences over the same rollout agree
    def rollout(v):
        return integrate(DECAY, np.array(v), 1, 0.1)[-1]

    fd = (rollout(1.0 + 1e-6) - rollout(1.0 - 1e-6)) / 2e-6
    assert x0.grad == pytest.approx(fd, rel=1e-8)


def test_integrate_gradient_flows_through_parameters():
    # d/da of 10-step rollout of dX/dt = a*X matches finite differences
    a = Tensor(-0.8, requires_grad=True)

    def run_tensor():
        f = lambda x: dc.mul(a, x)
        return integrate(f, Tensor(1.0), 10, 0.1)[-1]

    root = run_tensor()
    a.zero_grad()
    backward(root)

    def run_np(av):
        f = lambda x: av * x
        return float(integrate(f, np.array(1.0), 10, 0.1)[-1])

    fd = (run_np(-0.8 + 1e-6) - run_np(-0.8 - 1e-6)) / 2e-6
    assert a.grad == pytest.approx(fd, rel=1e-7)


def test_rk4_empirical_order():
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for dt in dts:
        final = integrate(DECAY, np.array(1.0), round(1.0 / dt), dt)[-1]
        errs.append(abs(float(final) - np.exp(-1.0)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 3.8 <= slope <= 4.2


def test_rk4_reversibility_error_scales_as_dt5():
    f = lambda x: np.array([x[1], -0.27 * np.sin(x[0])])
    g = lambda x: -f(x)
    x0 = np.array([1.2, 0.3])

    def roundtrip_error(dt):
        fwd = rk4_step(f, x0, dt)
        back = rk4_step(g, fwd, dt)
        return np.max(np.abs(back - x0))

    e_coarse, e_fine = roundtrip_error(0.4), roundtrip_error(0.2)
    assert e_coarse < 1e-4
    assert 16.0 < e_coarse / e_fine < 64.0  # ~2^5


def test_dopri5_decay_high_accuracy():
    out = dopri5(DECAY, np.array(1.0), np.linspace(0.0, 1.0, 11))
    np.testing.assert_allclose(out[:, ...], np.exp(-np.linspace(0, 1, 11)), atol=1e-8)


def test_dopri5_constant():
    out = dopri5(ZERO, np.array([4.0, 5.0]), np.array([0.0, 1.0, 2.5]))
    np.testing.assert_array_equal(out, np.broadcast_to([4.0, 5.0], (3, 2)))


def test_dopri5_small_angle_pendulum_period():
    w0 = 2.0 * np.pi / 12.0
    f = lambda x: np.array([x[1], -w0**2 * np.sin(x[0])])
    t = np.linspace(0.0, 18.0, 3601)
    theta = dopri5(f, np.array([0.01, 0.0]), t)[:, 0]
    # period from successive downward zero crossings of theta
    down = np.nonzero((theta[:-1] > 0) & (theta[1:] <= 0))[0]
    cross = [t[i] + (t[i + 1] - t[i]) * theta[i] / (theta[i] - theta[i + 1]) for i in down[:2]]
    period = cross[1] - cross[0]
    assert abs(period - 12.0) / 12.0 < 1e-3


def test_dopri5_dense_output_against_scipy():
    f = lambda x: np.array([x[1], -0.5 * np.sin(x[0]) - 0.2 * x[1]])
    t = np.linspace(0.0, 10.0, 57)  # off-step sample times
    ours = dopri5(f, np.array([1.3, -0.4]), t)
    ref = solve_ivp(lambda _, y: f(y), (0, 10), [1.3, -0.4],
                    method="RK45", t_eval=t, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(ours, ref.y.T, atol=5e-8)


def test_dopri5_validates_grid():
    with pytest.raises(ValueError):
        dopri5(DECAY, np.array(1.0), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        dopri5(DECAY, np.array(1.0), np.array([0.0, 1.0, 1.0]))


def test_dopri5_step_underflow_on_finite_time_blowup():
    f = lambda x: x * x  # explodes at t = 1
    with pytest.raises(StepUnderflowError):
        dopri5(f, np.array(1.0), np.array([0.0, 2.0]))


def _pendulum_rows(x):
    return np.stack([x[..., 1], -0.27 * np.sin(x[..., 0]) - 0.2 * x[..., 1]], axis=-1)


def _random_pendulum_starts(n):
    rng = np.random.default_rng(41)
    return np.stack([rng.uniform(-np.pi / 2, np.pi / 2, n), rng.uniform(-1.0, 1.0, n)], axis=1)


def test_dopri5_batched_rows_match_solo_runs_bitwise():
    x0 = _random_pendulum_starts(25)
    t = 0.5 * np.arange(41)
    batch = dopri5(_pendulum_rows, x0, t)
    assert batch.shape == (41, 25, 2)
    for i in range(len(x0)):
        alone = dopri5(_pendulum_rows, x0[i:i + 1], t)[:, 0]
        single = dopri5(_pendulum_rows, x0[i], t)
        assert batch[:, i].tobytes() == alone.tobytes()
        assert batch[:, i].tobytes() == single.tobytes()


def test_dopri5_row_permutation_permutes_output():
    x0 = _random_pendulum_starts(25)
    t = 0.5 * np.arange(41)
    perm = np.random.default_rng(5).permutation(len(x0))
    batch = dopri5(_pendulum_rows, x0, t)
    permuted = dopri5(_pendulum_rows, x0[perm], t)
    assert permuted.tobytes() == batch[:, perm].tobytes()


def test_dopri5_batched_dense_output_against_scipy():
    # rows differ in damping, so each row's step control takes its own path
    alphas = np.array([0.0, 0.2, 1.0, 3.0])
    x0 = np.array([[1.3, -0.4], [0.2, 1.5], [-1.0, 0.0], [1.5, 2.0]])

    def f(x):
        return np.stack([x[:, 1], -0.5 * np.sin(x[:, 0]) - alphas * x[:, 1]], axis=1)

    t = np.linspace(0.0, 10.0, 57)  # off-step sample times
    ours = dopri5(f, x0, t)
    for i, alpha in enumerate(alphas):
        ref = solve_ivp(lambda _, y: [y[1], -0.5 * np.sin(y[0]) - alpha * y[1]],
                        (0, 10), x0[i], method="RK45", t_eval=t, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ours[:, i], ref.y.T, atol=5e-8)


def test_dopri5_step_underflow_in_one_row_raises():
    f = lambda x: x * x  # row 1 explodes at t = 1, row 0 not before t = 10
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepUnderflowError, match="row 1"):
        dopri5(f, np.array([[0.1], [1.0]]), np.array([0.0, 2.0]))


def test_dopri5_exhausted_step_budget_raises():
    with pytest.raises(StepUnderflowError, match="step budget"):
        dopri5(_pendulum_rows, _random_pendulum_starts(3), np.array([0.0, 20.0]),
               max_steps=5)


def test_euler_fine_constant_and_subsampling():
    out = euler_fine(ZERO, np.array([1.5]), 1e-3, 1000, 100)
    assert out.shape == (11, 1)
    np.testing.assert_array_equal(out, np.full((11, 1), 1.5))


def test_euler_fine_decay_first_order_accuracy():
    out = euler_fine(DECAY, np.array(1.0), 1e-3, 1000, 1000)
    assert abs(out[-1] - np.exp(-1.0)) < 1e-3


def test_euler_fine_requires_divisibility():
    with pytest.raises(ValueError):
        euler_fine(ZERO, np.array(1.0), 1e-3, 1000, 300)


@pytest.mark.parametrize("n,keep_every", [(-100, 100), (100, 0), (0, -1)])
def test_euler_fine_rejects_a_negative_step_count_or_keep_every_below_one(n, keep_every):
    with pytest.raises(ValueError, match="need n >= 0 and keep_every >= 1"):
        euler_fine(ZERO, np.array(1.0), 1e-3, n, keep_every)


def test_euler_fine_periodic_diffusion_conserves_mass():
    rng = np.random.default_rng(3)
    u0 = rng.random((8, 8))

    def diffusion(u):
        lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0)
               + np.roll(u, 1, 1) + np.roll(u, -1, 1) - 4 * u)
        return 0.05 * lap

    out = euler_fine(diffusion, u0, 1e-3, 2000, 100)
    masses = out.sum(axis=(1, 2))
    assert np.max(np.abs(masses - masses[0]) / abs(masses[0])) < 1e-10
