import numpy as np
import pytest
from scipy.integrate import solve_ivp

import aphynity.diffcore as dc
from aphynity.diffcore import Tensor, backward
from aphynity.integrators import (
    BlowUpError, StateSpec, StepUnderflowError,
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


def test_statespec_validation():
    assert StateSpec("vector", (2,)).length == 2
    assert StateSpec("field", (2, 8, 8)).length == 128
    with pytest.raises(ValueError):
        StateSpec("field", (8, 8))
    with pytest.raises(ValueError):
        StateSpec("matrix", (2, 2))
