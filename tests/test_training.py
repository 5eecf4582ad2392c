import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import aphynity.diffcore as dc
from aphynity.augments import MlpAugmentation, MlpSpec
from aphynity.datagen import Dataset, gen_pendulum
from aphynity.diffcore import ParamSet, Tensor, backward
from aphynity.integrators import StateSpec, integrate
from aphynity.models import AugmentedDynamics
from aphynity.physics import make_family
from aphynity.training import (
    TrainConfig, augmentation_norm_sq, derivative_loss, fit, trajectory_loss,
)


class ScalarLinearFamily:
    """Test family dX/dt = a * X with an unconstrained scalar parameter."""

    system = "toy"
    variant = "a"

    def __init__(self, a0: float):
        self.params = ParamSet()
        self._a = self.params.add("a", np.asarray(a0))

    def rhs(self, x):
        return dc.mul(self._a, x)

    def param_values(self):
        return {"a": float(self._a.values)}

    def raw_params(self):
        return {"a": self._a}


def scalar_dataset(a_true=-0.7, n_traj=6, steps=8, dt=0.2, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.5, 2.0, size=(n_traj, 1))
    t = dt * np.arange(steps + 1)
    states = x0[:, None, :] * np.exp(a_true * t)[None, :, None]
    return Dataset(system="toy", split="train", spec=StateSpec("vector", (1,)),
                   dt=dt, trajectories=states, true_params={"a": a_true},
                   noise_sigma=0.0, seed=seed)


def small_pendulum_data(alpha=0.2, sigma=0.0, seed=0, split="train", n_traj=8, steps=20):
    return gen_pendulum(n_traj=n_traj, steps=steps, alpha=alpha, sigma=sigma,
                        seed=seed, split=split)


def test_trajectory_loss_zero_for_identical():
    truth = np.random.default_rng(0).standard_normal((3, 5, 2))
    pred = [Tensor(truth[:, k]) for k in range(5)]
    assert trajectory_loss(pred, truth).item() == 0.0


def test_trajectory_loss_unit_example():
    # shared X0, two predicted steps at 1 vs truth at 0 -> mean of squares is 1
    truth = np.zeros((1, 3, 1))
    truth[0, 0, 0] = 5.0
    pred = [Tensor(truth[:, 0]), Tensor([[1.0]]), Tensor([[1.0]])]
    assert trajectory_loss(pred, truth).item() == pytest.approx(1.0)


def test_trajectory_loss_matches_independent_arithmetic():
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((4, 6, 3))
    pred_np = rng.standard_normal((4, 6, 3))
    pred_np[:, 0] = truth[:, 0]
    pred = [Tensor(pred_np[:, k]) for k in range(6)]
    expected = np.mean((pred_np[:, 1:] - truth[:, 1:]) ** 2)
    assert trajectory_loss(pred, truth).item() == pytest.approx(expected, rel=1e-12)


def test_trajectory_loss_length_mismatch():
    truth = np.zeros((1, 4, 1))
    with pytest.raises(ValueError):
        trajectory_loss([Tensor(truth[:, 0])] * 3, truth)


def test_augmentation_norm_examples():
    zero_mlp = MlpAugmentation(MlpSpec(hidden=4, depth=1), seed=0)
    for _, t in zero_mlp.params.items():
        t.values = np.zeros_like(t.values)
    states = np.random.default_rng(2).standard_normal((7, 2))
    assert augmentation_norm_sq(zero_mlp, states).item() == 0.0

    fixed = lambda x: Tensor(np.array([[3.0, 4.0]]))
    assert augmentation_norm_sq(fixed, np.zeros((1, 2))).item() == pytest.approx(25.0)

    two = lambda x: Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert augmentation_norm_sq(two, np.zeros((2, 2))).item() == pytest.approx(5.0)


def test_lambda_trace_follows_multiplier_arithmetic():
    data = scalar_dataset()
    model = AugmentedDynamics(ScalarLinearFamily(-0.3),
                              MlpAugmentation(MlpSpec(in_dim=1, hidden=8, depth=1,
                                                      out_dim=1), seed=3))
    cfg = TrainConfig(mode="aphynity", n_epochs=4, tau1=1e-3, tau2=10.0,
                      lambda0=1.0, optimizer="adam", patience=None, lambda_eval="full")
    report = fit(model, data, cfg)
    lams = [r.lam for r in report.records]
    losses = [r.train_loss for r in report.records]
    assert lams[0] == 1.0
    for j in range(len(lams) - 1):
        assert lams[j + 1] == pytest.approx(lams[j] + 10.0 * losses[j], rel=1e-12)
    assert report.final_lambda == pytest.approx(lams[-1] + 10.0 * losses[-1], rel=1e-12)


def test_lambda_strictly_increases_while_constraint_unmet():
    data = scalar_dataset()
    model = AugmentedDynamics(ScalarLinearFamily(-0.2), None)
    cfg = TrainConfig(mode="aphynity", n_epochs=5, tau1=1e-4, tau2=5.0,
                      lambda0=0.0, optimizer="sgd", patience=None)
    report = fit(model, data, cfg)
    lams = [r.lam for r in report.records] + [report.final_lambda]
    assert all(b > a for a, b in zip(lams[:-1], lams[1:]))


def test_quadratic_toy_fit_matches_scan_oracle():
    data = scalar_dataset(a_true=-0.7)
    model = AugmentedDynamics(ScalarLinearFamily(-0.2), None)
    cfg = TrainConfig(mode="vanilla", n_epochs=400, tau1=0.5, optimizer="sgd",
                      patience=None)
    report = fit(model, data, cfg)
    fitted = report.final_params["a"]

    # independent 1-d scan of the same rollout loss, no autodiff involved
    def rollout_loss(a):
        f = lambda x: a * x
        pred = integrate(f, data.trajectories[:, 0], data.n_steps, data.dt)
        pred = np.stack(pred, axis=1)
        return float(np.mean((pred[:, 1:] - data.trajectories[:, 1:]) ** 2))

    oracle = minimize_scalar(rollout_loss, bounds=(-1.2, -0.2), method="bounded",
                             options={"xatol": 1e-12})
    assert fitted == pytest.approx(oracle.x, abs=1e-4)


def test_gradient_of_combined_loss_is_linear_combination():
    data = small_pendulum_data()
    lam = 7.5

    def build_model():
        fam = make_family("pendulum", "omega0", init={"omega0_sq": 0.3})
        mlp = MlpAugmentation(MlpSpec(hidden=16, depth=2), seed=5)
        return AugmentedDynamics(fam, mlp)

    batch = data.trajectories

    def grads_of(loss_fn):
        model = build_model()
        model.params.zero_grad()
        backward(loss_fn(model))
        return model, {n: t.grad.copy() for n, t in model.params.items()}

    def traj_part(model):
        pred = integrate(model.rhs, Tensor(batch[:, 0]), data.n_steps, data.dt)
        return trajectory_loss(pred, batch)

    def norm_part(model):
        return augmentation_norm_sq(model.augmentation, data.all_states())

    _, g_traj = grads_of(traj_part)
    _, g_norm = grads_of(norm_part)
    _, g_both = grads_of(lambda m: dc.add(dc.smul(lam, traj_part(m)), norm_part(m)))
    for name in g_both:
        np.testing.assert_allclose(g_both[name], lam * g_traj[name] + g_norm[name],
                                   rtol=1e-9, atol=1e-11)


def test_non_adaptive_first_epoch_matches_aphynity_at_unit_lambda():
    data = small_pendulum_data()

    def run(mode):
        fam = make_family("pendulum", "omega0", init={"omega0_sq": 0.3})
        mlp = MlpAugmentation(MlpSpec(hidden=16, depth=2), seed=6)
        model = AugmentedDynamics(fam, mlp)
        cfg = TrainConfig(mode=mode, n_epochs=1, tau1=1e-3, tau2=10.0, lambda0=1.0,
                          optimizer="sgd", patience=None)
        fit(model, data, cfg)
        return model.params.state()

    a = run("aphynity")
    b = run("non_adaptive")
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])


def test_fit_is_deterministic_given_seed():
    data = scalar_dataset()

    def run():
        model = AugmentedDynamics(
            ScalarLinearFamily(-0.3),
            MlpAugmentation(MlpSpec(in_dim=1, hidden=8, depth=1, out_dim=1), seed=7))
        cfg = TrainConfig(mode="aphynity", n_epochs=5, batch_size=2, tau1=1e-3,
                          tau2=10.0, optimizer="adam", seed=123, patience=None)
        return fit(model, data, cfg).core_dict()

    assert run() == run()


def test_derivative_loss_matches_manual_computation():
    data = scalar_dataset()
    model = AugmentedDynamics(ScalarLinearFamily(-0.4), None)
    got = derivative_loss(model, data.trajectories, data.dt).item()
    states = data.trajectories[:, :-1]
    targets = np.diff(data.trajectories, axis=1) / data.dt
    expected = np.mean((-0.4 * states - targets) ** 2)
    assert got == pytest.approx(expected, rel=1e-12)


def test_divergence_is_flagged_not_raised():
    # growth rate chosen so the rollout stays finite (~1e159) but the squared
    # loss overflows to inf on the very first batch
    data = scalar_dataset()
    model = AugmentedDynamics(ScalarLinearFamily(1e6), None)
    cfg = TrainConfig(mode="vanilla", n_epochs=5, tau1=1e-6, optimizer="sgd",
                      patience=None)
    with np.errstate(all="ignore"):
        report = fit(model, data, cfg)
    assert report.diverged
    assert any(e["kind"] == "divergence" for e in report.events)
    assert report.total_steps == 0


def test_blow_up_batches_are_skipped_and_logged():
    # growth rate high enough that the state overflows inside the rollout
    data = scalar_dataset()
    model = AugmentedDynamics(ScalarLinearFamily(1e12), None)
    cfg = TrainConfig(mode="vanilla", n_epochs=2, tau1=1e-6, optimizer="sgd",
                      patience=None)
    with np.errstate(all="ignore"):
        report = fit(model, data, cfg)
    assert any(e["kind"] == "blow_up" for e in report.events)
    assert report.total_steps == 0
    assert not report.diverged


def test_early_stopping_restores_best_parameters():
    data = scalar_dataset(seed=1)
    valid = scalar_dataset(seed=2)
    model = AugmentedDynamics(ScalarLinearFamily(-0.1), None)
    cfg = TrainConfig(mode="vanilla", n_epochs=500, tau1=0.5, optimizer="sgd",
                      patience=10)
    report = fit(model, data, cfg, valid=valid)
    assert report.best_epoch is not None
    assert len(report.records) < 500  # converged and ran out of patience
    best = min(report.records, key=lambda r: r.valid_loss)
    assert report.best_epoch == best.epoch


def test_max_steps_caps_updates():
    data = scalar_dataset()
    model = AugmentedDynamics(ScalarLinearFamily(-0.1), None)
    cfg = TrainConfig(mode="vanilla", n_epochs=100, batch_size=2, tau1=0.1,
                      optimizer="sgd", patience=None, max_steps=7)
    report = fit(model, data, cfg)
    assert report.total_steps == 7


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="fancy")
    with pytest.raises(ValueError):
        TrainConfig(tau1=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lambda0=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="lbfgs")


def test_report_serialization_roundtrip(tmp_path):
    data = scalar_dataset()
    model = AugmentedDynamics(ScalarLinearFamily(-0.3), None)
    cfg = TrainConfig(mode="vanilla", n_epochs=3, tau1=0.1, optimizer="sgd",
                      patience=None)
    report = fit(model, data, cfg)
    report.save(tmp_path)
    lines = (tmp_path / "report.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    import json
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["epochs_run"] == 3
    assert summary["final_params"]["a"] == pytest.approx(report.final_params["a"])


def test_complete_family_nullifies_residual_on_noiseless_in_family_data():
    # data generated by the damped family itself: the residual trained next to
    # the complete family must shrink far below the one next to the
    # frictionless family on the same data and seeds
    data = small_pendulum_data(alpha=0.2, sigma=0.0, seed=11, n_traj=8, steps=20)
    valid = small_pendulum_data(alpha=0.2, sigma=0.0, seed=11, split="valid",
                                n_traj=4, steps=20)

    def run(variant):
        fam = make_family("pendulum", variant,
                          init={"omega0_sq": 0.5, "alpha": 0.1}
                          if variant == "omega0_alpha" else {"omega0_sq": 0.5})
        mlp = MlpAugmentation(MlpSpec(hidden=32, depth=2), seed=13)
        model = AugmentedDynamics(fam, mlp)
        cfg = TrainConfig(mode="aphynity", n_epochs=300, n_iter=5, tau1=1e-2,
                          tau2=100.0, lambda0=1.0, optimizer="adam", seed=13,
                          patience=None)
        report = fit(model, data, cfg, valid=valid)
        assert not report.diverged
        return report.final_fa_norm_sq

    complete = run("omega0_alpha")
    incomplete = run("omega0")
    assert complete <= 1e-2 * incomplete
