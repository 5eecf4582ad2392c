import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aphynity
import aphynity.diffcore as dc
from aphynity import datagen
from aphynity.augments import ConvNetAugmentation, ConvNetSpec, MlpAugmentation, MlpSpec
from aphynity.datagen import Dataset, gen_pendulum, gen_wave, load_dataset, save_dataset
from aphynity.diffcore import Tensor
from aphynity.integrators import integrate
from aphynity.metrics import (
    MetricsRecord, evaluate, load_metrics_rows, param_error_pct, reported_params,
    squared_errors, write_metrics_csv, write_metrics_json,
)
from aphynity.models import AugmentedDynamics
from aphynity.physics import make_family

from helpers import field_model_and_data, peak_bytes


def forecast(model, ds):
    """The model's whole rollout of ``ds``, stacked as (N, T+1, ...)."""
    with dc.no_grad():
        states = integrate(model.rhs, Tensor(ds.trajectories[:, 0]), ds.n_steps, ds.dt)
    return np.stack([s.values for s in states], axis=1)


def with_trajectories(ds, trajectories):
    return dataclasses.replace(ds, trajectories=trajectories)


def test_evaluate_matches_independent_arithmetic_over_the_horizon():
    model, ds = field_model_and_data(n_traj=3, n_steps=6)
    pred = forecast(model, ds)
    expected = np.log10(np.mean((pred[:, 1:5] - ds.trajectories[:, 1:5]) ** 2))
    assert evaluate(model, ds, horizon=4).log_mse == pytest.approx(expected, rel=1e-12)


def test_evaluate_scores_a_perfect_forecast_as_minus_infinity():
    model, ds = field_model_and_data(n_traj=2, n_steps=3)
    assert evaluate(model, with_trajectories(ds, forecast(model, ds)), 3).log_mse == \
        float("-inf")


def test_evaluate_moves_one_decade_per_tenfold_squared_error():
    model, ds = field_model_and_data(n_traj=2, n_steps=4)
    pred = forecast(model, ds)
    diff = 1e-4 * np.random.default_rng(2).standard_normal(pred.shape)
    diff[:, 0] = 0
    small = evaluate(model, with_trajectories(ds, pred + diff), 3).log_mse
    big = evaluate(model, with_trajectories(ds, pred + np.sqrt(10.0) * diff), 3).log_mse
    assert small == pytest.approx(np.log10(np.mean(diff[:, 1:4] ** 2)), abs=1e-9)
    assert big == pytest.approx(small + 1.0, abs=1e-9)


@pytest.mark.parametrize("horizon", [0, 5])
def test_evaluate_rejects_a_horizon_outside_the_trajectory(horizon):
    model, ds = field_model_and_data(n_traj=1, n_steps=4)
    with pytest.raises(ValueError, match="outside 1..4"):
        evaluate(model, ds, horizon)


def test_batched_and_one_by_one_scoring_agree_bit_for_bit():
    # with no batch norm in the model, a trajectory's forecast and its
    # squared-error sum do not depend on the batch it is scored in
    model, ds = field_model_and_data(n_traj=4, n_steps=5)
    batched = squared_errors(model, ds, 4)
    alone = [squared_errors(model, ds, 4, rows=slice(i, i + 1))[0] for i in range(4)]
    assert np.array_equal(batched, alone)


def test_evaluate_memory_does_not_grow_with_trajectory_length():
    # a rollout that stacks the forecast and squares its error in full grows
    # by several copies of the forecast from T=5 to T=40
    peaks = []
    for n_steps in (5, 40):
        model, ds = field_model_and_data(n_traj=4, n_steps=n_steps, grid=32)
        peak, _ = peak_bytes(lambda: evaluate(model, ds, horizon=n_steps))
        peaks.append(peak)
    state_batch = ds.trajectories[:, 0].nbytes
    assert abs(peaks[1] - peaks[0]) < state_batch


def pendulum_split_and_model():
    test = gen_pendulum({"test": 5}, steps=12, sigma_test=0.01, seed=11)["test"]
    fam = make_family("pendulum", "omega0", init={"omega0_sq": 0.3})
    return test, AugmentedDynamics(fam, MlpAugmentation(MlpSpec(hidden=8, depth=1), seed=12))


def wave_split_and_model():
    # batch norm in the residual: a trajectory's forecast depends on its batch
    test = gen_wave({"test": 3}, grid=16, n_steps=6, seed=13)["test"]
    fam = make_family("wave", "c", init={"c": 300.0})
    return test, AugmentedDynamics(fam, ConvNetAugmentation(ConvNetSpec(padding="zero"), seed=14))


@pytest.mark.parametrize("block_bytes", [8, datagen._BLOCK_BYTES], ids=["one_step", "default"])
@pytest.mark.parametrize("blow_up", [False, True], ids=["batch", "one_by_one"])
@pytest.mark.parametrize("make", [pendulum_split_and_model, wave_split_and_model],
                         ids=["vector", "field"])
def test_a_split_on_disk_scores_as_the_same_split_in_memory(
        tmp_path, monkeypatch, make, blow_up, block_bytes):
    monkeypatch.setattr(datagen, "_BLOCK_BYTES", block_bytes)
    test, model = make()
    if blow_up:  # overflows in the first RK4 step, so the retry reads rows from disk
        test.trajectories[1, 0].flat[0] = 1e308
    save_dataset(test, tmp_path / "test")
    stored = load_dataset(tmp_path / "test")
    horizon = test.n_steps - 2
    with np.errstate(all="ignore"):
        in_memory = evaluate(model, test, horizon)
        on_disk = evaluate(model, stored, horizon)
    assert "trajectories" not in vars(stored)  # scored without reading it whole
    assert on_disk.excluded_trajectories == in_memory.excluded_trajectories == int(blow_up)
    assert on_disk.to_json_dict() == in_memory.to_json_dict()
    assert np.isfinite(on_disk.log_mse)
    assert np.array_equal(squared_errors(model, stored, horizon, rows=slice(0, 1)),
                          squared_errors(model, test, horizon, rows=slice(0, 1)))


def stored_field_split(path, n_traj, n_steps):
    model, ds = field_model_and_data(n_traj=n_traj, n_steps=n_steps)
    save_dataset(ds, path)
    return model


def test_scoring_a_split_on_disk_holds_one_block_whatever_its_length(tmp_path, monkeypatch):
    # loading the split whole would grow the peak by the 4 x 20 added states
    model = stored_field_split(tmp_path / "short", n_traj=4, n_steps=20)
    stored_field_split(tmp_path / "long", n_traj=4, n_steps=40)
    block = 2 * 4 * 2 * 16 * 16 * 8  # two time steps of the four trajectories
    monkeypatch.setattr(datagen, "_BLOCK_BYTES", block)
    peaks = {}
    for name in ("short", "long"):
        peaks[name], _ = peak_bytes(lambda: evaluate(model, load_dataset(tmp_path / name),
                                                     horizon=20))
    assert peaks["long"] - peaks["short"] < block


def test_load_dataset_holds_no_array_the_size_of_its_payload(tmp_path):
    stored_field_split(tmp_path / "d", n_traj=8, n_steps=40)
    payload = (tmp_path / "d" / "data.bin").stat().st_size
    header = (tmp_path / "d" / "meta.json").stat().st_size
    assert payload > datagen._BLOCK_BYTES
    peak, ds = peak_bytes(lambda: load_dataset(tmp_path / "d"))
    assert peak < datagen._BLOCK_BYTES + header
    assert (ds.n_traj, ds.n_steps, ds.state_shape) == (8, 40, (2, 16, 16))


def test_metrics_does_not_import_training():
    # training scores its epochs through metrics, so the import runs one way
    src = Path(aphynity.__file__).parent.parent
    code = "import sys, aphynity.metrics; print('aphynity.training' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_param_error_examples():
    errors, avg = param_error_pct({"a": 0.97e-3}, {"a": 1.0e-3})
    assert errors["a"] == pytest.approx(3.0, abs=1e-9)
    assert avg == pytest.approx(3.0, abs=1e-9)

    errors, avg = param_error_pct({"a": 5.0}, {"a": 5.0})
    assert avg == 0.0

    _, avg = param_error_pct({"a": 1.02, "b": 0.96}, {"a": 1.0, "b": 1.0})
    assert avg == pytest.approx(3.0, abs=1e-9)


def test_param_error_scale_invariance():
    est, true = {"a": 1.3}, {"a": 1.7}
    _, avg1 = param_error_pct(est, true)
    _, avg2 = param_error_pct({"a": 13.0}, {"a": 17.0})
    assert avg1 == pytest.approx(avg2, rel=1e-12)


def test_param_error_zero_reference_rejected():
    with pytest.raises(ValueError):
        param_error_pct({"a": 1.0}, {"a": 0.0})


def test_reported_params_maps_pulsation_to_period():
    out = reported_params({"omega0_sq": (2 * np.pi / 12.0) ** 2, "alpha": 0.2})
    assert out["t0_period"] == pytest.approx(12.0, rel=1e-12)
    assert "omega0_sq" not in out
    assert out["alpha"] == 0.2


def test_evaluate_true_model_on_noiseless_data():
    test = gen_pendulum({"test": 5}, steps=40, sigma_test=0.0, seed=3)["test"]
    fam = make_family("pendulum", "omega0_alpha",
                      init={"omega0_sq": test.true_params["omega0_sq"],
                            "alpha": test.true_params["alpha"]}, trainable=False)
    model = AugmentedDynamics(fam, None)
    rec = evaluate(model, test, horizon=40)
    # same equation, different integration scheme than generation: the floor
    # is the RK4-vs-adaptive mismatch at dt=0.5, measured at about -8.7
    assert rec.log_mse < -8.0
    assert rec.fa_norm_sq is None and rec.fa_norm_source is None
    assert rec.param_err_pct == {}  # frozen params are not estimates


def test_evaluate_reports_param_errors_for_trained_physics():
    test = gen_pendulum({"test": 3}, steps=10, sigma_test=0.0, seed=4)["test"]
    fam = make_family("pendulum", "omega0_alpha",
                      init={"omega0_sq": test.true_params["omega0_sq"] * 1.1,
                            "alpha": 0.2})
    model = AugmentedDynamics(fam, None)
    rec = evaluate(model, test, horizon=10)
    # 10% high in omega0^2 is ~4.65% low in period
    assert rec.param_err_pct["t0_period"] == pytest.approx(
        100 * abs(1 / np.sqrt(1.1) - 1), rel=1e-6)
    assert rec.param_err_pct["alpha"] == pytest.approx(0.0, abs=1e-9)
    assert rec.param_err_avg_pct == pytest.approx(
        (rec.param_err_pct["t0_period"] + rec.param_err_pct["alpha"]) / 2)


def test_evaluate_fa_norm_sources():
    test = gen_pendulum({"test": 3}, steps=8, sigma_test=0.0, seed=5)["test"]
    train = gen_pendulum({"train": 4}, steps=8, sigma=0.0, seed=5)["train"]
    mlp = MlpAugmentation(MlpSpec(hidden=8, depth=1), seed=6)
    model = AugmentedDynamics(None, mlp)
    with_train = evaluate(model, test, horizon=8, train=train)
    assert with_train.fa_norm_source == "train_states"
    assert with_train.fa_norm_sq > 0
    from_ckpt = evaluate(model, test, horizon=8, fa_norm_sq=1.25)
    assert from_ckpt.fa_norm_source == "checkpoint"
    assert from_ckpt.fa_norm_sq == 1.25
    bare = evaluate(model, test, horizon=8)
    assert bare.fa_norm_sq is None


def test_evaluate_is_deterministic():
    test = gen_pendulum({"test": 4}, steps=10, sigma_test=0.01, seed=7)["test"]
    fam = make_family("pendulum", "omega0", init={"omega0_sq": 0.3})
    model = AugmentedDynamics(fam, MlpAugmentation(MlpSpec(hidden=8, depth=1), seed=8))
    a = evaluate(model, test, horizon=10, run_id="x")
    b = evaluate(model, test, horizon=10, run_id="x")
    assert a == b


def test_evaluate_excludes_diverging_trajectories():
    import aphynity.diffcore as dc
    from aphynity.diffcore import ParamSet

    class Unstable:
        system = "toy"
        variant = "a"

        def __init__(self):
            self.params = ParamSet()
            self._a = self.params.add("a", np.asarray(1e11))

        def rhs(self, x):
            return dc.mul(self._a, x)

        def param_values(self):
            return {"a": float(self._a.values)}

        def raw_params(self):
            return {"a": self._a}

    states = np.ones((2, 9, 1))
    states[0, 0, 0] = 1e-200  # survives the explosive growth; the other overflows
    ds = Dataset(system="toy", split="test", dt=0.2,
                 trajectories=states, true_params={"a": 1.0}, noise_sigma=0.0, seed=0)
    model = AugmentedDynamics(Unstable(), None)
    with np.errstate(all="ignore"):
        rec = evaluate(model, ds, horizon=8)
    assert rec.excluded_trajectories == 1
    assert np.isfinite(rec.log_mse)
    # the score is the survivor's alone, as if it had been the whole test set
    survivor = evaluate(model, with_trajectories(ds, states[:1]), horizon=8)
    assert survivor.excluded_trajectories == 0
    assert rec.log_mse == survivor.log_mse


def test_csv_and_json_round_trip(tmp_path):
    rec = MetricsRecord(
        run_id="r1", system="pendulum", method="pendulum:omega0+mlp",
        physics="pendulum:omega0", augmentation="mlp", mode="aphynity", seed=3,
        horizon=40, log_mse=-7.25, param_err_pct={"t0_period": 4.0},
        param_err_avg_pct=4.0, fa_norm_sq=132.0, fa_norm_source="train_states")
    none_rec = MetricsRecord(
        run_id="r2", system="pendulum", method="pendulum:omega0",
        physics="pendulum:omega0", augmentation=None, mode="vanilla", seed=3,
        horizon=40, log_mse=float("-inf"))
    write_metrics_csv([rec, none_rec], tmp_path / "m.csv")
    rows = load_metrics_rows(tmp_path / "m.csv")
    assert rows[0]["log_mse"] == "-7.25"
    assert rows[0]["fa_norm_sq"] == "132.0"
    assert rows[1]["fa_norm_sq"] == "n/a"
    assert rows[1]["log_mse"] == "-inf"
    assert rows[1]["augmentation"] == "n/a"

    write_metrics_json([rec, none_rec], tmp_path / "m.json")
    import json
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload[0]["log_mse"] == -7.25
    assert payload[1]["log_mse"] == "-inf"


def test_csv_output_is_byte_stable(tmp_path):
    rec = MetricsRecord(
        run_id="r", system="pendulum", method="m", physics=None, augmentation=None,
        mode="vanilla", seed=0, horizon=10, log_mse=-1.234567890123456)
    write_metrics_csv([rec], tmp_path / "a.csv")
    write_metrics_csv([rec], tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
