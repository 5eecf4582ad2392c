"""Metric names, BENCHMARK.json agreement, and the correctness gates."""

import copy
import json
import math
import re
from pathlib import Path

import pytest

import results
from workloads import (HELD_OUT_SEED, LOG_MSE_TOL, REFERENCE_SEEDS, WORKLOADS, check_repeat,
                       input_seed, outputs_signature)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    names = list(results.END_TO_END) + list(results.PER_LAYER) + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    units = list(results.END_TO_END.values()) + [u for u, _ in results.PER_LAYER.values()]
    for unit in units:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == results.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == results.PER_LAYER
    for metric in spec["end_to_end"]:
        assert metric["better"] == "lower" and 0 < metric["bound"] <= 0.25


def test_value_builders_cover_exactly_the_declared_metrics():
    child = {"stamps": {"setup": 1.0, "generate": 2.0, "train": 4.0, "evaluate": 5.0},
             "maxrss_kb": 2048, "outputs": {"horizon": 10}}
    assert set(results.end_to_end(0.5, 6.0, child, 4)) == set(results.END_TO_END)
    assert results.end_to_end(0.5, 6.0, child, 4)["step_s"] == 0.5
    forecast = dict(child, stamps={"setup": 1.0, "generate": 2.0, "evaluate": 7.0})
    assert results.end_to_end(0.5, 8.0, forecast, 0)["step_s"] == 0.5
    layers = {"spans": {"cli": {"self_s": 0.1, "total_s": 2.0, "calls": 3}}, "counts": {}}
    derived = results.per_layer(layers, 2.0)
    run_level = {"trace_overhead_frac", "failed_op_share"}
    assert set(derived) == set(results.PER_LAYER) - run_level
    assert derived["coarse_self_frac"] == pytest.approx(0.05)


SEED = 3
REFERENCE = {"pendulum-train": {str(SEED): {"log_mse": -0.5}, "4": {"log_mse": -0.3}}}


def good_output():
    return {"exit_codes": [0, 0, 0], "n_commands": 3, "diverged": False, "total_steps": 20,
            "train_losses": [0.5, 0.4, 0.35, 0.3], "fa_norms": [9.0, 12.0, 11.0, 10.0],
            "params": {"omega0_sq": 0.9},
            "floors": {"omega0_sq": 1e-4, "alpha": 1e-4}, "log_mse": -0.5, "excluded": 0,
            "blow_ups": 0, "n_test": 25, "horizon": 40}


def gate(out, seed=SEED):
    return check_repeat(WORKLOADS["pendulum-train"], out, REFERENCE, seed)


def test_good_output_passes_every_gate():
    assert all(gate(good_output()).values())


CORRUPTIONS = {
    "commands_ok": [("exit_codes", [0, 3]), ("exit_codes", [0, 0, 4])],
    "not_diverged": [("diverged", True), ("diverged", None)],
    "steps_equal_budget": [("total_steps", 19), ("total_steps", None)],
    "loss_or_residual_fell": [("train_losses", [0.5, 0.6]), ("train_losses", [0.5, math.nan]),
                              ("train_losses", [0.5]), ("train_losses", [])],
    "params_above_floors": [("params", {"omega0_sq": 1e-4}), ("params", {"omega0_sq": math.nan}),
                            ("params", {"beta": 1.0}), ("params", {})],
    "log_mse_matches_reference": [("log_mse", -0.5 + 10 * LOG_MSE_TOL), ("log_mse", math.nan),
                                  ("log_mse", "nan"), ("log_mse", None)],
}


@pytest.mark.parametrize("check,key,value", [
    (check, key, value) for check, cases in CORRUPTIONS.items() for key, value in cases])
def test_each_gate_fails_on_a_corrupted_output(check, key, value):
    out = good_output()
    out[key] = value
    checks = gate(out)
    assert not checks[check]
    assert all(ok for name, ok in checks.items() if name != check)


def test_a_rising_loss_passes_only_while_the_residual_norm_falls():
    out = good_output()
    out["train_losses"] = [0.032, 0.037]
    out["fa_norms"] = [7189.0, 5505.0]
    assert gate(out)["loss_or_residual_fell"]
    out["fa_norms"] = [7189.0, 7190.0]
    assert not gate(out)["loss_or_residual_fell"]
    out["fa_norms"] = [7189.0, math.nan]
    assert not gate(out)["loss_or_residual_fell"]


def test_every_run_seed_maps_to_a_recorded_input_seed():
    assert input_seed(5) == 5 and input_seed(REFERENCE_SEEDS + 5) == 5 and input_seed(-1) == 31
    assert input_seed(HELD_OUT_SEED) == HELD_OUT_SEED
    assert not gate(good_output(), seed=99)["log_mse_matches_reference"]


def test_forecast_workload_has_no_training_gates():
    out = good_output()
    checks = check_repeat(WORKLOADS["wave-forecast"], out, {"wave-forecast": REFERENCE["pendulum-train"]}, SEED)
    assert set(checks) == {"commands_ok", "params_above_floors", "log_mse_matches_reference"}


def test_repeat_signature_sees_any_output_change():
    a, b = good_output(), copy.deepcopy(good_output())
    assert outputs_signature(a) == outputs_signature(b)
    b["train_losses"][-1] += 1e-15
    assert outputs_signature(a) != outputs_signature(b)


def test_references_cover_every_workload_and_the_held_out_seed():
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
    held_out = str(refs["held_out_seed"])
    assert refs["held_out_seed"] == HELD_OUT_SEED
    for name in WORKLOADS:
        assert set(refs[name]) == {str(s) for s in range(REFERENCE_SEEDS)} | {held_out}
        assert all(math.isfinite(r["log_mse"]) for r in refs[name].values())
