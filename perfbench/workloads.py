"""The benchmark's workloads, the configs it writes for them, and their correctness gates.

Each workload runs the real pipeline through ``aphynity.cli.main``.  Its config
is a copy of a shipped one with the overrides below, which fix a gradient-step
budget and size the run so that several fresh-process repeats fit in one
benchmark run.  Stdlib only: the parent process never imports the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

LOG_MSE_TOL = 1e-6       # |log10 MSE - reference| allowed
REFERENCE_SEEDS = 32     # input seeds 0..31 have recorded reference outputs
HELD_OUT_SEED = 104729   # also recorded; for checking a claim on an unused seed


def input_seed(seed: int) -> int:
    """The seed a run's inputs are made from: the held-out seed itself, else
    ``seed`` modulo ``REFERENCE_SEEDS``, so every run has an exact reference."""
    return seed if seed == HELD_OUT_SEED else seed % REFERENCE_SEEDS


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                  # shipped config under src/aphynity/configs
    overrides: dict = field(default_factory=dict)
    budget: int = 0              # gradient steps; 0 means the workload does not train

    @property
    def trains(self) -> bool:
        return self.budget > 0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pendulum-train",
        config="pendulum_omega0",
        # The shipped step size 1e-2 sends the first epochs' loss to 1e10-1e16
        # on some seeds, so no fixed budget gives a loss that reliably falls.
        # The reaction-diffusion step size 1e-3 runs the same ops and converges.
        overrides={"train": {"max_steps": 20, "tau1": 1e-3}},
        budget=20),
    Workload(
        name="reacdiff-train",
        config="reacdiff_ab",
        overrides={"dataset": {"grid": 16, "n_train": 16, "n_valid": 8, "n_test": 8,
                               "horizon": 1.0},
                   "train": {"batch_size": 8, "max_steps": 4}},
        budget=4),
    Workload(
        name="wave-forecast",
        config="wave_c",
        overrides={"dataset": {"n_train": 0, "n_valid": 0, "n_test": 4}}),
)}


def build_config(root: Path, workload: Workload) -> dict:
    """The shipped config with its downscale section dropped and the overrides merged."""
    cfg = json.loads((root / "src" / "aphynity" / "configs" / f"{workload.config}.json").read_text())
    cfg.pop("downscale", None)
    for section, values in workload.overrides.items():
        cfg.setdefault(section, {}).update(values)
    return cfg


def commands(workload: Workload, cfg_path: Path, work: Path, seed: int) -> list[list[str]]:
    """The CLI argument lists one repeat of the workload runs, in order."""
    data, model, out = work / "data", work / "model", work / "eval"
    cmds = [["generate", "--config", str(cfg_path), "--out", str(data), "--seed", str(seed)]]
    if workload.trains:
        cmds.append(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(model), "--seed", str(seed)])
        cmds.append(["evaluate", "--checkpoint", str(model / "checkpoint"),
                     "--data", str(data / "test"), "--train-data", str(data / "train"),
                     "--out", str(out)])
    else:
        cmds.append(["evaluate", "--checkpoint", str(model / "checkpoint"),
                     "--data", str(data / "test"), "--out", str(out)])
    return cmds


# ---------------------------------------------------------------------------
# correctness gates

def check_repeat(workload: Workload, out: dict, reference: dict, seed: int) -> dict[str, bool]:
    """Gate one repeat's outputs on input seed ``seed``; returns check name -> passed.

    ``out`` is what the child collected from the run's artifacts (see
    ``child.collect_outputs``); a missing key fails the checks that need it.
    """
    checks = {"commands_ok": out.get("exit_codes") == [0] * out.get("n_commands", -1)}
    if workload.trains:
        losses = out.get("train_losses") or []
        checks["not_diverged"] = out.get("diverged") is False
        checks["steps_equal_budget"] = out.get("total_steps") == workload.budget
        # While lambda is small, aphynity may trade trajectory loss for a smaller
        # residual (reacdiff seed 18: loss 0.032 -> 0.047 over 4 epochs while
        # |F_a|^2 falls), so progress is either term falling; both rising fails.
        checks["loss_or_residual_fell"] = _finite(losses[-1] if losses else None) and (
            _fell(losses) or _fell(out.get("fa_norms") or []))
    params, floors = out.get("params") or {}, out.get("floors") or {}
    checks["params_above_floors"] = bool(params) and all(
        name in floors and _finite(value) and value > floors[name]
        for name, value in params.items())
    checks["log_mse_matches_reference"] = log_mse_ok(
        out.get("log_mse"), reference.get(workload.name, {}), seed)
    return checks


def log_mse_ok(value, recorded: dict, seed: int) -> bool:
    """Finite and within ``LOG_MSE_TOL`` of the reference recorded for ``seed``."""
    ref = recorded.get(str(seed))
    return _finite(value) and ref is not None and abs(value - ref["log_mse"]) <= LOG_MSE_TOL


def outputs_signature(out: dict) -> str:
    """The deterministic part of a repeat's outputs, for the run's repeat check."""
    keys = ("log_mse", "train_losses", "fa_norms", "params", "total_steps", "excluded")
    return json.dumps({k: out.get(k) for k in keys}, sort_keys=True)


def _fell(series: list) -> bool:
    return len(series) >= 2 and _finite(series[0]) and _finite(series[-1]) \
        and series[-1] < series[0]


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)
