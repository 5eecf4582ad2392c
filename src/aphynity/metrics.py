"""Forecast evaluation and comparison tables.

``evaluate`` rolls every test trajectory out from its initial state with the
fixed-step training solver at the dataset resolution and scores base-10 log
mean squared error over a fixed horizon, physical-parameter error
percentages, and the residual norm over the training states.

``squared_errors`` (a streamed no-grad rollout, scored against truth read a
block of time steps at a time), ``mean_squared_error`` (their mean per
step and state entry) and ``residual_norm_sq`` (a no-grad |F_a|^2 pass over
a split) serve ``evaluate`` and the end of every ``training.fit`` epoch alike.

Pendulum frequency errors are reported on the period (``t0_period``) rather
than on the squared pulsation, so "5% off" means 5% off the period.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .integrators import BlowUpError, integrate
from .models import AugmentedDynamics

__all__ = ["MetricsRecord", "param_error_pct", "augmentation_norm_sq",
           "squared_errors", "mean_squared_error", "residual_norm_sq", "evaluate",
           "write_metrics_csv", "write_metrics_json", "load_metrics_rows"]

CSV_COLUMNS = [
    "run_id", "system", "method", "physics", "augmentation", "mode", "seed",
    "horizon", "log_mse", "param_err_avg_pct", "param_err_detail",
    "fa_norm_sq", "fa_norm_source", "excluded_trajectories",
]


@dataclass
class MetricsRecord:
    run_id: str
    system: str
    method: str
    physics: str | None
    augmentation: str | None
    mode: str
    seed: int
    horizon: int
    log_mse: float
    param_err_pct: dict[str, float] = field(default_factory=dict)
    param_err_avg_pct: float | None = None
    fa_norm_sq: float | None = None
    fa_norm_source: str | None = None
    excluded_trajectories: int = 0
    estimated_params: dict[str, float] = field(default_factory=dict)

    def to_row(self) -> dict:
        """The ``CSV_COLUMNS`` cells: ``None`` reads "n/a", a float its repr,
        and ``param_err_detail`` the errors as JSON at 6 significant digits."""
        detail = json.dumps(
            {k: _round_sig(v) for k, v in sorted(self.param_err_pct.items())},
            sort_keys=True) if self.param_err_pct else None
        return {col: _fmt(detail if col == "param_err_detail" else getattr(self, col))
                for col in CSV_COLUMNS}

    def to_json_dict(self) -> dict:
        return _json_value(asdict(self))


def _round_sig(x: float, digits: int = 6) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return round(x, digits - 1 - int(math.floor(math.log10(abs(x)))))


def _fmt(x):
    """A CSV cell: "n/a" for ``None``, the repr of a float, else ``x``."""
    if x is None:
        return "n/a"
    return repr(float(x)) if isinstance(x, float) else x


def _json_value(x):
    """``x`` for ``json.dumps``, with a non-finite float written as "inf",
    "-inf" or "nan", also inside a dict."""
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if not isinstance(x, float):
        return x
    return float(x) if math.isfinite(x) else {math.inf: "inf", -math.inf: "-inf"}.get(x, "nan")


def param_error_pct(estimated: dict[str, float],
                    true: dict[str, float]) -> tuple[dict[str, float], float]:
    """Per-parameter ``100 |est - true| / |true|`` and the arithmetic mean."""
    if not estimated:
        raise ValueError("no parameters to compare")
    errors = {}
    for name, est in estimated.items():
        if name not in true:
            raise ValueError(f"no true value for parameter {name!r}")
        ref = true[name]
        if ref == 0:
            raise ValueError(f"true value of {name!r} is zero")
        errors[name] = 100.0 * abs(est - ref) / abs(ref)
    return errors, float(np.mean(list(errors.values())))


def reported_params(values: dict[str, float]) -> dict[str, float]:
    """Map native parameters to their reported form (pendulum period)."""
    out = dict(values)
    if "omega0_sq" in out:
        out["t0_period"] = 2.0 * np.pi / np.sqrt(out.pop("omega0_sq"))
    return out


def augmentation_norm_sq(augmentation, states: np.ndarray) -> Tensor:
    """Sum of squared residual outputs over the given states and entries."""
    return dc.sum_all(dc.square(augmentation(Tensor(states))))


def residual_norm_sq(model: AugmentedDynamics, data) -> float:
    """No-grad |F_a|^2 summed over every state of the split ``data``."""
    with dc.no_grad():
        return float(augmentation_norm_sq(model.augmentation, data.all_states()).values)


def squared_errors(model: AugmentedDynamics, data, horizon: int,
                   rows: slice = slice(None)) -> np.ndarray:
    """Each trajectory's summed squared error over forecast steps 1..horizon.

    The trajectories ``rows`` of the split ``data`` are rolled out from their
    initial states for all ``data.n_steps`` steps, so a blow-up anywhere
    raises ``BlowUpError``.  Truth is read up to ``horizon`` only, a block of
    time steps at a time (``Dataset.blocks``), and each step's error is
    formed in place in the block, so a step allocates nothing but the
    rollout's state."""
    sums = np.zeros(len(range(data.n_traj)[rows]))
    with dc.no_grad():
        for t0, block in data.blocks(horizon + 1, rows):
            for t in range(t0, t0 + block.shape[1]):
                truth = block[:, t - t0]
                if t == 0:  # a copy: the next block overwrites the buffer
                    x = Tensor(truth.copy())
                    continue
                x = integrate(model.rhs, x, 1, data.dt)[1]
                err = np.subtract(x.values, truth, out=truth)
                sums += np.square(err, out=err).reshape(len(sums), -1).sum(axis=1)
        for _ in range(horizon, data.n_steps):
            x = integrate(model.rhs, x, 1, data.dt)[1]
    return sums


def mean_squared_error(sums: np.ndarray, horizon: int, state_shape) -> float:
    """The mean per trajectory, step 1..horizon and state entry of ``squared_errors`` sums."""
    return sums.sum() / (len(sums) * horizon * math.prod(state_shape))


def evaluate(model: AugmentedDynamics, test, horizon: int, train=None,
             fa_norm_sq: float | None = None, run_id: str = "run",
             mode: str = "n/a", seed: int = 0) -> MetricsRecord:
    """Score a trained model on a test dataset.

    All test trajectories are rolled out in one batch (batch-norm residuals
    see the full test batch, keeping evaluation deterministic).  If the batch
    blows up, trajectories are retried one by one and the diverging ones are
    excluded and counted.  ``log_mse`` is log10 of the kept trajectories'
    mean squared error over steps 1..horizon, ``-inf`` for a perfect forecast.
    Scoring streams: each step is scored as it is made, against truth read a
    block of time steps at a time (``squared_errors``), so besides one block
    evaluation holds one state batch and one model pass's scratch, whatever
    the length or size of the test split.  A parameter whose true value is 0
    has no percentage error and is left out of the average.  The residual
    norm is computed over ``train``'s states when given (the whole split is
    read), else taken from ``fa_norm_sq`` (a value recorded at train time),
    else left unset.
    """
    if horizon < 1 or horizon > test.n_steps:
        raise ValueError(f"horizon {horizon} outside 1..{test.n_steps}")
    try:
        sums = squared_errors(model, test, horizon)
    except BlowUpError:
        sums = []
        for i in range(test.n_traj):
            try:
                sums.append(squared_errors(model, test, horizon, rows=slice(i, i + 1)))
            except BlowUpError:
                pass
        if not sums:
            raise
        sums = np.concatenate(sums)
    mse = mean_squared_error(sums, horizon, test.state_shape)
    lm = float("-inf") if mse == 0 else math.log10(mse)

    desc = model.describe()
    physics = f"{desc['physics']['system']}:{desc['physics']['variant']}" \
        if desc["physics"] else None
    augmentation = desc["augmentation"]["kind"] if desc["augmentation"] else None

    errors: dict[str, float] = {}
    avg = None
    estimated = {}
    if model.physical is not None and len(model.physical.params) > 0:
        estimated = reported_params(model.physical_param_values())
        truth_params = reported_params(dict(test.true_params))
        comparable = {k: v for k, v in estimated.items() if truth_params.get(k, 0) != 0}
        if comparable:
            errors, avg = param_error_pct(
                comparable, {k: truth_params[k] for k in comparable})

    norm_val, norm_src = None, None
    if model.augmentation is not None:
        if train is not None:
            norm_val = residual_norm_sq(model, train)
            norm_src = "train_states"
        elif fa_norm_sq is not None:
            norm_val = float(fa_norm_sq)
            norm_src = "checkpoint"

    return MetricsRecord(
        run_id=run_id, system=test.system, method="+".join(filter(None, (physics, augmentation))),
        physics=physics, augmentation=augmentation, mode=mode, seed=seed,
        horizon=horizon, log_mse=lm, param_err_pct=errors, param_err_avg_pct=avg,
        fa_norm_sq=norm_val, fa_norm_source=norm_src,
        excluded_trajectories=test.n_traj - len(sums), estimated_params=estimated)


def write_metrics_csv(records, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.to_row())


def write_metrics_json(records, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = [rec.to_json_dict() for rec in records]
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def load_metrics_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
