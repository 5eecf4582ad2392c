"""Trajectory-constrained training of combined physical/residual dynamics.

The optimization follows a method-of-multipliers scheme: inner gradient
steps minimize ``lambda * L_traj + |residual|^2`` (the residual norm summed
over the training states), then once per epoch the multiplier climbs by
``tau2 * L_traj`` so the trajectory constraint is enforced ever harder while
the residual stays as small as the data allows.

Each step backpropagates the two terms separately: first the |residual|^2
term over the batch's states, then ``lambda * L_traj`` through the rollout,
so only one of the two graphs is alive at a time.  Each parameter gets
one |residual|^2 contribution, so its gradient equals that of the summed
loss bit for bit.

The epoch-end passes build no graph: the whole-split trajectory losses and
|residual|^2 are ``metrics.squared_errors`` and ``metrics.residual_norm_sq``,
the scorers ``evaluate`` uses, so a rollout holds one state batch at a time
and reads the validation split a block of time steps at a time.

Ablation modes:

* ``vanilla``             - minimize the trajectory loss only;
* ``non_adaptive``        - fixed ``lambda = 1``, no multiplier ascent;
* ``derivative_supervision`` - the trajectory loss is replaced by a pointwise
  match of the model output against finite-difference derivative estimates
  of the observed trajectories (same multiplier dynamics otherwise).

A model with nothing to train (frozen physics, no residual) is scored once,
in every mode, under that mode's constraint.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import ParamSet, Tensor
from .integrators import BlowUpError, integrate
from .metrics import augmentation_norm_sq, mean_squared_error, residual_norm_sq, squared_errors
from .models import AugmentedDynamics

__all__ = [
    "MODES", "TrainConfig", "EpochRecord", "TrainReport",
    "trajectory_loss", "derivative_loss", "fit",
]

log = logging.getLogger("aphynity.training")

MODES = ("aphynity", "vanilla", "derivative_supervision", "non_adaptive")
_CLIMBING = ("aphynity", "derivative_supervision")     # the modes whose multiplier climbs


@dataclass
class TrainConfig:
    mode: str = "aphynity"
    n_epochs: int = 200
    n_iter: int = 1                    # inner minimization sweeps per epoch
    batch_size: int | None = None      # trajectories per batch; None = all
    tau1: float = 1e-3                 # optimizer step size
    tau2: float = 10.0                 # multiplier ascent rate
    lambda0: float = 1.0
    seed: int = 0
    optimizer: str = "sgd"             # "sgd" is algorithm-literal; "adam" for speed
    max_grad_norm: float | None = None
    patience: int | None = 50          # early stop on validation loss; None disables
    max_steps: int | None = None       # hard cap on gradient updates
    lambda_eval: str = "full"          # constraint loss for the ascent: "full" | "running"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, floor, optional in (("n_epochs", 1, False), ("n_iter", 1, False),
                                      ("batch_size", 1, True), ("max_steps", 1, True),
                                      ("patience", 0, True)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                    optional and value is None
                    or isinstance(value, numbers.Integral) and value >= floor):
                raise ValueError(f"{name} must be {'null or ' if optional else ''}"
                                 f"{'a positive' if floor else 'a non-negative'} integer, "
                                 f"got {value!r}")
        norm = self.max_grad_norm
        if norm is not None and (isinstance(norm, bool) or
                                 not (isinstance(norm, numbers.Real) and norm > 0)):
            raise ValueError(f"max_grad_norm must be null or a positive number, "
                             f"got {norm!r}")
        if not 0 < self.tau1 < math.inf:
            raise ValueError(f"tau1 must be positive and finite, got {self.tau1!r}")
        if not (0 <= self.tau2 < math.inf and 0 <= self.lambda0 < math.inf):
            raise ValueError("tau2 and lambda0 must be non-negative and finite")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lambda_eval not in ("full", "running"):
            raise ValueError(f"unknown lambda_eval {self.lambda_eval!r}")


@dataclass
class EpochRecord:
    epoch: int
    lam: float
    train_loss: float          # constraint loss used for reporting/ascent
    valid_loss: float | None
    fa_norm_sq: float | None
    params: dict[str, float]
    wall_time_s: float

    def to_dict(self) -> dict:
        """The fields, with ``lam`` written as ``lambda``."""
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d


@dataclass
class TrainReport:
    mode: str
    records: list[EpochRecord] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    final_params: dict[str, float] = field(default_factory=dict)
    final_lambda: float = 0.0
    final_fa_norm_sq: float | None = None
    best_epoch: int | None = None
    total_steps: int = 0
    stopped_early: bool = False
    diverged: bool = False
    wall_time_s: float = 0.0

    def summary(self) -> dict:
        """Every field but ``records``, plus the epoch count and the last train loss."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        d["epochs_run"] = len(self.records)
        d["final_train_loss"] = self.records[-1].train_loss if self.records else None
        return d

    def core_dict(self) -> dict:
        """Everything except wall-clock times; the determinism contract."""
        records = []
        for r in self.records:
            d = r.to_dict()
            d.pop("wall_time_s")
            records.append(d)
        summary = self.summary()
        summary.pop("wall_time_s")
        return {"records": records, "summary": summary}

    def save(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "report.jsonl", "w") as fh:
            for r in self.records:
                fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
        (out_dir / "summary.json").write_text(
            json.dumps(self.summary(), indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# losses

def trajectory_loss(pred_states, truth: np.ndarray) -> Tensor:
    """Mean squared error over batch, time steps 1..T and state entries.

    ``pred_states`` is the rollout list (length T+1, entries (B, ...));
    ``truth`` is the observed batch (B, T+1, ...).  The shared initial state
    does not participate.
    """
    n_steps = truth.shape[1] - 1
    if len(pred_states) != n_steps + 1:
        raise ValueError(f"rollout has {len(pred_states)} states, truth has {n_steps + 1}")
    total = None
    for step in range(1, n_steps + 1):
        sq = dc.sum_all(dc.square(dc.sub(pred_states[step], truth[:, step])))
        total = sq if total is None else dc.add(total, sq)
    return dc.smul(1.0 / truth[:, 1:].size, total)


def derivative_loss(model: AugmentedDynamics, truth: np.ndarray, dt: float) -> Tensor:
    """Mean squared error of model output against finite-difference derivatives."""
    b, n_states = truth.shape[0], truth.shape[1]
    states = truth[:, :-1].reshape(b * (n_states - 1), *truth.shape[2:])
    targets = ((truth[:, 1:] - truth[:, :-1]) / dt).reshape(states.shape)
    pred = model.rhs(Tensor(states))
    return dc.mean_all(dc.square(dc.sub(pred, targets)))


# ---------------------------------------------------------------------------
# optimizers

class _Sgd:
    def __init__(self, params: ParamSet):
        self.params = params

    def step(self, lr: float) -> None:
        for t in self.params.tensors():
            t.values = t.values - lr * t.grad


class _Adam:
    def __init__(self, params: ParamSet, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {n: np.zeros_like(t.values) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.values) for n, t in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, t in self.params.items():
            g = t.grad
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            t.values = t.values - lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------------------------------------------------------------------
# the fit loop

def _record_epoch(report, model, train, valid, train_loss, started) -> EpochRecord:
    """Append the next epoch's record at the report's lambda, scoring the
    validation loss and |F_a|^2 over ``train``; return it."""
    valid_loss = _split_mse(model, valid, float("inf")) if valid is not None else None
    fa_norm = residual_norm_sq(model, train) if model.augmentation is not None else None
    report.records.append(EpochRecord(
        epoch=len(report.records) + 1, lam=report.final_lambda, train_loss=train_loss,
        valid_loss=valid_loss, fa_norm_sq=fa_norm, params=model.physical_param_values(),
        wall_time_s=time.perf_counter() - started))
    return report.records[-1]


def _frozen_report(model, train, valid, report, started) -> TrainReport:
    """Fully frozen model (reference equations): nothing to optimize, just score."""
    _record_epoch(report, model, train, valid, _eval_constraint(model, train, report.mode),
                  started)
    report.final_params = model.physical_param_values()
    report.wall_time_s = time.perf_counter() - started
    return report


def _batches(rng, trajectories, batch_size, n_iter):
    """One epoch's batches: ``n_iter`` sweeps, each in a permutation drawn as it starts."""
    n_traj = trajectories.shape[0]
    batch_size = min(batch_size or n_traj, n_traj)
    for _ in range(n_iter):
        order = rng.permutation(n_traj)
        for lo in range(0, n_traj, batch_size):
            yield trajectories[order[lo:lo + batch_size]]


def _constraint_loss(model, batch, dt, mode):
    if mode == "derivative_supervision":
        return derivative_loss(model, batch, dt)
    pred = integrate(model.rhs, Tensor(batch[:, 0]), batch.shape[1] - 1, dt)
    return trajectory_loss(pred, batch)


def _split_mse(model, data, on_blow_up: float) -> float:
    """The whole split's trajectory MSE, or ``on_blow_up`` if it blows up."""
    try:
        sums = squared_errors(model, data, data.n_steps)
    except BlowUpError:
        return on_blow_up
    return float(mean_squared_error(sums, data.n_steps, data.state_shape))


def _eval_constraint(model, data, mode) -> float:
    if mode != "derivative_supervision":
        return _split_mse(model, data, float("nan"))
    with dc.no_grad():
        return float(derivative_loss(model, data.trajectories, data.dt).values)


def fit(model: AugmentedDynamics, train, cfg: TrainConfig, valid=None) -> TrainReport:
    """Train the model on a dataset; returns the per-epoch report.

    ``train``/``valid`` are :class:`aphynity.datagen.Dataset` objects (or
    anything exposing their ``trajectories``, ``dt``, shape properties,
    ``all_states()`` and ``blocks()``); ``valid`` is only read block by
    block.  The report is the loop's state: its ``final_lambda``,
    ``total_steps`` and ``best_epoch`` move as the loop runs.  Divergence
    (non-finite loss) aborts and is flagged on the report rather than raised.
    When early stopping triggers, parameters are restored to the
    best-validation epoch.  Each epoch ends with no-grad passes through
    metrics' streamed scorer (the ``full`` constraint and the validation
    loss) and its residual pass (|F_a|^2 over ``train``).
    """
    started = time.perf_counter()
    report = TrainReport(mode=cfg.mode,
                         final_lambda=cfg.lambda0 if cfg.mode in _CLIMBING else 1.0)
    if len(model.params) == 0:
        return _frozen_report(model, train, valid, report, started)
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(model.params) if cfg.optimizer == "adam" else _Sgd(model.params)

    use_norm_term = cfg.mode != "vanilla"
    n_states_total = train.trajectories.shape[0] * train.trajectories.shape[1]
    best_valid = np.inf
    best_state = None

    for epoch in range(1, cfg.n_epochs + 1):
        epoch_started = time.perf_counter()
        running: list[float] = []
        for batch in _batches(rng, train.trajectories, cfg.batch_size, cfg.n_iter):
            model.params.zero_grad()
            norm_val = 0.0
            if use_norm_term and model.augmentation is not None:
                # backpropagated before the rollout exists, so that the two
                # graphs are never alive together
                scale = n_states_total / (batch.shape[0] * batch.shape[1])
                norm_term = dc.smul(scale, augmentation_norm_sq(
                    model.augmentation, batch.reshape(-1, *batch.shape[2:])))
                norm_val = float(norm_term.values)
                dc.backward(norm_term)
            try:
                cons = _constraint_loss(model, batch, train.dt, cfg.mode)
            except BlowUpError as exc:
                # the next zero_grad discards the norm term's gradients
                report.events.append({"kind": "blow_up", "epoch": epoch,
                                      "detail": str(exc)})
                log.warning("epoch %d: rollout blew up, skipping batch (%s)", epoch, exc)
                continue
            loss = dc.smul(report.final_lambda, cons) if use_norm_term else cons
            loss_val = float(loss.values) + norm_val
            if not np.isfinite(loss_val):
                report.diverged = True
                report.events.append({"kind": "divergence", "epoch": epoch,
                                      "loss": loss_val})
                log.error("epoch %d: loss is %s, aborting", epoch, loss_val)
                break
            dc.backward(loss)
            if cfg.max_grad_norm is not None:
                model.params.clip_grad_norm(cfg.max_grad_norm)
            opt.step(cfg.tau1)
            running.append(float(cons.values))
            report.total_steps += 1
            if report.total_steps == cfg.max_steps:
                break
        if report.diverged:
            break

        if cfg.lambda_eval == "full":
            cons_value = _eval_constraint(model, train, cfg.mode)
        else:
            cons_value = float(np.mean(running)) if running else np.nan
        record = _record_epoch(report, model, train, valid, cons_value, epoch_started)
        if cfg.mode in _CLIMBING and np.isfinite(cons_value):
            report.final_lambda += cfg.tau2 * cons_value

        if valid is not None and cfg.patience is not None:
            if record.valid_loss < best_valid:
                best_valid = record.valid_loss
                best_state = model.params.state()
                report.best_epoch = epoch
            elif epoch - (report.best_epoch or 0) >= cfg.patience:
                report.stopped_early = True
                log.info("early stop at epoch %d (%s)", epoch, "no epoch improved"
                         if report.best_epoch is None else f"best epoch {report.best_epoch}")
                break
        if report.total_steps == cfg.max_steps:
            break

    # the final parameters are those of a recorded epoch: the restored best
    # one, or else the last one, so its |F_a|^2 is already known
    if best_state is not None:
        model.params.load_state(best_state)
    if not report.diverged and report.records:
        report.final_fa_norm_sq = report.records[(report.best_epoch or 0) - 1].fa_norm_sq
    report.final_params = model.physical_param_values()
    report.wall_time_s = time.perf_counter() - started
    return report
