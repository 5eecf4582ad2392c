"""Trajectory-constrained training of combined physical/residual dynamics.

The optimization follows a method-of-multipliers scheme: inner gradient
steps minimize ``lambda * L_traj + |residual|^2`` (the residual norm summed
over the training states), then once per epoch the multiplier climbs by
``tau2 * L_traj`` so the trajectory constraint is enforced ever harder while
the residual stays as small as the data allows.

Ablation modes:

* ``vanilla``             - minimize the trajectory loss only;
* ``non_adaptive``        - fixed ``lambda = 1``, no multiplier ascent;
* ``derivative_supervision`` - the trajectory loss is replaced by a pointwise
  match of the model output against finite-difference derivative estimates
  of the observed trajectories (same multiplier dynamics otherwise).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import ParamSet, Tensor
from .integrators import BlowUpError, integrate
from .models import AugmentedDynamics

__all__ = [
    "MODES", "TrainConfig", "EpochRecord", "TrainReport",
    "trajectory_loss", "derivative_loss", "augmentation_norm_sq", "fit",
]

log = logging.getLogger("aphynity.training")

MODES = ("aphynity", "vanilla", "derivative_supervision", "non_adaptive")


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
        if not self.tau1 > 0:
            raise ValueError("tau1 must be positive")
        if self.tau2 < 0 or self.lambda0 < 0:
            raise ValueError("tau2 and lambda0 must be non-negative")
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
        return {"epoch": self.epoch, "lambda": self.lam, "train_loss": self.train_loss,
                "valid_loss": self.valid_loss, "fa_norm_sq": self.fa_norm_sq,
                "params": self.params, "wall_time_s": self.wall_time_s}


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
        return {
            "mode": self.mode,
            "epochs_run": len(self.records),
            "total_steps": self.total_steps,
            "final_lambda": self.final_lambda,
            "final_params": self.final_params,
            "final_fa_norm_sq": self.final_fa_norm_sq,
            "final_train_loss": self.records[-1].train_loss if self.records else None,
            "best_epoch": self.best_epoch,
            "stopped_early": self.stopped_early,
            "diverged": self.diverged,
            "events": self.events,
            "wall_time_s": self.wall_time_s,
        }

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


def augmentation_norm_sq(augmentation, states: np.ndarray) -> Tensor:
    """Sum of squared residual outputs over the given states and entries."""
    return dc.sum_all(dc.square(augmentation(Tensor(states))))


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

def _frozen_report(model, train, cfg, valid) -> TrainReport:
    """Fully frozen model (reference equations): nothing to optimize, just score."""
    started = time.perf_counter()
    report = TrainReport(mode=cfg.mode)
    cons = _eval_constraint(model, train, cfg.mode)
    valid_loss = _eval_trajectory_loss(model, valid) if valid is not None else None
    report.records.append(EpochRecord(
        epoch=1, lam=cfg.lambda0, train_loss=cons, valid_loss=valid_loss,
        fa_norm_sq=None, params=model.physical_param_values(),
        wall_time_s=time.perf_counter() - started))
    report.final_lambda = cfg.lambda0
    report.final_params = model.physical_param_values()
    report.wall_time_s = time.perf_counter() - started
    return report


def _constraint_loss(model, batch, dt, mode):
    if mode == "derivative_supervision":
        return derivative_loss(model, batch, dt)
    pred = integrate(model.rhs, Tensor(batch[:, 0]), batch.shape[1] - 1, dt)
    return trajectory_loss(pred, batch)


def _eval_constraint(model, data, mode) -> float:
    try:
        with dc.no_grad():
            return float(_constraint_loss(model, data.trajectories, data.dt, mode).values)
    except BlowUpError:
        return float("nan")


def _eval_trajectory_loss(model, data) -> float:
    try:
        with dc.no_grad():
            pred = integrate(model.rhs, Tensor(data.trajectories[:, 0]),
                             data.n_steps, data.dt)
            return float(trajectory_loss(pred, data.trajectories).values)
    except BlowUpError:
        return float("inf")


def fit(model: AugmentedDynamics, train, cfg: TrainConfig, valid=None) -> TrainReport:
    """Train the model on a dataset; returns the per-epoch report.

    ``train``/``valid`` are :class:`aphynity.datagen.Dataset` objects (or
    anything exposing ``trajectories``, ``dt``, ``n_steps``,
    ``all_states()``).  Divergence (non-finite loss) aborts and is flagged on
    the report rather than raised.  When early stopping triggers, parameters
    are restored to the best-validation epoch.
    """
    if len(model.params) == 0:
        if cfg.mode in ("vanilla", "derivative_supervision"):
            raise ValueError(f"mode {cfg.mode!r} needs at least one trainable component")
        return _frozen_report(model, train, cfg, valid)
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(model.params) if cfg.optimizer == "adam" else _Sgd(model.params)
    report = TrainReport(mode=cfg.mode)
    started = time.perf_counter()

    use_norm_term = cfg.mode in ("aphynity", "derivative_supervision", "non_adaptive")
    adaptive = cfg.mode in ("aphynity", "derivative_supervision")
    lam = cfg.lambda0 if adaptive else 1.0

    trajectories = train.trajectories
    n_traj = trajectories.shape[0]
    batch_size = min(cfg.batch_size or n_traj, n_traj)
    n_states_total = trajectories.shape[0] * trajectories.shape[1]

    best_valid = np.inf
    best_state = None
    best_epoch = None
    patience_left = cfg.patience
    steps = 0
    out_of_budget = False

    for epoch in range(1, cfg.n_epochs + 1):
        epoch_started = time.perf_counter()
        running: list[float] = []
        for _ in range(cfg.n_iter):
            order = rng.permutation(n_traj)
            for lo in range(0, n_traj, batch_size):
                idx = order[lo:lo + batch_size]
                batch = trajectories[idx]
                model.params.zero_grad()
                try:
                    cons = _constraint_loss(model, batch, train.dt, cfg.mode)
                except BlowUpError as exc:
                    report.events.append({"kind": "blow_up", "epoch": epoch,
                                          "detail": str(exc)})
                    log.warning("epoch %d: rollout blew up, skipping batch (%s)",
                                epoch, exc)
                    continue
                if use_norm_term and model.augmentation is not None:
                    scale = n_states_total / (batch.shape[0] * batch.shape[1])
                    norm_term = dc.smul(scale, augmentation_norm_sq(
                        model.augmentation, batch.reshape(-1, *batch.shape[2:])))
                    loss = dc.add(dc.smul(lam, cons), norm_term)
                elif use_norm_term:
                    loss = dc.smul(lam, cons)
                else:
                    loss = cons
                loss_val = float(loss.values)
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
                steps += 1
                if cfg.max_steps is not None and steps >= cfg.max_steps:
                    out_of_budget = True
                    break
            if report.diverged or out_of_budget:
                break
        if report.diverged:
            break

        if cfg.lambda_eval == "full":
            cons_value = _eval_constraint(model, train, cfg.mode)
        else:
            cons_value = float(np.mean(running)) if running else np.nan
        valid_loss = _eval_trajectory_loss(model, valid) if valid is not None else None
        fa_norm = None
        if model.augmentation is not None:
            with dc.no_grad():
                fa_norm = float(augmentation_norm_sq(
                    model.augmentation, train.all_states()).values)

        report.records.append(EpochRecord(
            epoch=epoch, lam=lam, train_loss=cons_value, valid_loss=valid_loss,
            fa_norm_sq=fa_norm, params=model.physical_param_values(),
            wall_time_s=time.perf_counter() - epoch_started))

        if adaptive and np.isfinite(cons_value):
            lam = lam + cfg.tau2 * cons_value

        if valid is not None and cfg.patience is not None:
            if valid_loss < best_valid:
                best_valid = valid_loss
                best_state = model.params.state()
                best_epoch = epoch
                patience_left = cfg.patience
            else:
                patience_left -= 1
                if patience_left <= 0:
                    report.stopped_early = True
                    log.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
                    break
        if out_of_budget:
            break

    if best_state is not None:
        model.params.load_state(best_state)
        report.best_epoch = best_epoch

    report.final_lambda = lam
    report.final_params = model.physical_param_values()
    report.total_steps = steps
    if model.augmentation is not None and not report.diverged:
        with dc.no_grad():
            report.final_fa_norm_sq = float(augmentation_norm_sq(
                model.augmentation, train.all_states()).values)
    report.wall_time_s = time.perf_counter() - started
    return report
