"""Ground-truth dataset simulation and persistence.

Each system gets its own high-accuracy simulator, deliberately different
from the fixed-step solver used at training time: adaptive Dormand-Prince
for the pendulum, fine-step explicit Euler for reaction-diffusion, and
fine-step RK4 with a 4th-order Laplacian for the damped wave.

Per-trajectory RNG streams are derived from ``(seed, split, index)``, so
generation order and parallelism cannot change the data.

A dataset on disk is a directory: ``meta.json`` carries the schema version,
recipe and a CRC32 of the payload; ``data.bin`` holds the trajectories as
little-endian float64, laid out ``[trajectory][time][channel][row][col]``
(vectors store the channel axis only).
"""

from __future__ import annotations

import json
import logging
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .integrators import BlowUpError, StateSpec, dopri5, euler_fine, rk4_step
from .physics import laplacian_np

__all__ = [
    "Dataset", "DatasetError", "gen_pendulum", "gen_reacdiff", "gen_wave",
    "save_dataset", "load_dataset", "pendulum_rhs_np", "reacdiff_rhs_np",
    "wave_rhs_np",
]

log = logging.getLogger("aphynity.datagen")

DATASET_VERSION = 1
_SPLIT_CODES = {"train": 0, "valid": 1, "test": 2}


class DatasetError(RuntimeError):
    """Dataset directory is missing, corrupt, or from an unknown version."""


@dataclass
class Dataset:
    system: str
    split: str
    spec: StateSpec
    dt: float
    trajectories: np.ndarray  # (N, T+1, *spec.shape)
    true_params: dict[str, float]
    noise_sigma: float
    seed: int
    grid: dict | None = None  # {"dx": ..., "bc": ...} for field systems
    events: list = field(default_factory=list)

    def __post_init__(self):
        self.trajectories = np.asarray(self.trajectories, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        if self.split not in _SPLIT_CODES:
            raise ValueError(f"unknown split {self.split!r}")
        if self.trajectories.ndim != 2 + len(self.spec.shape):
            raise ValueError("trajectory array rank does not match the state spec")
        if tuple(self.trajectories.shape[2:]) != self.spec.shape:
            raise ValueError(
                f"state shape {self.trajectories.shape[2:]} != spec {self.spec.shape}")
        if self.trajectories.shape[1] < 2:
            raise ValueError("trajectories need at least two states")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @property
    def n_traj(self) -> int:
        return self.trajectories.shape[0]

    @property
    def n_steps(self) -> int:
        return self.trajectories.shape[1] - 1

    def all_states(self) -> np.ndarray:
        return self.trajectories.reshape(-1, *self.spec.shape)


def _stream(seed: int, split: str, index: int, attempt: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, _SPLIT_CODES[split], index, attempt)))


# ---------------------------------------------------------------------------
# true dynamics (plain numpy, vectorized over leading axes)

def pendulum_rhs_np(omega0_sq: float, alpha: float):
    def rhs(x):
        return np.stack([x[..., 1],
                         -omega0_sq * np.sin(x[..., 0]) - alpha * x[..., 1]], axis=-1)
    return rhs


def reacdiff_rhs_np(a: float, b: float, k: float, dx: float,
                    include_reaction: bool = True):
    def rhs(x):
        u, v = x[..., 0, :, :], x[..., 1, :, :]
        du = a * laplacian_np(u, "periodic", dx)
        dv = b * laplacian_np(v, "periodic", dx)
        if include_reaction:
            du = du + u - u**3 - k - v
            dv = dv + u - v
        return np.stack([du, dv], axis=-3)
    return rhs


def wave_rhs_np(c: float, k: float, dx: float = 1.0, order: int = 4):
    c_sq = c * c

    def rhs(x):
        w, v = x[..., 0, :, :], x[..., 1, :, :]
        accel = c_sq * laplacian_np(w, "neumann_zero", dx, order=order) - k * v
        return np.stack([v, accel], axis=-3)
    return rhs


# ---------------------------------------------------------------------------
# generators

def gen_pendulum(n_traj: int = 25, steps: int = 40, dt: float = 0.5,
                 t0_period: float = 12.0, alpha: float = 0.2, sigma: float = 0.01,
                 seed: int = 0, split: str = "train") -> Dataset:
    """Damped-pendulum trajectories from random initial swings.

    Initial conditions are ``theta0 ~ U(-pi/2, pi/2)``, ``v0 ~ U(-1, 1)``;
    the simulator is adaptive Dormand-Prince; ``sigma`` of white Gaussian
    noise is added to every state entry afterwards.
    """
    if not t0_period > 0 or alpha < 0:
        raise ValueError("t0_period must be positive and alpha non-negative")
    omega0_sq = (2.0 * np.pi / t0_period) ** 2
    rhs = pendulum_rhs_np(omega0_sq, alpha)
    t_grid = dt * np.arange(steps + 1)
    out = np.empty((n_traj, steps + 1, 2))
    for i in range(n_traj):
        rng = _stream(seed, split, i)
        x0 = np.array([rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-1.0, 1.0)])
        traj = dopri5(rhs, x0, t_grid)
        if sigma > 0:
            traj = traj + sigma * rng.standard_normal(traj.shape)
        out[i] = traj
    return Dataset(
        system="pendulum", split=split, spec=StateSpec("vector", (2,)), dt=dt,
        trajectories=out,
        true_params={"omega0_sq": omega0_sq, "alpha": alpha, "t0_period": t0_period},
        noise_sigma=sigma, seed=seed)


def _simulate_reacdiff_batch(x0, rhs, warm_steps, n_fine, keep_every, dt_sim):
    if warm_steps > 0:
        x0 = euler_fine(rhs, x0, dt_sim, warm_steps, warm_steps)[-1]
    return euler_fine(rhs, x0, dt_sim, n_fine, keep_every)


def gen_reacdiff(n_seq: int = 1920, grid: int = 32, a: float = 1e-3, b: float = 5e-3,
                 k: float = 5e-3, dt_sim: float = 1e-3, dt_data: float = 0.1,
                 horizon: float = 2.5, t_init: float = -0.5, seed: int = 0,
                 split: str = "train", include_reaction: bool = True) -> Dataset:
    """Reaction-diffusion sequences on a periodic square grid.

    Cells start i.i.d. uniform in [0, 1] at ``t_init``; a fine explicit-Euler
    run advances to t=0, then states are kept every ``dt_data`` up to
    ``horizon``.  A sequence that goes non-finite is resampled and logged.
    """
    keep_every = round(dt_data / dt_sim)
    if abs(keep_every * dt_sim - dt_data) > 1e-12:
        raise ValueError("dt_data must be an integer multiple of dt_sim")
    warm_steps = round(-t_init / dt_sim)
    n_keep = round(horizon / dt_data)
    n_fine = n_keep * keep_every
    dx = 2.0 / (grid - 1)
    rhs = reacdiff_rhs_np(a, b, k, dx, include_reaction=include_reaction)
    events: list = []

    def one_sequence(i: int) -> np.ndarray:
        for attempt in range(20):
            rng = _stream(seed, split, i, attempt)
            x0 = rng.random((2, grid, grid))
            try:
                return _simulate_reacdiff_batch(x0, rhs, warm_steps, n_fine,
                                                keep_every, dt_sim)
            except BlowUpError:
                events.append({"kind": "resampled_initial_condition",
                               "sequence": i, "attempt": attempt})
                log.info("reacdiff sequence %d blew up (attempt %d); resampling",
                         i, attempt)
        raise BlowUpError(f"sequence {i}: 20 initial conditions all blew up")

    x0 = np.stack([_stream(seed, split, i).random((2, grid, grid))
                   for i in range(n_seq)])
    try:
        kept = _simulate_reacdiff_batch(x0, rhs, warm_steps, n_fine, keep_every, dt_sim)
        out = kept.transpose(1, 0, 2, 3, 4)
    except BlowUpError:
        out = np.stack([one_sequence(i) for i in range(n_seq)])
    return Dataset(
        system="reacdiff", split=split, spec=StateSpec("field", (2, grid, grid)),
        dt=dt_data, trajectories=out, true_params={"a": a, "b": b, "k": k},
        noise_sigma=0.0, seed=seed, grid={"dx": dx, "bc": "periodic"}, events=events)


def gen_wave(n_seq: int = 250, grid: int = 64, c: float = 330.0, k: float = 50.0,
             dt: float = 1e-3, n_steps: int = 300, sigma_range=(10.0, 100.0),
             seed: int = 0, split: str = "train") -> Dataset:
    """Damped-wave sequences from centered Gaussian bumps at rest.

    The initial displacement is ``exp(-((x-x0)^2 + (y-y0)^2) / sigma^2)`` with
    unit amplitude, ``sigma`` drawn per sequence from ``sigma_range`` and the
    center at ``(grid//2, grid//2)``; the initial velocity is zero.  The
    simulator is fixed-step RK4 with a 4th-order Laplacian and zero-Neumann
    boundaries.  No observation noise is added.
    """
    if grid < 8:
        raise ValueError("grid must be at least 8")
    rhs = wave_rhs_np(c, k, dx=1.0, order=4)
    center = grid // 2
    xs = np.arange(grid, dtype=np.float64)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    r_sq = (xx - center) ** 2 + (yy - center) ** 2

    x0 = np.zeros((n_seq, 2, grid, grid))
    for i in range(n_seq):
        rng = _stream(seed, split, i)
        sigma = rng.uniform(*sigma_range)
        x0[i, 0] = np.exp(-r_sq / (sigma * sigma))
    out = np.empty((n_seq, n_steps + 1, 2, grid, grid))
    out[:, 0] = x0
    x = x0
    for step in range(1, n_steps + 1):
        x = rk4_step(rhs, x, dt)
        out[:, step] = x
    return Dataset(
        system="wave", split=split, spec=StateSpec("field", (2, grid, grid)), dt=dt,
        trajectories=out, true_params={"c": c, "k": k}, noise_sigma=0.0, seed=seed,
        grid={"dx": 1.0, "bc": "neumann_zero"})


# ---------------------------------------------------------------------------
# persistence

def save_dataset(ds: Dataset, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    payload = np.ascontiguousarray(ds.trajectories, dtype="<f8").tobytes()
    meta = {
        "format_version": DATASET_VERSION,
        "kind": "trajectory-dataset",
        "system": ds.system,
        "split": ds.split,
        "state_kind": ds.spec.kind,
        "state_shape": list(ds.spec.shape),
        "n_traj": ds.n_traj,
        "n_states": ds.trajectories.shape[1],
        "dt": ds.dt,
        "true_params": ds.true_params,
        "noise_sigma": ds.noise_sigma,
        "seed": ds.seed,
        "grid": ds.grid,
        "events": ds.events,
        "payload_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
    }
    (path / "data.bin").write_bytes(payload)
    (path / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def load_dataset(path) -> Dataset:
    path = Path(path)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise DatasetError(f"no meta.json under {path}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"meta.json is not valid JSON: {exc}") from exc
    if meta.get("format_version") != DATASET_VERSION:
        raise DatasetError(f"unsupported dataset version {meta.get('format_version')!r}")
    payload = (path / "data.bin").read_bytes()
    if len(payload) != meta["payload_bytes"]:
        raise DatasetError("data.bin is truncated")
    if zlib.crc32(payload) != meta["payload_crc32"]:
        raise DatasetError("data.bin failed its checksum")
    shape = (meta["n_traj"], meta["n_states"], *meta["state_shape"])
    data = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    return Dataset(
        system=meta["system"], split=meta["split"],
        spec=StateSpec(meta["state_kind"], tuple(meta["state_shape"])),
        dt=meta["dt"], trajectories=data, true_params=meta["true_params"],
        noise_sigma=meta["noise_sigma"], seed=meta["seed"], grid=meta["grid"],
        events=meta.get("events", []))
