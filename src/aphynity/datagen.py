"""Ground-truth dataset simulation and persistence.

Each system gets its own high-accuracy simulator, deliberately different
from the fixed-step solver used at training time: adaptive Dormand-Prince
for the pendulum, fine-step explicit Euler for reaction-diffusion, and
fine-step RK4 with a 4th-order Laplacian for the damped wave.  A generator
takes ``{split: count}`` and its keywords, checks the keywords against its
rule list (``check_dataset``, the one place that says which values a
config's ``dataset`` key accepts), simulates every split in one run whose
rows do not interact (the pendulum's in one lock-step batch, each trajectory
with its own adaptive step control; the fields' in row chunks sized to stay
in cache), and returns ``{split: Dataset}`` for each split with sequences.

Per-trajectory RNG streams are derived from ``(seed, split, index)``, so
neither the other splits nor the batch can change a sequence's data.

A dataset on disk is an artifact (see :mod:`aphynity.artifacts`):
``meta.json`` carries the recipe and the array's shape; ``data.bin`` holds the
trajectories laid out ``[trajectory][time][channel][row][col]`` (vectors
store the channel axis only).  A loaded split keeps ``data.bin`` on disk:
``Dataset.blocks`` reads it a block of time steps at a time, and the whole
array is read only when ``trajectories`` is first used.
"""

from __future__ import annotations

import logging
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from .artifacts import Payload, describing, open_artifact, save_artifact
from .diffcore.ops import five_point_sum, pad_boundary
from .integrators import BlowUpError, dopri5, euler_fine, rk4_step
from .physics import laplacian_np

__all__ = [
    "SPLITS", "Dataset", "DatasetError", "check_dataset", "gen_pendulum", "gen_reacdiff",
    "gen_wave", "save_dataset", "load_dataset", "pendulum_rhs_np", "reacdiff_rhs_np",
    "wave_rhs_np",
]

log = logging.getLogger("aphynity.datagen")

DATASET_VERSION = 1
SPLITS = ("train", "valid", "test")  # simulation order; the index is the stream's code
# State bytes per chunk of rows that a field simulator advances together, so
# that its working set stays in cache: 16 rows of 2x32x32, 4 of 2x64x64
_CHUNK_BYTES = 1 << 18
# Bytes of the buffer ``Dataset.blocks`` reads states into; it holds at least one time step
_BLOCK_BYTES = 1 << 20


class DatasetError(RuntimeError):
    """Dataset directory is missing, corrupt, or from an unknown version."""


@dataclass(frozen=True)
class _StoredStates:
    """States left on disk: ``payload`` holds them C-ordered as ``shape``."""
    payload: Payload
    shape: tuple[int, ...]


@dataclass
class Dataset:
    system: str
    split: str
    dt: float
    trajectories: np.ndarray  # (N, T+1, d) vector or (N, T+1, C, H, W) field states
    true_params: dict[str, float]
    noise_sigma: float
    seed: int
    grid: dict | None = None  # {"dx": ..., "bc": ...} for field systems
    events: list = field(default_factory=list)

    def __post_init__(self):
        if isinstance(self.trajectories, _StoredStates):
            # opened by load_dataset: read whole on first use (see __getattr__)
            self._stored = self.__dict__.pop("trajectories")
        else:
            self._stored = None
            self.trajectories = np.asarray(self.trajectories, dtype=np.float64)
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}")
        if len(self._shape) not in (3, 5):
            raise ValueError(
                f"trajectories of rank {len(self._shape)}: need (N, T+1, d) "
                "vector or (N, T+1, C, H, W) field states")
        if self._shape[1] < 2:
            raise ValueError("trajectories need at least two states")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not isinstance(self.true_params, dict):
            raise TypeError(f"true_params is not a dict: {self.true_params!r}")
        if not isinstance(self.grid, (dict, type(None))):
            raise TypeError(f"grid is neither a dict nor None: {self.grid!r}")

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the trajectories
        # of a split opened from disk, before their first use
        stored = self.__dict__.get("_stored")
        if name != "trajectories" or stored is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.trajectories = stored.payload.read_all().reshape(stored.shape)
        return self.trajectories

    @property
    def _shape(self) -> tuple[int, ...]:
        return self.trajectories.shape if self._stored is None else self._stored.shape

    @property
    def n_traj(self) -> int:
        return self._shape[0]

    @property
    def n_steps(self) -> int:
        return self._shape[1] - 1

    @property
    def state_shape(self) -> tuple[int, ...]:
        return self._shape[2:]

    @property
    def state_kind(self) -> str:
        return "vector" if len(self.state_shape) == 1 else "field"

    def all_states(self) -> np.ndarray:
        return self.trajectories.reshape(-1, *self.state_shape)

    def blocks(self, n_states: int, rows: slice = slice(None)):
        """Yield ``(t, states)`` for times ``0..n_states-1`` of the trajectories
        ``rows``, in order: ``states`` holds times ``t, t+1, ...`` as an
        (n_rows, k, ...) view of one buffer of ``_BLOCK_BYTES`` (or of one time
        step), which the next block overwrites and the caller may overwrite
        too.  A split not yet read whole reads a block from ``data.bin`` with
        one read per trajectory."""
        index = range(self.n_traj)[rows]
        state_bytes = 8 * math.prod(self.state_shape)
        buf = np.empty((len(index), max(1, _BLOCK_BYTES // (len(index) * state_bytes)),
                        *self.state_shape), dtype="<f8")  # the byte order of data.bin
        on_disk = "trajectories" not in self.__dict__
        with self._stored.payload.reader() if on_disk else nullcontext() as read:
            for t in range(0, n_states, buf.shape[1]):
                block = buf[:, :n_states - t]
                if on_disk:
                    for out, i in zip(block, index):
                        read(out, (i * self._shape[1] + t) * state_bytes)
                else:
                    block[...] = self.trajectories[rows, t:t + block.shape[1]]
                yield t, block


def check_dataset(system: str, params: dict) -> None:
    """Raise ``ValueError("<key> must be <requirement>, got <value>")`` for the
    first rule of ``system``'s generator that ``params``, its merged keyword
    values, fails.  The rules run in order, so each may assume the ones above it."""
    for key, holds, requirement in DATASET_RULES[system]:
        if not holds(params):
            raise ValueError(f"{key} must be {requirement}, got {params[key]}")


def _multiple(x: float, step: float) -> bool:
    """Whether ``x`` is an integer multiple of the positive ``step``, to rounding."""
    n = x / step
    return math.isfinite(n) and abs(round(n) * step - x) <= 1e-9 * step


def _stream(seed: int, split: str, index: int, attempt: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, SPLITS.index(split), index, attempt)))


def _members(counts: dict) -> list[tuple[str, int]]:
    """``(split, index)`` of every sequence in ``{split: count}``, split by
    split in ``SPLITS`` order: the rows of the one simulated batch."""
    return [(split, i) for split in sorted(counts, key=SPLITS.index)
            for i in range(counts[split])]


def _by_split(counts: dict, batch: np.ndarray) -> dict[str, np.ndarray]:
    """``{split: rows}`` of a batch laid out as ``_members``, for each split
    that has sequences."""
    ends = np.cumsum([counts.get(split, 0) for split in SPLITS])
    return {split: rows for split, rows in zip(SPLITS, np.split(batch, ends[:-1])) if len(rows)}


def _chunks(n: int, state_shape) -> list[slice]:
    """Slices of ``n`` rows of ``state_shape`` states, ``_CHUNK_BYTES`` (or one row) each."""
    rows = max(1, _CHUNK_BYTES // (8 * math.prod(state_shape)))
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


# ---------------------------------------------------------------------------
# true dynamics (plain numpy, vectorized over leading axes)

def pendulum_rhs_np(omega0_sq: float, alpha: float):
    def rhs(x):
        return np.stack([x[..., 1],
                         -omega0_sq * np.sin(x[..., 0]) - alpha * x[..., 1]], axis=-1)
    return rhs


def _add_reaction(du, dv, u, v, k: float, cube) -> None:
    """``du += u - u^3 - k - v``, ``dv += u - v`` in place, term by term."""
    # u * u * u, not u**3: numpy's float power takes a slow path on negative
    # bases.  On one Xeon core over 10,000 elements, u**3 took 127 ns per
    # negative element and 3.9 ns per other one; the product took 0.9-1.4 ns.
    np.multiply(u, u, out=cube)
    cube *= u
    du += u
    du -= cube
    du -= k
    du -= v
    dv += u
    dv -= v


def reacdiff_rhs_np(a: float, b: float, k: float, dx: float):
    """FitzHugh-Nagumo on (..., 2, H, W) periodic fields, the cube taken as
    ``u * u * u``; ``gen_reacdiff`` steps the same helpers on a padded state."""
    def rhs(x):
        u, v = x[..., 0, :, :], x[..., 1, :, :]
        out = np.stack([a * laplacian_np(u, "periodic", dx),
                        b * laplacian_np(v, "periodic", dx)], axis=-3)
        _add_reaction(out[..., 0, :, :], out[..., 1, :, :], u, v, k, np.empty(u.shape))
        return out
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

# Each generator's rule list: ``(key, holds, requirement)``, where ``holds``
# reads the merged keyword values (see ``check_dataset``).
PENDULUM_RULES = (
    ("steps", lambda p: p["steps"] >= 1, "at least 1"),
    ("dt", lambda p: p["dt"] > 0, "positive"),
    ("t0_period", lambda p: p["t0_period"] > 2.0 * math.pi / math.sqrt(np.finfo(float).max),
     "positive, with (2 pi / t0_period)^2 finite"),
    ("alpha", lambda p: p["alpha"] >= 0, "non-negative"),
    ("sigma", lambda p: p["sigma"] >= 0, "non-negative"),
    ("sigma_test", lambda p: p["sigma_test"] >= 0, "non-negative"),
)


def gen_pendulum(n_traj: dict, steps: int = 40, dt: float = 0.5, t0_period: float = 12.0,
                 alpha: float = 0.2, sigma: float = 0.01, sigma_test: float = 0.0,
                 seed: int = 0) -> dict[str, Dataset]:
    """Damped-pendulum trajectories from random initial swings.

    Initial conditions are ``theta0 ~ U(-pi/2, pi/2)``, ``v0 ~ U(-1, 1)``;
    the simulator is adaptive Dormand-Prince, run on all trajectories at
    once with per-trajectory step control; white Gaussian noise is added to
    every state entry afterwards, ``sigma`` of it in train and valid and
    ``sigma_test`` in test.  Each stream draws its two initial uniforms,
    then its noise.
    """
    check_dataset("pendulum", locals())
    omega0_sq = (2.0 * np.pi / t0_period) ** 2
    rhs = pendulum_rhs_np(omega0_sq, alpha)
    t_grid = dt * np.arange(steps + 1)
    members = _members(n_traj)
    rngs = [_stream(seed, split, i) for split, i in members]
    x0 = np.array([[rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-1.0, 1.0)]
                   for rng in rngs]).reshape(len(rngs), 2)
    out = np.ascontiguousarray(dopri5(rhs, x0, t_grid).transpose(1, 0, 2))
    levels = {"train": sigma, "valid": sigma, "test": sigma_test}
    for (split, _), rng, traj in zip(members, rngs, out):
        if levels[split] > 0:
            traj += levels[split] * rng.standard_normal(traj.shape)
    return {split: Dataset(
        system="pendulum", split=split, dt=dt, trajectories=trajs,
        true_params={"omega0_sq": omega0_sq, "alpha": alpha, "t0_period": t0_period},
        noise_sigma=levels[split], seed=seed) for split, trajs in _by_split(n_traj, out).items()}


def _simulate_reacdiff_batch(x0, coeffs, warm_steps, n_fine, keep_every, dt_sim):
    """``euler_fine`` of ``reacdiff_rhs_np(*coeffs)`` on a (B, 2, H, W) ``x0``, bit
    for bit, as (B, T, 2, H, W) kept states.  The state is ghost-padded and
    channel-major, (2, B, H+2, W+2), so a fine step is a few 1-D ops.  Rows do
    not interact: a row that goes non-finite leaves the others' bits alone."""
    a, b, k, dx = coeffs
    n_rows, _, h, w = x0.shape
    state = np.zeros((2, n_rows, h + 2, w + 2))
    # the flat range of a channel's cells with four flat neighbours (deriv is 0 elsewhere)
    n, wp = state[0].size, w + 2
    mid = slice(wp + 1, n - wp - 1)
    deriv, cube = np.zeros((2, n)), np.empty(n - 2 * wp - 2)
    du, dv = deriv[:, mid]

    def rhs(x):
        pad_boundary(x[..., 1:-1, 1:-1], "periodic", out=x)  # refresh the ghost cells
        p = x.reshape(2, n)
        for d, q, coeff in ((du, p[0], a), (dv, p[1], b)):
            five_point_sum(*(q[mid.start + s:mid.stop + s] for s in (-wp, wp, -1, 1, 0)), out=d)
            d /= dx * dx
            d *= coeff
        _add_reaction(du, dv, p[0, mid], p[1, mid], k, cube)
        return deriv.reshape(x.shape)

    def run(states, steps, keep):
        state[..., 1:-1, 1:-1] = states.transpose(1, 0, 2, 3)
        return euler_fine(rhs, state, dt_sim, steps, keep,
                          lambda x: x[..., 1:-1, 1:-1].transpose(1, 0, 2, 3))

    with np.errstate(over="ignore", invalid="ignore"):  # the caller resamples such rows
        warm = run(x0, warm_steps, warm_steps)[-1] if warm_steps > 0 else x0
        return run(warm, n_fine, keep_every).swapaxes(0, 1)


REACDIFF_RULES = (
    ("grid", lambda p: p["grid"] >= 2, "at least 2"),
    ("a", lambda p: p["a"] >= 0, "non-negative"),
    ("b", lambda p: p["b"] >= 0, "non-negative"),
    ("k", lambda p: p["k"] >= 0, "non-negative"),
    ("dt_sim", lambda p: p["dt_sim"] > 0, "positive"),
    ("dt_data", lambda p: p["dt_data"] > 0, "positive"),
    ("dt_data", lambda p: _multiple(p["dt_data"], p["dt_sim"]), "an integer multiple of dt_sim"),
    ("horizon", lambda p: p["horizon"] > 0 and _multiple(p["horizon"], p["dt_data"]),
     "a positive integer multiple of dt_data"),
    ("t_init", lambda p: p["t_init"] <= 0 and _multiple(p["t_init"], p["dt_sim"]),
     "at most 0 and an integer multiple of dt_sim"),
    # explicit Euler on the 5-point diffusion is stable for dt <= dx^2 / (4 D)
    ("dt_sim", lambda p: 4 * p["dt_sim"] * max(p["a"], p["b"]) <= (2.0 / (p["grid"] - 1)) ** 2,
     "at most dx^2 / (4 max(a, b)), with dx = 2 / (grid - 1), for a stable Euler step"),
)


def gen_reacdiff(n_seq: dict, grid: int = 32, a: float = 1e-3, b: float = 5e-3,
                 k: float = 5e-3, dt_sim: float = 1e-3, dt_data: float = 0.1,
                 horizon: float = 2.5, t_init: float = -0.5,
                 seed: int = 0) -> dict[str, Dataset]:
    """Reaction-diffusion sequences on a periodic square grid.

    Cells start i.i.d. uniform in [0, 1] at ``t_init``; a fine explicit-Euler
    run of ``reacdiff_rhs_np`` advances to t=0, then states are kept every
    ``dt_data`` up to ``horizon``.  It runs in row chunks (see ``_chunks``)
    on a ghost-padded state updated in place.  A sequence whose stored states
    are not all finite is simulated again from its next stream, up to 20
    initial conditions, and each of its attempts that blew up is logged in
    its split's ``events``; the other rows are kept as simulated.
    """
    check_dataset("reacdiff", locals())
    keep_every = round(dt_data / dt_sim)
    warm_steps = round(-t_init / dt_sim)
    n_keep = round(horizon / dt_data)
    n_fine = n_keep * keep_every
    dx = 2.0 / (grid - 1)
    coeffs = (a, b, k, dx)
    members = _members(n_seq)
    out = np.empty((len(members), n_keep + 1, 2, grid, grid))
    attempts = [0] * len(members)
    pending = list(range(len(members)))
    while pending:
        for rows in _chunks(len(pending), out.shape[2:]):
            batch = pending[rows]
            x0 = np.stack([_stream(seed, *members[r], attempts[r]).random((2, grid, grid))
                           for r in batch])
            out[batch] = _simulate_reacdiff_batch(x0, coeffs, warm_steps, n_fine,
                                                  keep_every, dt_sim)
        pending = [r for r in pending if not np.isfinite(out[r]).all()]  # a row's mask at a time
        for r in pending:
            split, i = members[r]
            log.info("reacdiff %s sequence %d blew up (attempt %d); resampling",
                     split, i, attempts[r])
            attempts[r] += 1
            if attempts[r] == 20:
                raise BlowUpError(f"{split} sequence {i}: 20 initial conditions all blew up")
    events: dict = {split: [] for split in SPLITS}
    for (split, i), n in zip(members, attempts):
        events[split] += [{"kind": "resampled_initial_condition", "sequence": i,
                           "attempt": attempt} for attempt in range(n)]
    return {split: Dataset(
        system="reacdiff", split=split, dt=dt_data, trajectories=seqs,
        true_params={"a": a, "b": b, "k": k}, noise_sigma=0.0, seed=seed,
        grid={"dx": dx, "bc": "periodic"}, events=events[split])
        for split, seqs in _by_split(n_seq, out).items()}


WAVE_RULES = (
    ("grid", lambda p: p["grid"] >= 8, "at least 8"),
    ("c", lambda p: p["c"] >= 0, "non-negative"),
    ("k", lambda p: p["k"] >= 0, "non-negative"),
    ("dt", lambda p: p["dt"] > 0, "positive"),
    ("n_steps", lambda p: p["n_steps"] >= 1, "at least 1"),
    ("sigma_lo", lambda p: p["sigma_lo"] > 0, "positive"),
    ("sigma_hi", lambda p: p["sigma_hi"] >= p["sigma_lo"], "at least sigma_lo"),
    # RK4 with the 4th-order Laplacian at dx = 1 is stable for c dt <= 2 sqrt(2) / sqrt(32 / 3)
    ("dt", lambda p: p["c"] * p["dt"] <= 0.866, "at most 0.866 / c, for a stable RK4 step"),
)


def gen_wave(n_seq: dict, grid: int = 64, c: float = 330.0, k: float = 50.0,
             dt: float = 1e-3, n_steps: int = 25, sigma_lo: float = 10.0,
             sigma_hi: float = 100.0, seed: int = 0) -> dict[str, Dataset]:
    """Damped-wave sequences from centered Gaussian bumps at rest.

    The initial displacement is ``exp(-((x-x0)^2 + (y-y0)^2) / sigma^2)`` with
    unit amplitude, ``sigma`` drawn per sequence from ``[sigma_lo, sigma_hi)``
    and the center at ``(grid//2, grid//2)``; the initial velocity is zero.  The
    simulator is fixed-step RK4 with a 4th-order Laplacian and zero-Neumann
    boundaries, in row chunks (see ``_chunks``).  No observation noise is added.
    """
    check_dataset("wave", locals())
    rhs = wave_rhs_np(c, k, dx=1.0, order=4)
    center = grid // 2
    xs = np.arange(grid, dtype=np.float64)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    r_sq = (xx - center) ** 2 + (yy - center) ** 2

    members = _members(n_seq)
    out = np.zeros((len(members), n_steps + 1, 2, grid, grid))
    for row, (split, i) in enumerate(members):
        sigma = _stream(seed, split, i).uniform(sigma_lo, sigma_hi)
        out[row, 0, 0] = np.exp(-r_sq / (sigma * sigma))
    for rows in _chunks(len(members), out.shape[2:]):
        x = out[rows, 0]
        for step in range(1, n_steps + 1):
            x = rk4_step(rhs, x, dt)
            out[rows, step] = x
    return {split: Dataset(
        system="wave", split=split, dt=dt, trajectories=seqs,
        true_params={"c": c, "k": k}, noise_sigma=0.0, seed=seed,
        grid={"dx": 1.0, "bc": "neumann_zero"}) for split, seqs in _by_split(n_seq, out).items()}


DATASET_RULES = {"pendulum": PENDULUM_RULES, "reacdiff": REACDIFF_RULES, "wave": WAVE_RULES}


# ---------------------------------------------------------------------------
# persistence

def save_dataset(ds: Dataset, path) -> None:
    # every field but the trajectories, which the header describes by shape
    meta = {f.name: getattr(ds, f.name) for f in fields(ds) if f.name != "trajectories"}
    meta.update(format_version=DATASET_VERSION, kind="trajectory-dataset",
                state_kind=ds.state_kind, state_shape=list(ds.state_shape),
                n_traj=ds.n_traj, n_states=ds.trajectories.shape[1])
    save_artifact(path, "meta.json", "data.bin", meta, ds.trajectories)


def load_dataset(path) -> Dataset:
    """The split saved under ``path``, its CRC checked here, once.

    Its shape and recipe come from ``meta.json``; its states stay in
    ``data.bin`` until read, block by block (``Dataset.blocks``) or whole on
    the first use of ``trajectories``.  A read that finds ``data.bin``
    shorter than it was here raises ``DatasetError``."""
    meta, payload = open_artifact(path, "meta.json", "data.bin", DATASET_VERSION, DatasetError)
    with describing("meta.json", "data.bin", DatasetError):
        shape = (meta["n_traj"], meta["n_states"], *meta["state_shape"])
        if min(shape) < 1:
            raise ValueError(f"non-positive dimension in {shape}")
        if 8 * math.prod(shape) != payload.size:
            raise ValueError(f"cannot reshape array of size {payload.size // 8} "
                             f"into shape {shape}")
        # every field save_dataset wrote; a field with a default may be absent
        ds = Dataset(trajectories=_StoredStates(payload, shape),
                     **{f.name: meta[f.name] for f in fields(Dataset) if f.name in meta})
        if ds.state_kind != meta["state_kind"]:
            raise ValueError(f"state_kind {meta['state_kind']!r} disagrees with "
                             f"state_shape {meta['state_shape']}")
    return ds
