import dataclasses
import json

import numpy as np
import pytest

from aphynity import datagen
from aphynity.datagen import (
    Dataset, DatasetError, gen_pendulum, gen_reacdiff, gen_wave,
    load_dataset, save_dataset, pendulum_rhs_np, reacdiff_rhs_np, wave_rhs_np,
)
from aphynity.diffcore import Tensor
from aphynity.integrators import BlowUpError, dopri5, euler_fine, rk4_step
from aphynity.metrics import evaluate
from aphynity.models import AugmentedDynamics
from aphynity.physics import ReactionDiffusionDynamics, laplacian_np, make_family


def test_pendulum_dataset_shape_and_metadata():
    ds = gen_pendulum({"train": 4}, steps=40, seed=1)["train"]
    assert ds.trajectories.shape == (4, 41, 2)
    assert ds.dt == 0.5
    assert ds.true_params["t0_period"] == 12.0
    assert ds.true_params["omega0_sq"] == pytest.approx((2 * np.pi / 12) ** 2)


def test_pendulum_frictionless_noiseless_conserves_energy():
    ds = gen_pendulum({"train": 5}, steps=40, alpha=0.0, sigma=0.0, seed=2)["train"]
    w2 = ds.true_params["omega0_sq"]
    for i in range(ds.n_traj):
        states = ds.trajectories[i]
        e = 0.5 * states[:, 1] ** 2 + w2 * (1 - np.cos(states[:, 0]))
        assert np.max(np.abs(e - e[0]) / e[0]) < 1e-6


def test_pendulum_damped_amplitude_envelope_decays():
    ds = gen_pendulum({"train": 5}, steps=40, alpha=0.2, sigma=0.0, seed=3)["train"]
    for i in range(ds.n_traj):
        theta = np.abs(ds.trajectories[i, :, 0])
        peaks = [theta[j] for j in range(1, len(theta) - 1)
                 if theta[j] >= theta[j - 1] and theta[j] >= theta[j + 1]]
        assert len(peaks) >= 3
        for prev, nxt in zip(peaks[:-1], peaks[1:]):
            assert nxt < prev * (1 + 1e-9)


def test_pendulum_same_seed_reproduces_bytes():
    a = gen_pendulum({"train": 3}, steps=10, seed=7)["train"]
    b = gen_pendulum({"train": 3}, steps=10, seed=7)["train"]
    assert a.trajectories.tobytes() == b.trajectories.tobytes()


def test_pendulum_trajectories_do_not_depend_on_split_size():
    few = gen_pendulum({"valid": 3}, steps=20, seed=9)["valid"]
    more = gen_pendulum({"valid": 5}, steps=20, seed=9)["valid"]
    assert more.trajectories[:3].tobytes() == few.trajectories.tobytes()


def test_pendulum_dopri5_agrees_with_finer_rk4_reference():
    ds = gen_pendulum({"train": 3}, steps=40, sigma=0.0, seed=5)["train"]
    rhs = pendulum_rhs_np(ds.true_params["omega0_sq"], ds.true_params["alpha"])
    for i in range(ds.n_traj):
        x = ds.trajectories[i, 0].copy()
        ref = [x]
        for _ in range(40 * 10):  # 10x finer fixed-step reference
            x = rk4_step(rhs, x, ds.dt / 10)
            ref.append(x)
        ref = np.asarray(ref)[::10]
        assert np.max(np.abs(ref - ds.trajectories[i])) < 1e-6


def test_splits_are_disjoint_and_deterministic():
    splits = [gen_pendulum({s: 3}, steps=5, seed=11)[s]
              for s in ("train", "valid", "test")]
    for i in range(len(splits)):
        for j in range(i + 1, len(splits)):
            assert not np.array_equal(splits[i].trajectories, splits[j].trajectories)
    again = gen_pendulum({"valid": 3}, steps=5, seed=11)["valid"]
    assert again.trajectories.tobytes() == splits[1].trajectories.tobytes()


COUNTS = {"train": 3, "valid": 2, "test": 2}


def assert_each_split_equals(splits, simulate_alone):
    """Every split of one combined run equals, byte for byte, a simulation of
    that split's streams and nothing else."""
    assert list(splits) == list(COUNTS)
    for split, n in COUNTS.items():
        rngs = [datagen._stream(splits[split].seed, split, i) for i in range(n)]
        assert splits[split].split == split
        assert splits[split].trajectories.tobytes() == simulate_alone(split, rngs).tobytes()


def test_pendulum_one_run_equals_each_split_simulated_alone():
    splits = gen_pendulum(COUNTS, steps=10, sigma=0.01, sigma_test=0.03, seed=67)
    rhs = pendulum_rhs_np(splits["train"].true_params["omega0_sq"], 0.2)

    def simulate_alone(split, rngs):
        x0 = np.array([[rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-1.0, 1.0)]
                       for rng in rngs])
        out = dopri5(rhs, x0, 0.5 * np.arange(11)).transpose(1, 0, 2)
        sigma = 0.03 if split == "test" else 0.01
        return np.stack([traj + sigma * rng.standard_normal(traj.shape)
                         for rng, traj in zip(rngs, out)])
    assert_each_split_equals(splits, simulate_alone)
    assert [ds.noise_sigma for ds in splits.values()] == [0.01, 0.01, 0.03]


def diffusion_rhs(a, b, dx):
    """The reaction-diffusion rhs with its reaction terms dropped."""
    def rhs(x):
        return np.stack([a * laplacian_np(x[..., 0, :, :], "periodic", dx),
                         b * laplacian_np(x[..., 1, :, :], "periodic", dx)], axis=-3)
    return rhs


def test_reacdiff_zero_dynamics_constant_trajectory():
    x0 = np.random.default_rng(13).random((2, 2, 8, 8))
    traj = euler_fine(diffusion_rhs(0.0, 0.0, 2.0 / 7), x0, 1e-3, 500, 100)
    for t in range(traj.shape[0]):
        np.testing.assert_array_equal(traj[t], traj[0])


def test_reacdiff_diffusion_only_conserves_mass():
    x0 = np.random.default_rng(17).random((2, 2, 12, 12))
    traj = euler_fine(diffusion_rhs(1e-3, 5e-3, 2.0 / 11), x0, 1e-3, 1500, 100)
    mass = traj.sum(axis=(3, 4))  # per time, sequence, channel
    rel = np.abs(mass - mass[:1]) / np.abs(mass[:1])
    assert rel.max() < 1e-8


def test_reacdiff_shapes_and_grid_metadata():
    ds = gen_reacdiff({"train": 3}, grid=10, horizon=0.3, seed=19)["train"]
    assert ds.trajectories.shape == (3, 4, 2, 10, 10)
    assert ds.grid["bc"] == "periodic"
    assert ds.grid["dx"] == pytest.approx(2.0 / 9.0)
    assert ds.dt == 0.1


def test_reacdiff_same_seed_identical():
    a = gen_reacdiff({"train": 2}, grid=8, horizon=0.2, seed=23)["train"]
    b = gen_reacdiff({"train": 2}, grid=8, horizon=0.2, seed=23)["train"]
    assert a.trajectories.tobytes() == b.trajectories.tobytes()


def test_reacdiff_one_run_equals_each_split_simulated_alone():
    grid = 8
    splits = gen_reacdiff(COUNTS, grid=grid, horizon=0.2, t_init=-0.1, seed=71)
    rhs = reacdiff_rhs_np(1e-3, 5e-3, 5e-3, 2.0 / (grid - 1))

    def simulate_alone(split, rngs):
        x0 = np.stack([rng.random((2, grid, grid)) for rng in rngs])
        warm = euler_fine(rhs, x0, 1e-3, 100, 100)[-1]
        return euler_fine(rhs, warm, 1e-3, 200, 100).transpose(1, 0, 2, 3, 4)
    assert_each_split_equals(splits, simulate_alone)


def test_reacdiff_rejects_incompatible_step_sizes():
    with pytest.raises(ValueError):
        gen_reacdiff({"train": 1}, grid=8, dt_sim=3e-4, dt_data=0.1)


def overflowing_streams(monkeypatch, forced):
    """Make each ``(split, index, attempt)`` stream for which ``forced`` holds
    draw an initial condition with one entry at 2e103, whose cube overflows,
    so that the simulation of that draw goes non-finite."""
    stream = datagen._stream

    class Overflowing:
        def __init__(self, rng):
            self.rng = rng

        def random(self, shape):
            x = self.rng.random(shape)
            x[0, 3, 5] = 2e103
            return x

    def patched(seed, split, index, attempt=0):
        rng = stream(seed, split, index, attempt)
        return Overflowing(rng) if forced(split, index, attempt) else rng
    monkeypatch.setattr(datagen, "_stream", patched)


def test_reacdiff_resamples_a_sequence_whose_simulation_blows_up(monkeypatch):
    # train sequence 1 and valid sequence 0 blow up on their first initial
    # conditions only
    seed, grid, a, b, k = 29, 8, 1e-3, 5e-3, 5e-3
    overflowing_streams(monkeypatch, lambda split, i, attempt:
                        attempt == 0 and (split, i) in (("train", 1), ("valid", 0)))
    splits = gen_reacdiff({"train": 3, "valid": 2}, grid=grid, a=a, b=b, k=k,
                          horizon=0.2, seed=seed)
    assert splits["train"].events == [{"kind": "resampled_initial_condition",
                                       "sequence": 1, "attempt": 0}]
    assert splits["valid"].events == [{"kind": "resampled_initial_condition",
                                       "sequence": 0, "attempt": 0}]
    # a direct simulation: 500 warm-up steps from t=-0.5, then every 100th of 200
    rhs = reacdiff_rhs_np(a, b, k, 2.0 / (grid - 1))
    for split, i, attempt in (("train", 0, 0), ("train", 1, 1), ("train", 2, 0),
                              ("valid", 0, 1), ("valid", 1, 0)):
        x0 = datagen._stream(seed, split, i, attempt).random((2, grid, grid))
        warm = euler_fine(rhs, x0, 1e-3, 500, 500)[-1]
        np.testing.assert_array_equal(splits[split].trajectories[i],
                                      euler_fine(rhs, warm, 1e-3, 200, 100))


def test_reacdiff_lists_events_sequence_by_sequence(monkeypatch):
    # train sequence 1 blows up twice and sequence 2 once: the second pass
    # finds sequence 1's second blow-up after sequence 2's first, but the
    # events keep each sequence's attempts together, in sequence order
    seed, grid = 59, 8
    attempts = {("train", 1): 2, ("train", 2): 1, ("valid", 0): 1}
    overflowing_streams(monkeypatch,
                        lambda split, i, attempt: attempt < attempts.get((split, i), 0))
    splits = gen_reacdiff({"train": 3, "valid": 2}, grid=grid, horizon=0.2, t_init=-0.1,
                          seed=seed)
    assert splits["train"].events == [
        {"kind": "resampled_initial_condition", "sequence": 1, "attempt": 0},
        {"kind": "resampled_initial_condition", "sequence": 1, "attempt": 1},
        {"kind": "resampled_initial_condition", "sequence": 2, "attempt": 0}]
    assert splits["valid"].events == [{"kind": "resampled_initial_condition",
                                       "sequence": 0, "attempt": 0}]
    rhs = reacdiff_rhs_np(1e-3, 5e-3, 5e-3, 2.0 / (grid - 1))
    for split, ds in splits.items():
        for i in range(ds.n_traj):
            x0 = datagen._stream(seed, split, i, attempts.get((split, i), 0)).random(
                (2, grid, grid))
            warm = euler_fine(rhs, x0, 1e-3, 100, 100)[-1]
            np.testing.assert_array_equal(ds.trajectories[i],
                                          euler_fine(rhs, warm, 1e-3, 200, 100))


def test_reacdiff_gives_up_after_twenty_initial_conditions(monkeypatch):
    overflowing_streams(monkeypatch, lambda split, i, attempt: True)
    with pytest.raises(BlowUpError, match="sequence 0: 20 initial conditions all blew up"):
        gen_reacdiff({"train": 2}, grid=8, horizon=0.2, seed=31)


@pytest.mark.parametrize("row", [0, 2, 3], ids=["first", "middle", "last"])
@pytest.mark.parametrize("warm_steps", [0, 30])
def test_reacdiff_simulation_keeps_a_blown_row_to_itself(row, warm_steps):
    # one entry near 1e103 overflows the cube; the rows are simulated apart
    coeffs = (1e-3, 5e-3, 5e-3, 2.0 / 7)
    x0 = np.random.default_rng(37).random((4, 2, 8, 8))
    blown = x0.copy()
    blown[row, 0, 3, 5] = 2e103
    clean = datagen._simulate_reacdiff_batch(x0, coeffs, warm_steps, 40, 20, 1e-3)
    out = datagen._simulate_reacdiff_batch(blown, coeffs, warm_steps, 40, 20, 1e-3)
    assert out.shape == clean.shape == (4, 3, 2, 8, 8)
    assert not np.isfinite(out[row, 1:]).any()
    others = [r for r in range(4) if r != row]
    assert out[others].tobytes() == clean[others].tobytes()


def test_reacdiff_rhs_agrees_with_the_physical_family():
    # both take the cube as a product; they differ only in how they group the
    # sum, so by a few ulps of the sum of the terms' magnitudes
    rng = np.random.default_rng(41)
    dx = 2.0 / 15
    family = ReactionDiffusionDynamics("abk", init={"a": 1e-3, "b": 5e-3, "k": 5e-3}, dx=dx)
    p = family.param_values()
    for scale in (0.1, 1.0, 3.0):
        x = scale * rng.uniform(-1.0, 1.0, (4, 2, 16, 16))
        ours = reacdiff_rhs_np(**p, dx=dx)(x)
        theirs = family.rhs(Tensor(x)).values
        u, v = np.abs(x[:, 0]), np.abs(x[:, 1])
        diffusion = [np.abs(laplacian_np(x[:, c], "periodic", dx)) for c in (0, 1)]
        terms = np.stack([p["a"] * diffusion[0] + u + u ** 3 + p["k"] + v,
                          p["b"] * diffusion[1] + u + v], axis=1)
        assert np.all(np.abs(ours - theirs) <= 4 * np.spacing(terms))


def split_bytes(splits):
    return {split: (ds.trajectories.tobytes(), ds.events) for split, ds in splits.items()}


@pytest.mark.parametrize("rows", [1, 2])
def test_field_chunk_size_changes_no_bits(monkeypatch, rows):
    reacdiff = dict(grid=8, horizon=0.2, t_init=-0.1, seed=43)
    wave = dict(grid=16, n_steps=5, seed=47)
    default = (split_bytes(gen_reacdiff(COUNTS, **reacdiff)),
               split_bytes(gen_wave(COUNTS, **wave)))
    monkeypatch.setattr(datagen, "_CHUNK_BYTES", rows * 2 * 8 * 8 * 8)
    reacdiff_chunked = split_bytes(gen_reacdiff(COUNTS, **reacdiff))
    monkeypatch.setattr(datagen, "_CHUNK_BYTES", rows * 2 * 16 * 16 * 8)
    assert datagen._chunks(7, (2, 16, 16)) == [slice(lo, lo + rows) for lo in range(0, 7, rows)]
    assert (reacdiff_chunked, split_bytes(gen_wave(COUNTS, **wave))) == default


@pytest.mark.parametrize("rows", [1, 2, 256])
def test_reacdiff_blow_up_of_one_chunk_resamples_as_before(monkeypatch, rows):
    # train sequence 1 blows up on its first initial condition, in whichever
    # chunk holds it; 256 rows of 2x8x8 is the default
    seed, grid = 53, 8
    overflowing_streams(monkeypatch,
                        lambda split, i, attempt: (split, i, attempt) == ("train", 1, 0))
    monkeypatch.setattr(datagen, "_CHUNK_BYTES", rows * 2 * grid * grid * 8)
    splits = gen_reacdiff(COUNTS, grid=grid, horizon=0.2, t_init=-0.1, seed=seed)
    assert splits["train"].events == [{"kind": "resampled_initial_condition",
                                       "sequence": 1, "attempt": 0}]
    assert splits["valid"].events == splits["test"].events == []
    rhs = reacdiff_rhs_np(1e-3, 5e-3, 5e-3, 2.0 / (grid - 1))
    for split, n in COUNTS.items():
        for i in range(n):
            x0 = datagen._stream(seed, split, i, int((split, i) == ("train", 1))).random(
                (2, grid, grid))
            warm = euler_fine(rhs, x0, 1e-3, 100, 100)[-1]
            np.testing.assert_array_equal(splits[split].trajectories[i],
                                          euler_fine(rhs, warm, 1e-3, 200, 100))


def test_wave_zero_speed_zero_damping_is_constant():
    ds = gen_wave({"train": 2}, grid=16, c=0.0, k=0.0, n_steps=20, seed=29)["train"]
    for t in range(ds.trajectories.shape[1]):
        np.testing.assert_array_equal(ds.trajectories[:, t], ds.trajectories[:, 0])


def test_wave_overdamped_energy_nonincreasing():
    ds = gen_wave({"train": 2}, grid=32, c=2.0, k=50.0, n_steps=80,
                  sigma_lo=3.0, sigma_hi=5.0, seed=31)["train"]
    for i in range(ds.n_traj):
        w = ds.trajectories[i, :, 0]
        v = ds.trajectories[i, :, 1]
        gx = np.diff(w, axis=1)
        gy = np.diff(w, axis=2)
        energy = (0.5 * (v ** 2).sum(axis=(1, 2))
                  + 0.5 * 4.0 * ((gx ** 2).sum(axis=(1, 2)) + (gy ** 2).sum(axis=(1, 2))))
        # slack covers the mismatch between the forward-difference energy
        # functional and the 4th-order stencil driving the dynamics
        assert np.all(np.diff(energy) <= 1e-8 * energy[0])
        assert energy[-1] < energy[0]


def test_wave_initial_condition_is_unit_gaussian_at_rest():
    ds = gen_wave({"train": 3}, grid=32, n_steps=2, seed=37)["train"]
    for i in range(3):
        w0 = ds.trajectories[i, 0, 0]
        assert w0[16, 16] == pytest.approx(1.0)  # centered, amplitude 1
        assert w0.max() == pytest.approx(1.0)
        np.testing.assert_array_equal(ds.trajectories[i, 0, 1], np.zeros((32, 32)))
        assert w0[0, 0] < w0[16, 16]  # decaying, not exploding, tail


def test_wave_same_seed_identical():
    a = gen_wave({"train": 2}, grid=16, n_steps=5, seed=41)["train"]
    b = gen_wave({"train": 2}, grid=16, n_steps=5, seed=41)["train"]
    assert a.trajectories.tobytes() == b.trajectories.tobytes()


def test_wave_one_run_equals_each_split_simulated_alone():
    grid, n_steps = 16, 5
    splits = gen_wave(COUNTS, grid=grid, n_steps=n_steps, seed=73)
    rhs = wave_rhs_np(330.0, 50.0, order=4)
    xs = np.arange(grid, dtype=np.float64)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    r_sq = (xx - grid // 2) ** 2 + (yy - grid // 2) ** 2

    def simulate_alone(split, rngs):
        x = np.zeros((len(rngs), 2, grid, grid))
        for row, rng in enumerate(rngs):
            sigma = rng.uniform(10.0, 100.0)
            x[row, 0] = np.exp(-r_sq / (sigma * sigma))
        states = [x]
        for _ in range(n_steps):
            states.append(rk4_step(rhs, states[-1], 1e-3))
        return np.stack(states, axis=1)
    assert_each_split_equals(splits, simulate_alone)


def test_save_load_roundtrip_bit_exact(tmp_path):
    pendulum = gen_pendulum({"train": 3}, steps=8, seed=43)["train"]
    reacdiff = dataclasses.replace(
        gen_reacdiff({"train": 1}, grid=8, horizon=0.2, seed=43)["train"],
        events=[{"kind": "resampled_initial_condition", "sequence": 0, "attempt": 0}])
    assert reacdiff.grid is not None
    for ds in (pendulum, reacdiff):
        d1, d2 = tmp_path / ds.system / "d1", tmp_path / ds.system / "d2"
        save_dataset(ds, d1)
        loaded = load_dataset(d1)
        assert loaded.trajectories.tobytes() == ds.trajectories.tobytes()
        assert loaded.true_params == ds.true_params
        assert loaded.split == ds.split and loaded.dt == ds.dt
        # every field, so one that save_dataset writes and load_dataset drops fails
        for f in dataclasses.fields(Dataset):
            if f.name != "trajectories":
                assert getattr(loaded, f.name) == getattr(ds, f.name), f.name
        save_dataset(loaded, d2)
        assert (d1 / "data.bin").read_bytes() == (d2 / "data.bin").read_bytes()
        assert (d1 / "meta.json").read_text() == (d2 / "meta.json").read_text()


def test_load_fills_a_missing_field_that_has_a_default(tmp_path):
    save_dataset(gen_pendulum({"train": 2}, steps=4, seed=61)["train"], tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    del meta["grid"], meta["events"]
    (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
    loaded = load_dataset(tmp_path / "d")
    assert loaded.grid is None and loaded.events == []
    del meta["seed"]
    (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="seed"):
        load_dataset(tmp_path / "d")


def test_load_detects_payload_corruption(tmp_path):
    ds = gen_reacdiff({"train": 1}, grid=8, horizon=0.2, seed=47)["train"]
    save_dataset(ds, tmp_path / "d")
    blob = bytearray((tmp_path / "d" / "data.bin").read_bytes())
    blob[100] ^= 0x01
    (tmp_path / "d" / "data.bin").write_bytes(bytes(blob))
    with pytest.raises(DatasetError, match="checksum"):
        load_dataset(tmp_path / "d")


def test_load_rejects_unknown_version(tmp_path):
    ds = gen_pendulum({"train": 2}, steps=4, seed=53)["train"]
    save_dataset(ds, tmp_path / "d")
    meta = (tmp_path / "d" / "meta.json").read_text()
    (tmp_path / "d" / "meta.json").write_text(
        meta.replace('"format_version": 1', '"format_version": 9'))
    with pytest.raises(DatasetError, match="version"):
        load_dataset(tmp_path / "d")


def test_load_detects_truncation(tmp_path):
    ds = gen_pendulum({"train": 2}, steps=4, seed=59)["train"]
    save_dataset(ds, tmp_path / "d")
    blob = (tmp_path / "d" / "data.bin").read_bytes()
    (tmp_path / "d" / "data.bin").write_bytes(blob[:-16])
    with pytest.raises(DatasetError, match="truncated"):
        load_dataset(tmp_path / "d")


def test_a_payload_truncated_after_loading_raises_when_read(tmp_path):
    # the CRC is checked once, when the split is opened; later reads check their length
    ds = gen_pendulum({"test": 3}, steps=4, seed=67)["test"]
    save_dataset(ds, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    blob = (tmp_path / "d" / "data.bin").read_bytes()
    (tmp_path / "d" / "data.bin").write_bytes(blob[:len(blob) // 2])
    model = AugmentedDynamics(make_family("pendulum", "omega0", init={"omega0_sq": 0.3}), None)
    with pytest.raises(DatasetError, match="data.bin is truncated"):
        evaluate(model, loaded, horizon=4)
    with pytest.raises(DatasetError, match="data.bin is truncated"):
        loaded.trajectories


def test_load_reads_the_shape_from_the_header_and_the_states_on_first_use(tmp_path):
    ds = gen_pendulum({"valid": 3}, steps=4, seed=71)["valid"]
    save_dataset(ds, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert (loaded.n_traj, loaded.n_steps, loaded.state_shape, loaded.state_kind) == \
        (3, 4, (2,), "vector")
    assert "trajectories" not in vars(loaded)
    assert loaded.trajectories.tobytes() == ds.trajectories.tobytes()
    assert loaded.trajectories is loaded.trajectories  # read once and kept


def test_load_missing_directory(tmp_path):
    with pytest.raises(DatasetError, match="meta.json"):
        load_dataset(tmp_path / "nope")


def test_dataset_validates_invariants():
    with pytest.raises(ValueError):
        Dataset(system="pendulum", split="train", dt=0.5, trajectories=np.zeros((3, 1, 2)),
                true_params={}, noise_sigma=0.0, seed=0)
    with pytest.raises(ValueError):
        Dataset(system="pendulum", split="nope", dt=0.5, trajectories=np.zeros((3, 4, 2)),
                true_params={}, noise_sigma=0.0, seed=0)
    with pytest.raises(ValueError, match="rank 4"):
        Dataset(system="reacdiff", split="train", dt=0.1, trajectories=np.zeros((3, 4, 8, 8)),
                true_params={}, noise_sigma=0.0, seed=0)


def test_dataset_checks_the_types_of_true_params_and_grid():
    # the one rule for generators, the reader and hand-built datasets alike
    states = np.zeros((1, 2, 2, 4, 4))
    with pytest.raises(TypeError, match="true_params"):
        Dataset(system="reacdiff", split="train", dt=0.1, trajectories=states,
                true_params=[1.0], noise_sigma=0.0, seed=0)
    with pytest.raises(TypeError, match="grid"):
        Dataset(system="reacdiff", split="train", dt=0.1, trajectories=states,
                true_params={}, noise_sigma=0.0, seed=0, grid="periodic")
