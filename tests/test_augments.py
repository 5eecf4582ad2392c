import numpy as np
import pytest

import aphynity.diffcore as dc
from aphynity.artifacts import open_artifact, save_artifact
from aphynity.augments import (
    ConvNetAugmentation, ConvNetSpec, MlpAugmentation, MlpSpec, make_augmentation,
)
from aphynity.diffcore import Tensor
from aphynity.models import (
    CHECKPOINT_VERSION, AugmentedDynamics, CheckpointError, _stored_params, load_checkpoint,
    save_checkpoint,
)
from aphynity.physics import make_family

from helpers import gradcheck


def zero_params(model):
    for _, t in model.params.items():
        t.values = np.zeros_like(t.values)


def test_mlp_zero_params_give_zero_output():
    mlp = MlpAugmentation(MlpSpec(), seed=1)
    zero_params(mlp)
    out = mlp(Tensor(np.random.default_rng(0).standard_normal((5, 2))))
    np.testing.assert_array_equal(out.values, np.zeros((5, 2)))


def test_mlp_zero_tail_gives_zero_output():
    mlp = MlpAugmentation(MlpSpec(hidden=8, depth=2), seed=1)
    last_w = mlp.params["w2"]
    last_b = mlp.params["b2"]
    last_w.values = np.zeros_like(last_w.values)
    last_b.values = np.zeros_like(last_b.values)
    out = mlp(Tensor([[0.3, -0.7]]))
    np.testing.assert_array_equal(out.values, np.zeros((1, 2)))


def test_mlp_matches_independent_numpy_forward():
    rng = np.random.default_rng(2)
    mlp = MlpAugmentation(MlpSpec(), seed=7)
    x = rng.standard_normal((9, 2))
    got = mlp(Tensor(x)).values

    h = x
    for i in range(3):
        h = h @ mlp.params[f"w{i}"].values + mlp.params[f"b{i}"].values
        h = np.maximum(h, 0.0)
    expected = h @ mlp.params["w3"].values + mlp.params["b3"].values
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_mlp_rejects_wrong_width():
    mlp = MlpAugmentation(MlpSpec(), seed=0)
    with pytest.raises(ValueError):
        mlp(Tensor(np.zeros((4, 3))))


def test_convnet_zero_params_give_zero_field():
    net = ConvNetAugmentation(ConvNetSpec(), seed=3)
    zero_params(net)
    # batchnorm shift/scale zeroed too, so output collapses regardless of input
    out = net(Tensor(np.random.default_rng(1).random((2, 2, 6, 6))))
    np.testing.assert_array_equal(out.values, np.zeros((2, 2, 6, 6)))


def test_convnet_shift_equivariance_under_circular_padding():
    rng = np.random.default_rng(4)
    net = ConvNetAugmentation(ConvNetSpec(padding="circular"), seed=5)
    x = rng.standard_normal((1, 2, 8, 8))
    base = net(Tensor(x)).values
    shifted = net(Tensor(np.roll(x, (3, -2), axis=(2, 3)))).values
    np.testing.assert_allclose(shifted, np.roll(base, (3, -2), axis=(2, 3)), atol=1e-12)


def test_convnet_identical_batch_members_get_identical_outputs():
    rng = np.random.default_rng(6)
    net = ConvNetAugmentation(ConvNetSpec(), seed=8)
    field = rng.standard_normal((2, 5, 5))
    out = net(Tensor(np.stack([field, field]))).values
    # batchnorm treats both members symmetrically; BLAS may still sum the two
    # identical rows in different orders, hence the last-ulp tolerance
    np.testing.assert_allclose(out[0], out[1], atol=1e-14)


def test_convnet_output_shape_matches_input():
    net = ConvNetAugmentation(ConvNetSpec(padding="zero"), seed=9)
    for shape in ((1, 2, 4, 4), (3, 2, 7, 5)):
        out = net(Tensor(np.random.default_rng(0).random(shape)))
        assert out.shape == shape


def test_init_deterministic_per_seed():
    a = MlpAugmentation(MlpSpec(), seed=11)
    b = MlpAugmentation(MlpSpec(), seed=11)
    c = MlpAugmentation(MlpSpec(), seed=12)
    for name, t in a.params.items():
        np.testing.assert_array_equal(t.values, b.params[name].values)
    assert any(not np.array_equal(t.values, c.params[name].values)
               for name, t in a.params.items())


def test_init_weight_scale_matches_uniform_moment():
    mlp = MlpAugmentation(MlpSpec(), seed=13)
    w = mlp.params["w1"].values  # fan_in 200
    expected = (1.0 / np.sqrt(200.0)) / np.sqrt(3.0)
    assert abs(w.std() - expected) / expected < 0.10
    assert np.all(mlp.params["b1"].values == 0.0)
    net = ConvNetAugmentation(ConvNetSpec(), seed=13)
    assert np.all(net.params["g0"].values == 1.0)
    assert np.all(net.params["s0"].values == 0.0)


def randomize_biases(model, rng):
    # zero biases park whole rows exactly on the ReLU kink, where the
    # subgradient and the finite difference legitimately disagree; move off it
    for name, t in model.params.items():
        if np.all(t.values == 0.0):
            t.values = 0.3 * rng.standard_normal(t.values.shape)


def test_mlp_gradcheck_small():
    rng = np.random.default_rng(14)
    mlp = MlpAugmentation(MlpSpec(hidden=6, depth=3), seed=15)
    randomize_biases(mlp, rng)
    x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    leaves = [x] + mlp.params.tensors()

    def build():
        return dc.sum_all(dc.square(mlp(x)))

    assert gradcheck(build, leaves) < 1e-4


def test_convnet_gradcheck_small():
    rng = np.random.default_rng(16)
    net = ConvNetAugmentation(ConvNetSpec(hidden_channels=3), seed=17)
    randomize_biases(net, rng)
    x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    leaves = [x] + net.params.tensors()

    def build():
        return dc.sum_all(dc.square(net(x)))

    assert gradcheck(build, leaves) < 1e-4


def test_zeroed_residual_leaves_physical_model_bitwise_identical():
    rng = np.random.default_rng(18)
    fam = make_family("pendulum", "omega0_alpha", init={"omega0_sq": 0.27, "alpha": 0.2})
    mlp = MlpAugmentation(MlpSpec(), seed=19)
    zero_params(mlp)
    combined = AugmentedDynamics(fam, mlp)
    x = Tensor(rng.uniform(0.2, 1.2, (6, 2)))
    with dc.no_grad():
        pure = fam.rhs(x).values
        augmented = combined.rhs(x).values
    assert pure.tobytes() == augmented.tobytes()


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    fam = make_family("reacdiff", "ab", dx=0.25, init={"a": 2e-3, "b": 4e-3})
    net = ConvNetAugmentation(ConvNetSpec(padding="circular"), seed=21)
    model = AugmentedDynamics(fam, net)
    save_checkpoint(model, tmp_path / "ckpt", extra={"note": "test", "fa_norm_sq": 1.5})

    restored, extra = load_checkpoint(tmp_path / "ckpt")
    assert extra["fa_norm_sq"] == 1.5
    assert restored.physical.param_values() == pytest.approx(fam.param_values())
    x = Tensor(rng.random((2, 2, 6, 6)))
    with dc.no_grad():
        np.testing.assert_array_equal(model.rhs(x).values, restored.rhs(x).values)


def test_checkpoint_with_biases_before_batch_norm_still_loads(tmp_path):
    # ConvNet checkpoints once stored biases c0/c1 on the two convolutions
    # that feed batch norm; such a checkpoint loads and those arrays are ignored
    rng = np.random.default_rng(24)
    fam = make_family("reacdiff", "ab", dx=0.25, init={"a": 2e-3, "b": 4e-3})
    model = AugmentedDynamics(fam, ConvNetAugmentation(ConvNetSpec(padding="circular"), seed=25))
    assert "augment.c0" not in model.params and "augment.c1" not in model.params
    save_checkpoint(model, tmp_path / "new")
    manifest, payload = open_artifact(tmp_path / "new", "manifest.json", "params.bin",
                                      CHECKPOINT_VERSION, CheckpointError)
    payload = payload.read_all()
    arrays = {e["name"]: payload[e["offset"] // 8:][:np.prod(e["shape"], dtype=int)]
              .reshape(e["shape"]) for e in manifest["arrays"]}
    hidden = model.augmentation.spec.hidden_channels
    old = {}
    for name, values in arrays.items():
        if name == "augment.k1":
            old["augment.c0"] = rng.standard_normal(hidden)
        if name == "augment.k2":
            old["augment.c1"] = rng.standard_normal(hidden)
        old[name] = values
    entries, offset = [], 0
    for name, values in old.items():
        entries.append({"name": name, "shape": list(values.shape), "offset": offset})
        offset += values.nbytes
    del manifest["payload_bytes"], manifest["payload_crc32"]
    save_artifact(tmp_path / "old", "manifest.json", "params.bin",
                  {**manifest, "arrays": entries},
                  np.concatenate([v.ravel() for v in old.values()]))

    restored, _ = load_checkpoint(tmp_path / "old")
    assert [n for n, _ in restored.params.items()] == [n for n, _ in model.params.items()]
    for name, t in restored.params.items():
        assert t.values.tobytes() == model.params[name].values.tobytes(), name
    x = Tensor(rng.random((2, 2, 6, 6)))
    with dc.no_grad():
        assert restored.rhs(x).values.tobytes() == model.rhs(x).values.tobytes()


def test_checkpoint_roundtrip_frozen_physics(tmp_path):
    fam = make_family("pendulum", "omega0_alpha",
                      init={"omega0_sq": 0.274, "alpha": 0.2}, trainable=False)
    model = AugmentedDynamics(fam, None)
    save_checkpoint(model, tmp_path / "ckpt")
    restored, _ = load_checkpoint(tmp_path / "ckpt")
    assert len(restored.params) == 0
    assert restored.physical.param_values()["omega0_sq"] == pytest.approx(0.274, abs=1e-12)


@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
def test_checkpoint_roundtrip_keeps_description_and_every_array(tmp_path, trainable):
    # rebuilt from what describe() wrote, restored from the payload: a key or
    # an array that the reader drops or changes fails here
    fam = make_family("reacdiff", "abk", dx=0.25, init={"a": 2e-3, "b": 4e-3, "k": 3e-3},
                      trainable=trainable)
    model = AugmentedDynamics(fam, ConvNetAugmentation(ConvNetSpec(padding="zero"), seed=22))
    save_checkpoint(model, tmp_path / "ckpt")
    restored, _ = load_checkpoint(tmp_path / "ckpt")
    assert restored.describe() == model.describe()
    stored, restored_stored = _stored_params(model), _stored_params(restored)
    assert [n for n, _ in restored_stored.items()] == [n for n, _ in stored.items()]
    for name, t in stored.items():
        assert restored_stored[name].values.tobytes() == t.values.tobytes(), name
    assert len(restored.physical.params) == (3 if trainable else 0)


def test_checkpoint_detects_corruption(tmp_path):
    model = AugmentedDynamics(None, MlpAugmentation(MlpSpec(hidden=4, depth=1), seed=0))
    save_checkpoint(model, tmp_path / "ckpt")
    blob = bytearray((tmp_path / "ckpt" / "params.bin").read_bytes())
    blob[13] ^= 0xFF
    (tmp_path / "ckpt" / "params.bin").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_rejects_unknown_version(tmp_path):
    model = AugmentedDynamics(None, MlpAugmentation(MlpSpec(hidden=4, depth=1), seed=0))
    save_checkpoint(model, tmp_path / "ckpt")
    manifest = (tmp_path / "ckpt" / "manifest.json").read_text()
    (tmp_path / "ckpt" / "manifest.json").write_text(
        manifest.replace('"format_version": 1', '"format_version": 99'))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_detects_truncation(tmp_path):
    model = AugmentedDynamics(None, MlpAugmentation(MlpSpec(hidden=4, depth=1), seed=0))
    save_checkpoint(model, tmp_path / "ckpt")
    blob = (tmp_path / "ckpt" / "params.bin").read_bytes()
    (tmp_path / "ckpt" / "params.bin").write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "ckpt")


def test_augmented_dynamics_requires_some_component():
    with pytest.raises(ValueError):
        AugmentedDynamics(None, None)


def test_make_augmentation_roundtrip():
    net = make_augmentation({"kind": "convnet", "padding": "zero"}, seed=1)
    assert isinstance(net, ConvNetAugmentation)
    assert net.spec.padding == "zero"
    with pytest.raises(ValueError):
        make_augmentation({"kind": "transformer"})
