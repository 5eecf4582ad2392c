import json
import struct
import zlib

import pytest

from aphynity.artifacts import open_artifact, save_artifact
from aphynity.augments import ConvNetAugmentation, ConvNetSpec, MlpAugmentation, MlpSpec
from aphynity.datagen import gen_reacdiff, load_dataset, save_dataset
from aphynity.models import AugmentedDynamics, load_checkpoint, save_checkpoint
from aphynity.physics import make_family


class FormatError(RuntimeError):
    pass


def test_save_artifact_writes_the_documented_layout(tmp_path):
    save_artifact(tmp_path / "a", "head.json", "body.bin", {"format_version": 7, "x": [1]},
                  [1.5, -2.0])
    body = struct.pack("<2d", 1.5, -2.0)
    assert (tmp_path / "a" / "body.bin").read_bytes() == body
    header = {"format_version": 7, "payload_bytes": 16,
              "payload_crc32": zlib.crc32(body), "x": [1]}
    assert (tmp_path / "a" / "head.json").read_text() == \
        json.dumps(header, indent=1, sort_keys=True)
    loaded, payload = open_artifact(tmp_path / "a", "head.json", "body.bin", 7, FormatError)
    assert loaded == header
    assert payload.read_all().tolist() == [1.5, -2.0]
    with pytest.raises(FormatError, match="version"):
        open_artifact(tmp_path / "a", "head.json", "body.bin", 8, FormatError)


def resave_dataset(src, dst):
    save_dataset(load_dataset(src), dst)


def resave_checkpoint(src, dst):
    model, extra = load_checkpoint(src)
    save_checkpoint(model, dst, extra=extra)


ARTIFACTS = {
    "dataset-field": (
        lambda path: save_dataset(
            gen_reacdiff({"train": 2}, grid=8, horizon=0.2, seed=3)["train"], path),
        resave_dataset, ("meta.json", "data.bin")),
    "checkpoint-trainable": (
        lambda path: save_checkpoint(AugmentedDynamics(
            make_family("reacdiff", "ab", dx=0.25, init={"a": 2e-3, "b": 4e-3}),
            ConvNetAugmentation(ConvNetSpec(padding="circular"), seed=3)),
            path, extra={"seed": 3, "fa_norm_sq": 0.5}),
        resave_checkpoint, ("manifest.json", "params.bin")),
    "checkpoint-frozen": (
        lambda path: save_checkpoint(AugmentedDynamics(
            make_family("pendulum", "omega0_alpha", init={"omega0_sq": 0.3, "alpha": 0.1},
                        trainable=False),
            MlpAugmentation(MlpSpec(hidden=4, depth=1), seed=3)), path),
        resave_checkpoint, ("manifest.json", "params.bin")),
}


@pytest.mark.parametrize("kind", list(ARTIFACTS))
def test_save_load_save_writes_identical_bytes(tmp_path, kind):
    save, resave, files = ARTIFACTS[kind]
    save(tmp_path / "a")
    resave(tmp_path / "a", tmp_path / "b")
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def longer(path):
    path.write_bytes(path.read_bytes() + struct.pack("<d", 0.0))


def shorter(path):
    path.write_bytes(path.read_bytes()[:-8])


def one_byte_longer(path):
    path.write_bytes(path.read_bytes() + b"\0")


def flipped_bit(path):
    blob = bytearray(path.read_bytes())
    blob[3] ^= 0x01
    path.write_bytes(bytes(blob))


def replaced_by_a_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("corrupt,message", [
    (longer, "body.bin is truncated"),
    (shorter, "body.bin is truncated"),
    (one_byte_longer, "body.bin is truncated"),
    (flipped_bit, "body.bin failed its checksum"),
    (lambda path: path.unlink(), "cannot read body.bin"),
    (replaced_by_a_directory, "cannot read body.bin"),
], ids=["longer", "shorter", "one_byte_longer", "crc", "missing", "directory"])
def test_open_artifact_raises_the_owners_error_for_a_bad_payload(tmp_path, corrupt, message):
    save_artifact(tmp_path / "a", "head.json", "body.bin", {"format_version": 7},
                  [1.5, -2.0, 3.25])
    corrupt(tmp_path / "a" / "body.bin")
    with pytest.raises(FormatError, match=message):
        open_artifact(tmp_path / "a", "head.json", "body.bin", 7, FormatError)[1].read_all()
