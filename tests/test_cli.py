import concurrent.futures
import csv
import inspect
import json

import numpy as np
import pytest

from aphynity.augments import ConvNetAugmentation, ConvNetSpec, MlpAugmentation, MlpSpec
from aphynity.cli import DATASET_DEFAULTS, GENERATORS, build_model, main
from aphynity.datagen import DATASET_RULES, Dataset, gen_pendulum, load_dataset, save_dataset
from aphynity.integrators import StepUnderflowError
from aphynity.metrics import MetricsRecord, load_metrics_rows, write_metrics_csv
from aphynity.models import AugmentedDynamics, load_checkpoint, save_checkpoint
from aphynity.physics import make_family


def tiny_pendulum_config(tmp_path, **overrides):
    cfg = {
        "name": "tiny",
        "system": "pendulum",
        "physics": "complete",
        "augmentation": "none",
        "mode": "vanilla",
        "seed": 0,
        "dataset": {"n_traj_per_split": 5, "steps": 8, "dt": 0.5,
                    "t0_period": 12.0, "alpha": 0.2, "sigma": 0.0, "sigma_test": 0.0},
        "physics_init": {"omega0_sq": 0.3, "alpha": 0.1},
        "train": {"n_epochs": 30, "n_iter": 1, "tau1": 0.02,
                  "optimizer": "adam", "patience": None},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_generate_writes_three_splits(tmp_path):
    cfg = tiny_pendulum_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    for split in ("train", "valid", "test"):
        ds = load_dataset(tmp_path / "data" / split)
        assert ds.n_traj == 5
        assert ds.split == split
    assert not (tmp_path / "data" / ".partial").exists()


def test_generate_same_seed_identical_bytes(tmp_path):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")])
    for split in ("train", "valid", "test"):
        assert (tmp_path / "a" / split / "data.bin").read_bytes() == \
            (tmp_path / "b" / split / "data.bin").read_bytes()


def test_generate_rejects_unknown_system(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"system": "rocket"}))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_generate_missing_config(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2


def test_train_writes_checkpoint_and_report(tmp_path, capsys):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda=" in out and "params=" in out
    assert (tmp_path / "run" / "checkpoint" / "manifest.json").exists()
    assert (tmp_path / "run" / "report.jsonl").exists()
    assert (tmp_path / "run" / "summary.json").exists()
    assert not (tmp_path / "run" / ".partial").exists()


def test_train_seed_fanout_creates_per_seed_dirs(tmp_path):
    cfg = tiny_pendulum_config(tmp_path, train={"n_epochs": 3, "n_iter": 1,
                                                "tau1": 0.02, "optimizer": "adam",
                                                "patience": None})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "runs"), "--seeds", "1,2"])
    assert code == 0
    assert (tmp_path / "runs" / "seed-1" / "checkpoint").is_dir()
    assert (tmp_path / "runs" / "seed-2" / "checkpoint").is_dir()


def test_evaluate_true_physics_close_to_generator(tmp_path, capsys):
    # the frozen true equation trains as a no-op and scores at the
    # solver-mismatch floor (measured near -8.7 at this resolution)
    cfg = tiny_pendulum_config(
        tmp_path, physics="true", augmentation="none", mode="aphynity",
        dataset={"n_traj_per_split": 5, "steps": 40, "dt": 0.5, "t0_period": 12.0,
                 "alpha": 0.2, "sigma": 0.0, "sigma_test": 0.0},
        train={"n_epochs": 1, "n_iter": 1, "tau1": 1e-6, "optimizer": "sgd",
               "patience": None})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])
    capsys.readouterr()
    code = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == 0
    rows = load_metrics_rows(tmp_path / "eval" / "metrics.csv")
    assert float(rows[0]["log_mse"]) < -8.0


def test_evaluate_corrupted_checkpoint_exits_4(tmp_path, capsys):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])
    blob = bytearray((tmp_path / "run" / "checkpoint" / "params.bin").read_bytes())
    blob[0] ^= 0xFF
    (tmp_path / "run" / "checkpoint" / "params.bin").write_bytes(bytes(blob))
    code = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == 4


def test_evaluate_horizon_out_of_range_is_usage_error(tmp_path, capsys):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])
    code = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "eval"), "--horizon", "999"])
    assert code == 2
    assert "horizon" in capsys.readouterr().err


def test_report_aggregates_seeds_and_flags_na(tmp_path, capsys):
    cfg = tiny_pendulum_config(tmp_path, train={"n_epochs": 5, "n_iter": 1,
                                                "tau1": 0.02, "optimizer": "adam",
                                                "patience": None})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "runs"), "--seeds", "1,2,3"])
    for seed in (1, 2, 3):
        main(["evaluate",
              "--checkpoint", str(tmp_path / "runs" / f"seed-{seed}" / "checkpoint"),
              "--data", str(tmp_path / "data" / "test"),
              "--out", str(tmp_path / "evals" / f"seed-{seed}")])
    capsys.readouterr()
    code = main(["report", "--results", str(tmp_path / "evals"),
                 "--out", str(tmp_path / "summary")])
    assert code == 0
    text = capsys.readouterr().out
    assert "== pendulum ==" in text
    assert "n/a" in text  # no residual model, so the norm column is n/a
    rows = load_metrics_rows(tmp_path / "summary" / "report.csv")
    assert len(rows) == 1
    assert rows[0]["n_seeds"] == "3"
    assert rows[0]["fa_norm_sq_mean"] == "n/a"
    assert float(rows[0]["log_mse_std"]) >= 0.0


def bad_log_mse(rows):
    rows[0]["log_mse"] = "abc"


def no_system_column(rows):
    for row in rows:
        del row["system"]


@pytest.mark.parametrize("corrupt", [bad_log_mse, no_system_column],
                         ids=["log_mse_not_a_number", "no_system_column"])
def test_report_malformed_metrics_csv_exits_4(tmp_path, capsys, corrupt):
    record = MetricsRecord(run_id="r", system="pendulum", method="pendulum:omega0",
                           physics="pendulum:omega0", augmentation=None, mode="vanilla",
                           seed=0, horizon=4, log_mse=-3.5)
    write_metrics_csv([record], tmp_path / "evals" / "good" / "metrics.csv")
    rows = [record.to_row()]
    corrupt(rows)
    bad = tmp_path / "evals" / "seed-1" / "metrics.csv"
    bad.parent.mkdir(parents=True)
    with open(bad, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    code = main(["report", "--results", str(tmp_path / "evals"),
                 "--out", str(tmp_path / "summary")])
    assert code == 4
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "summary").exists()


def test_report_empty_directory_is_usage_error(tmp_path):
    assert main(["report", "--results", str(tmp_path),
                 "--out", str(tmp_path / "summary")]) == 2


def test_full_pipeline_is_deterministic(tmp_path):
    cfg = tiny_pendulum_config(tmp_path, train={"n_epochs": 10, "n_iter": 1,
                                                "tau1": 0.02, "batch_size": 2,
                                                "optimizer": "adam", "patience": None})

    def run(tag):
        base = tmp_path / tag
        main(["generate", "--config", str(cfg), "--out", str(base / "data"),
              "--seed", "5"])
        main(["train", "--config", str(cfg), "--data", str(base / "data"),
              "--out", str(base / "run"), "--seed", "5"])
        main(["evaluate", "--checkpoint", str(base / "run" / "checkpoint"),
              "--data", str(base / "data" / "test"), "--out", str(base / "eval")])
        return (base / "eval" / "metrics.csv").read_bytes()

    assert run("one") == run("two")


def test_builtin_configs_validate(tmp_path):
    from aphynity.cli import builtin_config_dir, load_config
    names = sorted(p.name for p in builtin_config_dir().glob("*.json"))
    assert len(names) == 6
    for name in names:
        cfg = load_config(builtin_config_dir() / name)
        assert cfg["system"] in ("pendulum", "reacdiff", "wave")
        load_config(builtin_config_dir() / name, downscale=True)


def test_incompatible_checkpoint_and_data(tmp_path, capsys):
    cfg = tiny_pendulum_config(tmp_path, augmentation="mlp",
                               train={"n_epochs": 2, "n_iter": 1, "tau1": 0.01,
                                      "optimizer": "adam", "patience": None})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])
    rd_cfg = tmp_path / "rd.json"
    rd_cfg.write_text(json.dumps({
        "name": "rd", "system": "reacdiff", "physics": "none",
        "augmentation": "convnet", "mode": "vanilla",
        "dataset": {"n_train": 1, "n_valid": 0, "n_test": 1, "grid": 8,
                    "horizon": 0.2},
        "train": {"n_epochs": 1, "tau1": 0.01, "optimizer": "adam",
                  "patience": None}}))
    main(["generate", "--config", str(rd_cfg), "--out", str(tmp_path / "rd_data")])
    code = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "rd_data" / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == 2


def vector_data(path):
    save_dataset(Dataset(system="pendulum", split="test", dt=0.5,
                         trajectories=np.zeros((2, 3, 2)), true_params={}, noise_sigma=0.0,
                         seed=0), path)


def field_data(path):
    save_dataset(Dataset(system="reacdiff", split="test", dt=0.1,
                         trajectories=np.zeros((2, 3, 2, 8, 8)), true_params={},
                         noise_sigma=0.0, seed=0, grid={"dx": 0.25, "bc": "periodic"}), path)


@pytest.mark.parametrize("residual,write_data,expected", [
    (MlpAugmentation(MlpSpec(hidden=4, depth=1)), field_data, "(B, 2) state batch"),
    (ConvNetAugmentation(ConvNetSpec(hidden_channels=4)), vector_data,
     "(B, 2, H, W) state batch"),
    (MlpAugmentation(MlpSpec(in_dim=3, hidden=4, depth=1, out_dim=3)), vector_data,
     "(B, 3) state batch"),
    (ConvNetAugmentation(ConvNetSpec(in_channels=3, hidden_channels=4, out_channels=3)),
     field_data, "(B, 3, H, W) state batch"),
], ids=["mlp_on_fields", "convnet_on_vectors", "mlp_in_dim_3", "convnet_in_channels_3"])
def test_evaluate_refuses_states_the_residual_does_not_take(tmp_path, capsys, residual,
                                                            write_data, expected):
    # the refusal comes from the residual's own input check, before any output
    save_checkpoint(AugmentedDynamics(None, residual), tmp_path / "checkpoint")
    write_data(tmp_path / "test")
    code = main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint"),
                 "--data", str(tmp_path / "test"), "--out", str(tmp_path / "eval")])
    assert code == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("residual,write_data,key,message", [
    (MlpAugmentation(MlpSpec(hidden=4, depth=1)), vector_data, "out_dim",
     "out_dim 3 differs from in_dim 2"),
    (ConvNetAugmentation(ConvNetSpec(hidden_channels=4)), field_data, "out_channels",
     "out_channels 3 differs from in_channels 2"),
], ids=["mlp", "convnet"])
def test_evaluate_rejects_a_residual_whose_output_width_differs_from_its_input(
        tmp_path, capsys, residual, write_data, key, message):
    # the specs refuse such a residual, so only an edited manifest can hold one
    save_checkpoint(AugmentedDynamics(None, residual), tmp_path / "checkpoint")
    manifest_path = tmp_path / "checkpoint" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["model"]["augmentation"][key] = 3
    manifest_path.write_text(json.dumps(manifest))
    write_data(tmp_path / "test")
    code = main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint"),
                 "--data", str(tmp_path / "test"), "--out", str(tmp_path / "eval")])
    assert code == 4
    err = capsys.readouterr().err
    assert "manifest.json" in err and message in err
    assert not (tmp_path / "eval").exists()


def test_train_seed_list_without_seed_is_usage_error(tmp_path, capsys):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "runs"), "--seeds", ","])
    assert code == 2
    assert "no seed" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", [
    lambda meta: meta.pop("payload_crc32"),
    lambda meta: meta.update(state_kind="field"),
    lambda meta: meta.update(state_shape=[3]),
    lambda meta: meta.update(n_traj=-1),
    lambda meta: meta.update(true_params="x"),
    lambda meta: meta.update(grid="x"),
], ids=["no_crc", "kind_vs_shape", "shape_vs_payload", "negative_n_traj",
        "true_params_not_object", "grid_not_object"])
def test_dataset_meta_disagreeing_with_payload_exits_4(tmp_path, capsys, corrupt):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    meta_path = tmp_path / "data" / "train" / "meta.json"
    meta = json.loads(meta_path.read_text())
    corrupt(meta)
    meta_path.write_text(json.dumps(meta))
    code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")])
    assert code == 4
    assert "meta.json does not describe data.bin" in capsys.readouterr().err


def drop_array(manifest, name):
    manifest["arrays"] = [a for a in manifest["arrays"] if a["name"] != name]


def reshape_array(manifest, name):
    next(a for a in manifest["arrays"] if a["name"] == name)["shape"] = [2]


def replace_with_list(manifest, name):
    manifest[name] = [1]


def set_extra_to_text(manifest, name):
    manifest["extra"][name] = "x"


@pytest.mark.parametrize("corrupt,name", [
    (drop_array, "physics.alpha"),
    (reshape_array, "physics.omega0_sq"),
    (replace_with_list, "extra"),
    (set_extra_to_text, "seed"),
    (set_extra_to_text, "fa_norm_sq"),
], ids=["missing", "wrong_shape", "extra_not_object", "extra_seed_not_a_number",
        "extra_fa_norm_sq_not_a_number"])
def test_checkpoint_manifest_missing_array_exits_4(tmp_path, capsys, corrupt, name):
    cfg = tiny_pendulum_config(tmp_path, train={"n_epochs": 1, "n_iter": 1, "tau1": 0.02,
                                                "optimizer": "adam", "patience": None})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])
    manifest_path = tmp_path / "run" / "checkpoint" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    corrupt(manifest, name)
    manifest_path.write_text(json.dumps(manifest))
    code = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == 4
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["data/test/data.bin", "run/checkpoint/params.bin"],
                         ids=["dataset", "checkpoint"])
def test_evaluate_missing_payload_file_exits_4(tmp_path, capsys, missing):
    cfg = tiny_pendulum_config(tmp_path, train={"n_epochs": 1, "n_iter": 1, "tau1": 0.02,
                                                "optimizer": "adam", "patience": None})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])
    (tmp_path / missing).unlink()
    capsys.readouterr()
    code = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == 4
    assert f"cannot read {missing.rsplit('/', 1)[1]}" in capsys.readouterr().err


def one_epoch_run(tmp_path):
    """A tiny pendulum dataset under ``data`` and a one-epoch run under ``run``."""
    cfg = tiny_pendulum_config(tmp_path, train={"n_epochs": 1, "n_iter": 1, "tau1": 0.02,
                                                "optimizer": "adam", "patience": None})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])


def test_evaluate_of_a_payload_truncated_after_loading_exits_4(tmp_path, capsys, monkeypatch):
    one_epoch_run(tmp_path)

    def load_then_truncate(path):
        ds = load_dataset(path)
        (path / "data.bin").write_bytes((path / "data.bin").read_bytes()[:-8])
        return ds

    monkeypatch.setattr("aphynity.cli.load_dataset", load_then_truncate)
    capsys.readouterr()
    code = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"), "--out", str(tmp_path / "eval")])
    assert code == 4
    assert "data.bin is truncated" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.csv").exists()
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_evaluate_reads_the_test_split_block_by_block(tmp_path, monkeypatch):
    one_epoch_run(tmp_path)
    loaded = []
    monkeypatch.setattr("aphynity.cli.load_dataset", lambda path: loaded.append(
        load_dataset(path)) or loaded[-1])
    assert main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "eval")]) == 0
    # neither the compatibility check nor scoring reads the split whole
    assert len(loaded) == 1 and "trajectories" not in vars(loaded[0])


def header_not_object(path):
    path.write_text("[1, 2]")


def header_not_utf8(path):
    path.write_bytes(b'{"format_version": 1, "kind": "\xff"}')


def header_is_directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("fault", [header_not_object, header_not_utf8, header_is_directory],
                         ids=["not_object", "not_utf8", "directory"])
@pytest.mark.parametrize("header", ["data/test/meta.json", "run/checkpoint/manifest.json"],
                         ids=["dataset", "checkpoint"])
def test_evaluate_bad_header_exits_4(tmp_path, capsys, header, fault):
    cfg = tiny_pendulum_config(tmp_path, train={"n_epochs": 1, "n_iter": 1, "tau1": 0.02,
                                                "optimizer": "adam", "patience": None})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])
    fault(tmp_path / header)
    capsys.readouterr()
    code = main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "eval")])
    assert code == 4
    assert header.rsplit("/", 1)[1] in capsys.readouterr().err


def test_generate_rejects_unknown_dataset_key(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({
        "name": "typo", "system": "reacdiff", "physics": "incomplete",
        "augmentation": "convnet", "mode": "aphynity",
        "dataset": {"n_train": 1, "n_valid": 0, "n_test": 1, "gird": 8, "horizon": 0.2}}))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 2
    assert "gird" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_evaluate_all_trajectories_diverging_exits_3(tmp_path, capsys):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    family = make_family("pendulum", "omega0_alpha", init={"omega0_sq": 1e300, "alpha": 1e300})
    save_checkpoint(AugmentedDynamics(family, None), tmp_path / "checkpoint")
    with np.errstate(all="ignore"):
        code = main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint"),
                     "--data", str(tmp_path / "data" / "test"),
                     "--out", str(tmp_path / "eval")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.csv").exists()


FIELD_CONFIGS = {
    "reacdiff": {
        "physics": "complete",
        "dataset": {"n_train": 2, "n_valid": 1, "n_test": 1, "grid": 8, "horizon": 0.2},
        "physics_init": {"a": 5e-4, "b": 5e-4, "k": 1e-3},
        "train": {"n_epochs": 1, "n_iter": 1, "batch_size": 2, "tau1": 1e-3,
                  "optimizer": "adam", "patience": None, "max_steps": 2},
    },
    "wave": {
        "physics": "incomplete",
        "dataset": {"n_train": 2, "n_valid": 1, "n_test": 1, "grid": 8, "n_steps": 3},
        "physics_init": {"c": 200.0},
        "train": {"n_epochs": 1, "n_iter": 1, "batch_size": 2, "tau1": 1e-4,
                  "optimizer": "sgd", "max_grad_norm": 100.0, "patience": None,
                  "max_steps": 2},
    },
}


@pytest.mark.parametrize("system,variant", [("reacdiff", "abk"), ("wave", "c")])
def test_field_system_round_trip(tmp_path, capsys, system, variant):
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps({"name": system, "system": system, "augmentation": "convnet",
                               "mode": "aphynity", "seed": 0, **FIELD_CONFIGS[system]}))
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint"),
                 "--data", str(data / "test"), "--train-data", str(data / "train"),
                 "--out", str(tmp_path / "eval")]) == 0
    rows = load_metrics_rows(tmp_path / "eval" / "metrics.csv")
    assert np.isfinite(float(rows[0]["log_mse"]))
    model, _ = load_checkpoint(run / "checkpoint")
    summary = json.loads((run / "summary.json").read_text())
    assert model.physical.variant == variant
    assert model.physical.dx == load_dataset(data / "train").grid["dx"]
    assert model.physical.param_values() == summary["final_params"]


def field_config(tmp_path, system, dataset):
    cfg = {"name": system, "system": system, "physics": "incomplete",
           "augmentation": "convnet", "mode": "aphynity", "seed": 0, "dataset": dataset}
    path = tmp_path / f"{system}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("system,dataset,message", [
    ("wave", {"n_train": 1, "n_valid": 0, "n_test": 1, "grid": 4, "n_steps": 2},
     "grid must be at least 8"),
    ("reacdiff", {"n_train": 1, "n_valid": 0, "n_test": 1, "grid": 8, "horizon": 0.2,
                  "dt_sim": 0.0003, "dt_data": 0.1}, "integer multiple"),
    ("pendulum", {"t0_period": -1}, "t0_period"),
    ("reacdiff", {"n_train": 1.5, "n_valid": 0, "n_test": 1, "grid": 8, "horizon": 0.2},
     "n_train must be a non-negative integer, got 1.5"),
    ("reacdiff", {"n_train": 1, "n_valid": 0, "n_test": 1, "grid": "8", "horizon": 0.2},
     "grid must be a number, got '8'"),
    # only the valid split's size is bad: a split-by-split check would write train/ first
    ("reacdiff", {"n_train": 1, "n_valid": -1, "n_test": 1, "grid": 8, "horizon": 0.2},
     "n_valid must be a non-negative integer, got -1"),
    ("reacdiff", {"n_train": 1, "n_valid": 0, "n_test": True, "grid": 8, "horizon": 0.2},
     "n_test must be a number, got True"),
    ("wave", {"n_train": 1, "n_valid": 0, "n_test": 1, "grid": 8, "c": [330.0]},
     "c must be a number"),
    ("pendulum", {"sigma": float("inf")}, "pendulum dataset sigma must be finite, got inf"),
    ("pendulum", {"sigma": float("nan")}, "pendulum dataset sigma must be finite, got nan"),
    ("wave", {"n_train": 1, "n_valid": 0, "n_test": 1, "grid": 8, "c": float("-inf")},
     "wave dataset c must be finite, got -inf"),
])
def test_generate_bad_dataset_value_exits_2_and_writes_nothing(tmp_path, capsys, system,
                                                               dataset, message):
    cfg = (tiny_pendulum_config(tmp_path, dataset=dataset) if system == "pendulum"
           else field_config(tmp_path, system, dataset))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


# Tiny dataset sections that every rule accepts, and out-of-range values:
# ``(system, overrides, key)``, each refused by a rule on ``key``
IN_RANGE_DATASETS = {
    "pendulum": {"n_traj_per_split": 1, "steps": 4},
    "reacdiff": {"n_train": 1, "n_valid": 0, "n_test": 1, "grid": 8, "horizon": 0.2},
    "wave": {"n_train": 1, "n_valid": 0, "n_test": 1, "grid": 8, "n_steps": 2},
}
OUT_OF_RANGE_DATASETS = [
    ("pendulum", {"steps": 0}, "steps"),
    ("pendulum", {"dt": 0.0}, "dt"),
    ("pendulum", {"dt": -0.5}, "dt"),
    ("pendulum", {"t0_period": 0.0}, "t0_period"),
    ("pendulum", {"t0_period": -1.0}, "t0_period"),
    ("pendulum", {"t0_period": 1e-300}, "t0_period"),  # (2 pi / t0_period)^2 overflows
    ("pendulum", {"alpha": -0.1}, "alpha"),
    ("pendulum", {"sigma": -1.0}, "sigma"),
    ("pendulum", {"sigma_test": -1.0}, "sigma_test"),
    ("reacdiff", {"grid": 0}, "grid"),
    ("reacdiff", {"grid": 1}, "grid"),
    ("reacdiff", {"a": -1.0}, "a"),
    ("reacdiff", {"b": -1.0}, "b"),
    ("reacdiff", {"k": -1.0}, "k"),
    ("reacdiff", {"dt_sim": 0.0}, "dt_sim"),
    # would step backwards through no fine step and write uninitialized states
    ("reacdiff", {"dt_sim": -0.001}, "dt_sim"),
    ("reacdiff", {"dt_data": 0.0}, "dt_data"),
    ("reacdiff", {"dt_data": -0.1}, "dt_data"),
    ("reacdiff", {"dt_sim": 3e-4}, "dt_data"),
    ("reacdiff", {"horizon": 0.0}, "horizon"),
    ("reacdiff", {"horizon": -0.2}, "horizon"),
    ("reacdiff", {"horizon": 0.04}, "horizon"),
    ("reacdiff", {"horizon": 0.25}, "horizon"),  # would be rounded to 0.2
    # would skip the warm-up and start the data at t=0
    ("reacdiff", {"t_init": 0.3}, "t_init"),
    ("reacdiff", {"t_init": -0.00015}, "t_init"),  # would be rounded to 0
    ("reacdiff", {"a": 25.0}, "dt_sim"),  # 4 dt_sim a = 0.1 > dx^2 = 0.082
    ("wave", {"grid": 4}, "grid"),
    ("wave", {"c": -1.0}, "c"),
    ("wave", {"k": -1.0}, "k"),
    ("wave", {"dt": 0.0}, "dt"),
    ("wave", {"dt": -1e-3}, "dt"),
    ("wave", {"n_steps": 0}, "n_steps"),
    ("wave", {"sigma_lo": 0.0}, "sigma_lo"),
    ("wave", {"sigma_lo": -5.0}, "sigma_lo"),
    ("wave", {"sigma_lo": 50.0, "sigma_hi": 20.0}, "sigma_hi"),
    ("wave", {"dt": 1.0}, "dt"),  # c dt = 330
    ("wave", {"c": 870.0}, "dt"),  # c dt = 0.87
]


def dataset_config(tmp_path, system, dataset):
    dataset = {**IN_RANGE_DATASETS[system], **dataset}
    return (tiny_pendulum_config(tmp_path, dataset=dataset) if system == "pendulum"
            else field_config(tmp_path, system, dataset))


def first_refusing_rule(system, dataset):
    params = {**DATASET_DEFAULTS[system], **IN_RANGE_DATASETS[system], **dataset}
    return next((rule for rule in DATASET_RULES[system] if not rule[1](params)), None)


def test_every_generator_keyword_has_a_rule_and_every_rule_refuses_a_case():
    for system, generate in GENERATORS.items():
        keywords = list(inspect.signature(generate).parameters)[1:]  # after the counts
        keywords.remove("seed")
        rules = DATASET_RULES[system]
        assert sorted({key for key, _, _ in rules}) == sorted(keywords)
        assert first_refusing_rule(system, {}) is None
        refused = [first_refusing_rule(system, dataset)
                   for case, dataset, _ in OUT_OF_RANGE_DATASETS if case == system]
        assert set(rules) <= set(refused)


@pytest.mark.parametrize("system,dataset,key", OUT_OF_RANGE_DATASETS,
                         ids=[f"{system}-{'-'.join(f'{k}={v}' for k, v in dataset.items())}"
                              for system, dataset, _ in OUT_OF_RANGE_DATASETS])
def test_generate_out_of_range_dataset_value_exits_2_naming_its_key(tmp_path, capsys, system,
                                                                    dataset, key):
    assert first_refusing_rule(system, dataset)[0] == key
    cfg = dataset_config(tmp_path, system, dataset)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 2
    assert f"error: {system} dataset {key} must be " in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_train_refuses_a_convnet_on_fields_below_3x3(tmp_path, capsys):
    cfg = field_config(tmp_path, "reacdiff", {"n_train": 2, "n_valid": 0, "n_test": 1,
                                              "grid": 2, "horizon": 0.2})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")]) == 2
    assert ("the config's residual cannot train on this data: expected (B, 2, H, W) state "
            "batch with H, W >= 3, got (2, 2, 2, 2)") in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_valid_split_the_residual_does_not_take(tmp_path, capsys):
    cfg = tiny_pendulum_config(tmp_path, physics="none", physics_init=None, augmentation="mlp")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    field_data(tmp_path / "data" / "valid")
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")]) == 2
    assert ("the config's residual cannot train on this data: expected (B, 2) state batch"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_evaluate_refuses_train_data_the_residual_does_not_take(tmp_path, capsys):
    residual = MlpAugmentation(MlpSpec(hidden=4, depth=1))
    save_checkpoint(AugmentedDynamics(None, residual), tmp_path / "checkpoint")
    vector_data(tmp_path / "test")
    field_data(tmp_path / "train")
    code = main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint"),
                 "--data", str(tmp_path / "test"), "--train-data", str(tmp_path / "train"),
                 "--out", str(tmp_path / "eval")])
    assert code == 2
    assert ("checkpoint's residual cannot evaluate this data: expected (B, 2) state batch"
            in capsys.readouterr().err)
    assert not (tmp_path / "eval").exists()


def test_evaluate_refuses_a_convnet_checkpoint_on_fields_below_3x3(tmp_path, capsys):
    residual = ConvNetAugmentation(ConvNetSpec(hidden_channels=4, padding="circular"))
    save_checkpoint(AugmentedDynamics(None, residual), tmp_path / "checkpoint")
    save_dataset(Dataset(system="reacdiff", split="test", dt=0.1,
                         trajectories=np.zeros((2, 3, 2, 2, 2)), true_params={},
                         noise_sigma=0.0, seed=0, grid={"dx": 2.0, "bc": "periodic"}),
                 tmp_path / "test")
    code = main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint"),
                 "--data", str(tmp_path / "test"), "--out", str(tmp_path / "eval")])
    assert code == 2
    assert ("checkpoint's residual cannot evaluate this data: expected (B, 2, H, W) state "
            "batch with H, W >= 3, got (2, 2, 2, 2)") in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


TINY_TRAIN = {"n_epochs": 30, "n_iter": 1, "tau1": 0.02, "optimizer": "adam",
              "patience": None}


@pytest.mark.parametrize("train,message", [
    ({"n_epochs": 1.5}, "n_epochs must be a positive integer, got 1.5"),
    ({"n_epochs": 0}, "n_epochs must be a positive integer, got 0"),
    ({"n_iter": 0}, "n_iter must be a positive integer, got 0"),
    ({"n_iter": True}, "n_iter must be a positive integer, got True"),
    ({"batch_size": -1}, "batch_size must be null or a positive integer, got -1"),
    ({"batch_size": 0}, "batch_size must be null or a positive integer, got 0"),
    ({"max_steps": 0}, "max_steps must be null or a positive integer, got 0"),
    ({"patience": -1}, "patience must be null or a non-negative integer, got -1"),
    ({"patience": 2.0}, "patience must be null or a non-negative integer, got 2.0"),
    ({"max_grad_norm": 0}, "max_grad_norm must be null or a positive number, got 0"),
    ({"max_grad_norm": True}, "max_grad_norm must be null or a positive number, got True"),
    ({"max_grad_norm": "1"}, "max_grad_norm must be null or a positive number, got '1'"),
    ({"tau1": float("inf")}, "tau1 must be positive and finite, got inf"),
    ({"tau2": float("nan")}, "tau2 and lambda0 must be non-negative and finite"),
    # the seed is a top-level key; here it would clash with it
    ({"seed": 1}, "multiple values for keyword argument 'seed'"),
])
def test_train_bad_train_value_exits_2_and_writes_nothing(tmp_path, capsys, train, message):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    cfg = tiny_pendulum_config(tmp_path, train={**TINY_TRAIN, **train})
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides,flags,message", [
    ({"physics_init": [1.0]}, [], "physics_init must be a JSON object, got [1.0]"),
    ({"physics_init": {"omega0_sq": -1.0}}, [],
     "omega0_sq: initial value -1.0 must be finite and exceed floor"),
    ({"physics_init": {"omega0_sq": 1e-4, "alpha": 0.1}}, [],
     "omega0_sq: initial value 0.0001 must be finite and exceed floor"),
    ({"physics_init": {"omega0_sq": "1"}}, [],
     "omega0_sq: initial value must be a number, got '1'"),
    ({"physics": "incomplete", "physics_init": {"omega0": 1.0}}, [],
     "pendulum/omega0 has no parameter omega0; it trains omega0_sq"),
    ({"physics": "incomplete"}, [], "pendulum/omega0 has no parameter alpha"),
    ({"physics": "none", "augmentation": "mlp"}, [],
     "physics_init is set, but physics is 'none'"),
    ({"seed": "a"}, [], "seed must be a non-negative integer, got 'a'"),
    ({"seed": True}, [], "seed must be a non-negative integer, got True"),
    ({}, ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    ({}, ["--seeds", "0,-1"], "each --seeds entry must be a non-negative integer, got -1"),
    ({}, ["--seeds", "0,1,0"], "--seeds lists seed 0 twice"),
    ({}, ["--parallel", "0"], "--parallel must be at least 1, got 0"),
    ({}, ["--seeds", "1,2", "--parallel", "-3"], "--parallel must be at least 1, got -3"),
    ({}, ["--seeds", ""], "--seeds '' lists no seed"),
    ({"trian": {"n_epochs": 1}}, [], "unknown config key(s): trian"),
    ({"downscale": {"datset": {"n_traj_per_split": 1}}}, ["--downscale"],
     "unknown config key(s): datset"),
    ({"name": 5}, [], "name must be null or a string, got 5"),
])
def test_train_bad_physics_init_or_seed_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                  overrides, flags, message):
    cfg = tiny_pendulum_config(tmp_path)
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    cfg = tiny_pendulum_config(tmp_path, **overrides)
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run"), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("system,dataset,message", [
    ("pendulum", {"alpha": 0.0}, "alpha: initial value 0.0 must be finite and exceed floor 0.0001"),
    ("wave", {"k": 0.0}, "k: initial value 0.0 must be finite and exceed floor 1.0"),
    ("wave", {"c": 0.5}, "c: initial value 0.5 must be finite and exceed floor 1.0"),
], ids=["pendulum-alpha", "wave-k", "wave-c"])
def test_train_true_physics_below_its_floor_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                       system, dataset, message):
    cfg = dataset_config(tmp_path, system, dataset)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    cfg = json.loads(cfg.read_text())
    cfg.update(physics="true", physics_init=None, augmentation="none", mode="vanilla",
               train=TINY_TRAIN)
    (tmp_path / "true.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "true.json"),
                 "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run")]) == 2
    assert f"physics 'true' cannot hold the data's parameters: {message}" in \
        capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides,flags,message", [
    ({}, ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    ({"seed": -1}, [], "seed must be a non-negative integer, got -1"),
])
def test_generate_bad_seed_exits_2_and_writes_nothing(tmp_path, capsys, overrides, flags,
                                                      message):
    cfg = tiny_pendulum_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data"),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert message in err and "dataset" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("system,write_config", [
    ("wave", lambda tmp_path: field_config(
        tmp_path, "wave", {"n_train": 0, "n_valid": 0, "n_test": 0, "grid": 8})),
    ("pendulum", lambda tmp_path: tiny_pendulum_config(
        tmp_path, dataset={"n_traj_per_split": 0})),
])
def test_generate_with_no_sequences_in_any_split_exits_2_and_writes_nothing(
        tmp_path, capsys, system, write_config):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 2
    assert f"every {system} split has 0 sequences; nothing to generate" in \
        capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_generate_blowing_up_simulation_exits_3_and_keeps_partial(tmp_path, capsys):
    cfg = field_config(tmp_path, "wave", {"n_train": 1, "n_valid": 0, "n_test": 1,
                                          "grid": 8, "k": 100000.0, "n_steps": 200})
    with np.errstate(all="ignore"):
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "data").iterdir()] == [".partial"]


def test_generate_step_underflow_exits_3_and_writes_no_split(tmp_path, capsys, monkeypatch):
    # every split is simulated in one run, so a failure comes before any save
    def underflowing(*args, **kwargs):
        raise StepUnderflowError("step size underflow in row 0")

    monkeypatch.setattr("aphynity.datagen.dopri5", underflowing)
    cfg = tiny_pendulum_config(tmp_path)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 3
    assert "underflow" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "data").iterdir()] == [".partial"]


def test_evaluate_rejects_a_grid_spacing_the_checkpoint_was_not_built_for(tmp_path, capsys):
    # a reaction-diffusion model built on an 8-point grid scoring a 12-point
    # grid would scale its Laplacian by (11 / 7)^2
    family = make_family("reacdiff", "ab", dx=2.0 / 7)
    save_checkpoint(AugmentedDynamics(family, None), tmp_path / "checkpoint")
    cfg = field_config(tmp_path, "reacdiff", {"n_train": 0, "n_valid": 0, "n_test": 1,
                                              "grid": 12, "horizon": 0.2})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    code = main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"), "--out", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert "dx=0.285714" in err and "dx=0.181818" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("overrides,message", [
    ({"downscale": [1]}, "the downscale section must be a JSON object, got [1]"),
    ({"train": [1], "downscale": {"train": {"n_epochs": 1}}},
     "downscale sets keys of the train section, which is not a JSON object"),
])
def test_downscale_of_a_non_object_exits_2_and_writes_nothing(tmp_path, capsys, overrides,
                                                              message):
    cfg = tiny_pendulum_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data"),
                 "--downscale"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_train_parallel_seeds_write_the_serial_parameters(tmp_path):
    cfg = tiny_pendulum_config(tmp_path, train={**TINY_TRAIN, "n_epochs": 3})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    for parallel in ("1", "2"):
        assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / f"parallel-{parallel}"), "--seeds", "1,2",
                     "--parallel", parallel]) == 0
    for seed in (1, 2):
        serial, pooled = (tmp_path / f"parallel-{n}" / f"seed-{seed}" / "checkpoint"
                          for n in (1, 2))
        assert (pooled / "params.bin").read_bytes() == (serial / "params.bin").read_bytes()


def test_train_parallel_starts_no_more_workers_than_seeds(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = tiny_pendulum_config(tmp_path, train={**TINY_TRAIN, "n_epochs": 1})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run"), "--seeds", "1,2", "--parallel", "8"]) == 0
    assert sizes == [2]


def test_evaluate_leaves_a_zero_true_parameter_out_of_the_error(tmp_path, capsys):
    # alpha is 0 in the data, so only the period has a percentage error
    cfg = tiny_pendulum_config(
        tmp_path, train={**TINY_TRAIN, "n_epochs": 2},
        dataset={"n_traj_per_split": 5, "steps": 8, "dt": 0.5, "t0_period": 12.0,
                 "alpha": 0.0, "sigma": 0.0, "sigma_test": 0.0})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
          "--out", str(tmp_path / "run")])
    assert main(["evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "eval")]) == 0
    record = json.loads((tmp_path / "eval" / "metrics.json").read_text())[0]
    assert set(record["param_err_pct"]) == {"t0_period"}
    assert record["param_err_avg_pct"] == record["param_err_pct"]["t0_period"]
    assert set(record["estimated_params"]) == {"t0_period", "alpha"}


def test_written_headers_and_records_keep_their_keys(tmp_path):
    # these are built from dataclass fields, so a new field would change the files
    cfg = tiny_pendulum_config(tmp_path, augmentation="mlp", mode="aphynity",
                               train={**TINY_TRAIN, "n_epochs": 2})
    main(["generate", "--config", str(cfg), "--out", str(tmp_path / "data")])
    assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")]) == 0
    meta = json.loads((tmp_path / "data" / "train" / "meta.json").read_text())
    assert set(meta) == {"format_version", "kind", "system", "split", "state_kind",
                         "state_shape", "n_traj", "n_states", "dt", "true_params",
                         "noise_sigma", "seed", "grid", "events", "payload_bytes",
                         "payload_crc32"}
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert set(summary) == {"mode", "epochs_run", "total_steps", "final_lambda",
                            "final_params", "final_fa_norm_sq", "final_train_loss",
                            "best_epoch", "stopped_early", "diverged", "events",
                            "wall_time_s"}
    record = json.loads((tmp_path / "run" / "report.jsonl").read_text().splitlines()[0])
    assert set(record) == {"epoch", "lambda", "train_loss", "valid_loss", "fa_norm_sq",
                           "params", "wall_time_s"}
    manifest = json.loads((tmp_path / "run" / "checkpoint" / "manifest.json").read_text())
    assert set(manifest["model"]["augmentation"]) == {"kind", "in_dim", "hidden", "depth",
                                                      "out_dim"}
    model = AugmentedDynamics(None, ConvNetAugmentation(ConvNetSpec()))
    save_checkpoint(model, tmp_path / "convnet")
    manifest = json.loads((tmp_path / "convnet" / "manifest.json").read_text())
    assert set(manifest["model"]["augmentation"]) == {"kind", "in_channels",
                                                      "hidden_channels", "out_channels",
                                                      "padding"}


LEVEL_VARIANTS = {
    ("pendulum", "incomplete"): "omega0",
    ("pendulum", "complete"): "omega0_alpha",
    ("pendulum", "true"): "omega0_alpha",
    ("reacdiff", "incomplete"): "ab",
    ("reacdiff", "complete"): "abk",
    ("reacdiff", "true"): "abk",
    ("wave", "incomplete"): "c",
    ("wave", "complete"): "ck",
    ("wave", "true"): "ck",
}


@pytest.mark.parametrize("system,level", sorted(LEVEL_VARIANTS))
def test_physics_level_builds_its_variant(system, level):
    if system == "pendulum":
        ds = gen_pendulum({"train": 1}, steps=2)["train"]
    else:
        true_params = {"a": 1e-3, "b": 5e-3, "k": 5e-3} if system == "reacdiff" \
            else {"c": 330.0, "k": 50.0}
        ds = Dataset(system=system, split="train", dt=0.1,
                     trajectories=np.zeros((1, 2, 2, 8, 8)), true_params=true_params,
                     noise_sigma=0.0, seed=0, grid={"dx": 0.25})
    cfg = {"system": system, "physics": level, "physics_init": None, "augmentation": "none"}
    model = build_model(cfg, ds, seed=0)
    assert model.physical.variant == LEVEL_VARIANTS[(system, level)]
    assert (len(model.physical.params) == 0) == (level == "true")
