"""Command-line front end: generate -> train -> evaluate -> report.

Each experiment is described by one JSON config (see ``configs/``).  Commands
validate their inputs before touching the filesystem, mark output
directories with a ``.partial`` file until they complete, and use a fixed
exit-code contract: 0 ok, 2 usage/validation error, 3 divergence (of a dataset
simulation, of training, or of every test rollout in evaluation), 4 artifact
corruption.
``APHYNITY_LOG`` (error/info/debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
import inspect
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .augments import make_augmentation
from .datagen import (
    SPLITS, Dataset, DatasetError, check_dataset, gen_pendulum, gen_reacdiff, gen_wave,
    load_dataset, save_dataset,
)
from .integrators import BlowUpError, StepUnderflowError
from .metrics import (
    evaluate, load_metrics_rows, write_metrics_csv, write_metrics_json,
)
from .models import AugmentedDynamics, CheckpointError, load_checkpoint, save_checkpoint
from .physics import level_variant, make_family
from .training import TrainConfig, fit

log = logging.getLogger("aphynity.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_CORRUPT = 4


class UsageError(RuntimeError):
    pass


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("APHYNITY_LOG", "info"), logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# configs

def builtin_config_dir() -> Path:
    return Path(__file__).parent / "configs"


# Every top-level config key but ``system`` and ``downscale``, with the default
# that load_config fills in; any other key is refused.
CONFIG_DEFAULTS = {"name": None, "seed": 0, "mode": "aphynity", "physics": "none",
                   "augmentation": "none", "physics_init": None, "dataset": {}, "train": {}}


def load_config(path, downscale: bool = False) -> dict:
    path = Path(path)
    if not path.exists():
        candidate = builtin_config_dir() / path.name
        if candidate.exists():
            path = candidate
        else:
            raise UsageError(f"config not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("the config must be a JSON object")
    # a downscale section is checked on every load, and used only under the flag
    overrides = cfg.get("downscale")
    if downscale and not overrides:
        raise UsageError("config has no downscale section")
    if overrides and not isinstance(overrides, dict):
        raise UsageError(f"the downscale section must be a JSON object, got {overrides!r}")
    small = copy.deepcopy(cfg)
    for section, values in (overrides or {}).items():
        if not isinstance(values, dict):
            small[section] = values
        elif isinstance(small.setdefault(section, {}), dict):
            small[section].update(values)
        else:
            raise UsageError(f"downscale sets keys of the {section} section, "
                             f"which is not a JSON object")
    cfg, small = ({**copy.deepcopy(CONFIG_DEFAULTS), **c} for c in (cfg, small))
    validate_config(cfg)
    if overrides:
        try:
            validate_config(small)
        except UsageError as exc:
            raise UsageError(f"bad downscale section: {exc}") from exc
    return small if downscale else cfg


GENERATORS = {"pendulum": gen_pendulum, "reacdiff": gen_reacdiff, "wave": gen_wave}
# The split sizes a config's ``dataset`` section may set, per system, with their defaults
SPLIT_COUNT_DEFAULTS = {"pendulum": {"n_traj_per_split": 25},
                        "reacdiff": {"n_train": 1440, "n_valid": 160, "n_test": 320},
                        "wave": {"n_train": 200, "n_valid": 25, "n_test": 25}}
# Every key a config's ``dataset`` section may set, per system, with its default:
# the split sizes, then the generator's keywords but ``seed``
DATASET_DEFAULTS = {
    system: {**SPLIT_COUNT_DEFAULTS[system],
             **{name: p.default for name, p in inspect.signature(generate).parameters.items()
                if p.default is not p.empty and name != "seed"}}
    for system, generate in GENERATORS.items()}


def validate_config(cfg: dict) -> None:
    unknown = sorted(set(cfg) - set(CONFIG_DEFAULTS) - {"system", "downscale"})
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    if not isinstance(cfg["name"], (str, type(None))):
        raise UsageError(f"name must be null or a string, got {cfg['name']!r}")
    system = cfg.get("system")
    if system not in DATASET_DEFAULTS:
        raise UsageError(f"unknown system {system!r}")
    ds_cfg = cfg["dataset"]
    if not isinstance(ds_cfg, dict):
        raise UsageError("the dataset section must be a JSON object")
    unknown = sorted(set(ds_cfg) - set(DATASET_DEFAULTS[system]))
    if unknown:
        raise UsageError(f"unknown {system} dataset key(s): {', '.join(unknown)}")
    for key, value in ds_cfg.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"{system} dataset {key} must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{system} dataset {key} must be finite, got {value!r}")
        if isinstance(DATASET_DEFAULTS[system][key], int) and \
                not (isinstance(value, int) and value >= 0):
            raise UsageError(f"{system} dataset {key} must be a non-negative integer, "
                             f"got {value!r}")
    params = {**DATASET_DEFAULTS[system], **ds_cfg}
    try:
        check_dataset(system, params)
    except ValueError as exc:
        raise UsageError(f"{system} dataset {exc}") from exc
    if not any(params[key] for key in SPLIT_COUNT_DEFAULTS[system]):
        raise UsageError(f"every {system} split has 0 sequences; nothing to generate")
    physics = cfg["physics"]
    if physics not in ("none", "incomplete", "complete", "true"):
        raise UsageError(f"unknown physics level {physics!r}")
    augmentation = cfg["augmentation"]
    if augmentation not in ("none", "mlp", "convnet"):
        raise UsageError(f"unknown augmentation {augmentation!r}")
    if physics == "none" and augmentation == "none":
        raise UsageError("enable at least one of physics or augmentation")
    if system == "pendulum" and augmentation == "convnet":
        raise UsageError("pendulum states are vectors; use the mlp augmentation")
    if system in ("reacdiff", "wave") and augmentation == "mlp":
        raise UsageError(f"{system} states are fields; use the convnet augmentation")
    init = cfg["physics_init"]
    if init is not None and not isinstance(init, dict):
        raise UsageError(f"physics_init must be a JSON object, got {init!r}")
    if init:
        if physics == "none":
            raise UsageError("physics_init is set, but physics is 'none'")
        # the family owns its parameter names and floors
        try:
            make_family(system, level_variant(system, physics), dx=1.0, init=init)
        except ValueError as exc:
            raise UsageError(f"bad physics_init: {exc}") from exc
    seed = _check_seed(cfg["seed"], "seed")
    try:
        TrainConfig(mode=cfg["mode"], seed=seed, **cfg["train"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad train section: {exc}") from exc


def _check_seed(seed, what: str) -> int:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise UsageError(f"{what} must be a non-negative integer, got {seed!r}")
    return seed


def build_model(cfg: dict, train_ds: Dataset, seed: int) -> AugmentedDynamics:
    system = cfg["system"]
    physics_level = cfg["physics"]
    physical = None
    if physics_level != "none":
        variant = level_variant(system, physics_level)
        dx = train_ds.grid["dx"] if train_ds.grid else None
        if physics_level == "true":
            init = {k: v for k, v in train_ds.true_params.items() if k != "t0_period"}
            try:
                physical = make_family(system, variant, dx=dx, init=init, trainable=False)
            except ValueError as exc:
                raise UsageError(f"physics 'true' cannot hold the data's parameters: "
                                 f"{exc}") from exc
        else:
            init = cfg["physics_init"] or None
            physical = make_family(system, variant, dx=dx, init=init)
    augmentation = None
    if cfg["augmentation"] != "none":
        spec = {"kind": cfg["augmentation"]}
        if spec["kind"] == "convnet":
            spec["padding"] = "circular" if system == "reacdiff" else "zero"
        augmentation = make_augmentation(spec, seed=seed)
    return AugmentedDynamics(physical, augmentation)


def _mark_partial(out_dir: Path) -> Path:
    """Create ``out_dir/.partial`` and return it; a command unlinks it once
    its output is complete, so a failed or diverged run keeps it."""
    marker = Path(out_dir) / ".partial"
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.touch()
    return marker


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args) -> int:
    cfg = load_config(args.config, args.downscale)
    seed = cfg["seed"] if args.seed is None else _check_seed(args.seed, "--seed")
    out = Path(args.out)
    system = cfg["system"]
    p = {**DATASET_DEFAULTS[system], **cfg["dataset"]}
    counts = (dict.fromkeys(SPLITS, p.pop("n_traj_per_split")) if system == "pendulum"
              else {split: p.pop(f"n_{split}") for split in SPLITS})
    try:
        datasets = GENERATORS[system](counts, seed=seed, **p)
    except (BlowUpError, StepUnderflowError) as exc:
        _mark_partial(out)
        print(f"error: the simulation diverged ({exc}); no split written to {out}",
              file=sys.stderr)
        return EXIT_DIVERGED
    for split, ds in datasets.items():
        marker = _mark_partial(out)
        save_dataset(ds, out / split)
        log.info("%s: wrote %d trajectories of %d steps to %s",
                 split, ds.n_traj, ds.n_steps, out / split)
    marker.unlink()
    return EXIT_OK


def _train_one_seed(cfg: dict, data_dir: Path, out_dir: Path, seed: int) -> int:
    train_ds = load_dataset(data_dir / "train")
    valid_path = data_dir / "valid"
    valid_ds = load_dataset(valid_path) if (valid_path / "meta.json").exists() else None
    model = build_model(cfg, train_ds, seed)
    for ds in filter(None, (train_ds, valid_ds)):
        _check_compatibility(model, ds, "the config", "train on")
    tc = TrainConfig(mode=cfg["mode"], seed=seed, **cfg["train"])
    marker = _mark_partial(out_dir)
    report = fit(model, train_ds, tc, valid=valid_ds)
    report.save(out_dir)
    save_checkpoint(model, out_dir / "checkpoint", extra={
        "config_name": cfg["name"], "mode": tc.mode, "seed": seed,
        "system": cfg["system"], "physics_level": cfg["physics"],
        "fa_norm_sq": report.final_fa_norm_sq,
        "dataset_dt": train_ds.dt,
    })
    if not report.diverged:
        # a diverged run keeps its .partial marker: the artifacts are a
        # salvaged prefix of the intended training, not a finished run
        marker.unlink()
    last = report.records[-1] if report.records else None
    print(f"[seed {seed}] mode={tc.mode} epochs={len(report.records)} "
          f"steps={report.total_steps} lambda={report.final_lambda:.6g} "
          f"train_loss={last.train_loss if last else float('nan'):.6g} "
          f"fa_norm_sq={report.final_fa_norm_sq if report.final_fa_norm_sq is not None else 'n/a'} "
          f"params={ {k: float(f'{v:.6g}') for k, v in report.final_params.items()} }")
    if report.diverged:
        log.error("training diverged; partial report kept in %s", out_dir)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.downscale)
    data_dir = Path(args.data)
    if not (data_dir / "train" / "meta.json").exists():
        raise UsageError(f"no training dataset under {data_dir}")
    seeds = _parse_seeds(args, cfg)
    if args.parallel < 1:
        raise UsageError(f"--parallel must be at least 1, got {args.parallel}")
    out = Path(args.out)
    # one seed trains into --out, several into one seed-<n>/ directory each
    jobs = [(cfg, data_dir, out if len(seeds) == 1 else out / f"seed-{seed}", seed)
            for seed in seeds]
    if args.parallel > 1 and len(jobs) > 1:
        # a forking pool starts all its workers at once, so start no idle ones
        with concurrent.futures.ProcessPoolExecutor(min(args.parallel, len(jobs))) as pool:
            return max(pool.map(_train_one_seed, *zip(*jobs)))
    return max(_train_one_seed(*job) for job in jobs)


def _parse_seeds(args, cfg) -> list[int]:
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise UsageError(f"bad --seeds list: {args.seeds!r}") from exc
        if not seeds:
            raise UsageError(f"--seeds {args.seeds!r} lists no seed")
        for i, seed in enumerate(seeds):
            _check_seed(seed, "each --seeds entry")
            if seed in seeds[:i]:
                raise UsageError(f"--seeds lists seed {seed} twice")
        return seeds
    if args.seed is not None:
        return [_check_seed(args.seed, "--seed")]
    return [cfg["seed"]]


def cmd_evaluate(args) -> int:
    model, extra = load_checkpoint(Path(args.checkpoint))
    test_ds = load_dataset(Path(args.data))
    train_ds = load_dataset(Path(args.train_data)) if args.train_data else None
    for ds in filter(None, (test_ds, train_ds)):
        _check_compatibility(model, ds, "checkpoint", "evaluate")
    horizon = args.horizon if args.horizon is not None else test_ds.n_steps
    if horizon < 1 or horizon > test_ds.n_steps:
        raise UsageError(
            f"horizon {horizon} outside 1..{test_ds.n_steps} for this dataset")
    run_id = extra.get("config_name") or "run"
    seed = _extra_number(extra, "seed", int, 0)
    try:
        record = evaluate(model, test_ds, horizon, train=train_ds,
                          fa_norm_sq=_extra_number(extra, "fa_norm_sq", float, None),
                          run_id=f"{run_id}-seed{seed}", mode=extra.get("mode", "n/a"),
                          seed=seed)
    except BlowUpError as exc:
        print(f"error: every test trajectory diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    out = Path(args.out)
    marker = _mark_partial(out)
    write_metrics_csv([record], out / "metrics.csv")
    write_metrics_json([record], out / "metrics.json")
    marker.unlink()
    print(f"log_mse={record.log_mse:.4f} "
          f"param_err_avg_pct={record.param_err_avg_pct if record.param_err_avg_pct is not None else 'n/a'} "
          f"fa_norm_sq={record.fa_norm_sq if record.fa_norm_sq is not None else 'n/a'} "
          f"excluded={record.excluded_trajectories}")
    return EXIT_OK


def _extra_number(extra: dict, key: str, convert, default):
    """``convert(extra[key])``, or ``default`` if the key is missing or null."""
    try:
        return default if extra.get(key) is None else convert(extra[key])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"manifest.json: extra {key} is {extra[key]!r}, "
                              f"not a number") from exc


def _check_compatibility(model: AugmentedDynamics, ds: Dataset, owner: str, use: str) -> None:
    """Refuse a split whose system or grid spacing the physics is not for, or
    whose state batch shape fails the residual's own input check."""
    fam = model.physical
    if fam is not None:
        if fam.system != ds.system:
            raise UsageError(f"{owner} is for {fam.system!r}, data is {ds.system!r}")
        data_dx = (ds.grid or {}).get("dx")
        if fam.dx is not None and data_dx is not None and not math.isclose(fam.dx, data_dx):
            raise UsageError(f"{owner}'s physics has grid spacing dx={fam.dx:.6g}, "
                             f"data has dx={data_dx:.6g}")
    if model.augmentation is not None:
        try:
            model.augmentation.check_batch((ds.n_traj, *ds.state_shape))
        except ValueError as exc:
            raise UsageError(f"{owner}'s residual cannot {use} this data: {exc}") from exc


# The report's metric columns and their headings in report.txt.
REPORT_METRICS = (("log_mse", "log MSE"), ("param_err_avg_pct", "%Err param"),
                  ("fa_norm_sq", "|Fa|^2"))


def cmd_report(args) -> int:
    results = Path(args.results)
    groups: dict = {}  # (system, method, mode) -> one {metric: value} per row
    for csv_path in sorted(results.rglob("metrics.csv")):
        try:
            for row in load_metrics_rows(csv_path):
                groups.setdefault((row["system"], row["method"], row["mode"]), []).append(
                    {name: None if row[name] in ("n/a", "") else float(row[name])
                     for name, _ in REPORT_METRICS})
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"error: {csv_path} is not a metrics table: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return EXIT_CORRUPT
    if not groups:
        raise UsageError(f"no metrics.csv files under {results}")

    def agg(values: list):
        nums = [v for v in values if v is not None]
        if not nums or any(not np.isfinite(x) for x in nums):
            return "n/a", "n/a"
        mean = float(np.mean(nums))
        std = float(np.std(nums, ddof=1)) if len(nums) > 1 else 0.0
        return repr(mean), repr(std)

    def cell(mean, std):
        if mean == "n/a":
            return "n/a"
        return f"{float(mean):.4g} ± {float(std):.2g}"

    table_rows = []
    lines = []
    current_system = None
    for (system, method, mode), members in sorted(groups.items()):
        row = {"system": system, "method": method, "mode": mode, "n_seeds": len(members)}
        for name, _ in REPORT_METRICS:
            row[f"{name}_mean"], row[f"{name}_std"] = agg([m[name] for m in members])
        table_rows.append(row)
        if system != current_system:
            current_system = system
            lines.append(f"== {system} ==")
            lines.append(f"{'method':42s} {'mode':24s} "
                         + " ".join(f"{heading:>18s}" for _, heading in REPORT_METRICS))
        lines.append(f"{method:42s} {mode:24s} " + " ".join(
            f"{cell(row[f'{name}_mean'], row[f'{name}_std']):>18s}"
            for name, _ in REPORT_METRICS))
    text = "\n".join(lines) + "\n"

    out = Path(args.out)
    marker = _mark_partial(out)
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table_rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(table_rows)
    (out / "report.txt").write_text(text)
    marker.unlink()
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aphynity",
        description="Hybrid physical/data-driven dynamics: generate, train, "
                    "evaluate, report.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate train/valid/test datasets")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--downscale", action="store_true")
    gen.set_defaults(fn=cmd_generate)

    tr = sub.add_parser("train", help="fit a model on a generated dataset")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--seeds", default=None, help="comma-separated seed list")
    tr.add_argument("--parallel", type=int, default=1)
    tr.add_argument("--downscale", action="store_true")
    tr.set_defaults(fn=cmd_train)

    ev = sub.add_parser("evaluate", help="score a checkpoint on a test dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="test dataset directory")
    ev.add_argument("--train-data", default=None,
                    help="training dataset for the residual-norm report")
    ev.add_argument("--out", required=True)
    ev.add_argument("--horizon", type=int, default=None)
    ev.set_defaults(fn=cmd_evaluate)

    rep = sub.add_parser("report", help="aggregate metrics files into one table")
    rep.add_argument("--results", required=True)
    rep.add_argument("--out", required=True)
    rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT


if __name__ == "__main__":
    sys.exit(main())
