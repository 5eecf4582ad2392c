"""Golden SHA-256 digests of every file the pipeline writes.

``run_pipelines`` runs ``generate`` -> ``train`` -> ``evaluate`` -> ``report``
at tiny sizes on eight cases in a child process with one BLAS thread, and
``digests`` hashes every file they wrote.  The cases cover a pendulum MLP, a
circular reaction-diffusion ConvNet, a zero-padded wave ConvNet, a pendulum
MLP on frozen true physics, and the paths of ``fit`` that ``TRAIN`` leaves
out: a model with nothing to train, the ``non_adaptive`` mode with SGD, the
running constraint, gradient clipping and an early stop, and the ``vanilla``
and ``derivative_supervision`` modes.  A case's ``train`` keys override
``TRAIN``'s.  ``report.jsonl`` and ``summary.json`` are hashed
without ``wall_time_s``, the one field that is not deterministic.

``tests/golden.json`` holds the digests with the numpy version and BLAS
build they were recorded with; ``test_golden.py`` compares against it.  A
change that moves output bits on purpose re-records it from the repo root:

    python tests/record_golden.py

This file imports only the standard library; the child process imports
``aphynity`` from this checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"

TRAIN = {"n_epochs": 2, "n_iter": 1, "batch_size": 2, "tau1": 1e-3, "optimizer": "adam",
         "patience": None, "max_steps": 3}
PENDULUM = {"n_traj_per_split": 3, "steps": 6}
CASES = {
    "pendulum-mlp": {"system": "pendulum", "physics": "incomplete", "augmentation": "mlp",
                     "physics_init": {"omega0_sq": 1.0}, "dataset": PENDULUM},
    "reacdiff-convnet": {"system": "reacdiff", "physics": "incomplete",
                         "augmentation": "convnet", "physics_init": {"a": 5e-4, "b": 5e-4},
                         "dataset": {"n_train": 2, "n_valid": 1, "n_test": 2, "grid": 8,
                                     "horizon": 0.3}},
    "wave-convnet": {"system": "wave", "physics": "incomplete", "augmentation": "convnet",
                     "physics_init": {"c": 200.0},
                     "dataset": {"n_train": 2, "n_valid": 1, "n_test": 2, "grid": 8,
                                 "n_steps": 4}},
    "pendulum-frozen-physics": {"system": "pendulum", "physics": "true",
                                "augmentation": "mlp", "dataset": PENDULUM},
    "pendulum-nothing-to-train": {"system": "pendulum", "physics": "true",
                                  "augmentation": "none", "dataset": PENDULUM,
                                  "train": {"lambda0": 2.0}},
    "pendulum-non-adaptive-early-stop": {
        "system": "pendulum", "mode": "non_adaptive", "physics": "incomplete",
        "augmentation": "mlp", "physics_init": {"omega0_sq": 1.0}, "dataset": PENDULUM,
        "train": {"n_epochs": 6, "n_iter": 2, "optimizer": "sgd", "tau1": 0.5,
                  "lambda_eval": "running", "max_grad_norm": 1.0, "patience": 1,
                  "max_steps": None}},
    "pendulum-vanilla": {"system": "pendulum", "mode": "vanilla", "physics": "incomplete",
                         "augmentation": "mlp", "physics_init": {"omega0_sq": 1.0},
                         "dataset": PENDULUM},
    "pendulum-derivative-supervision": {
        "system": "pendulum", "mode": "derivative_supervision", "physics": "incomplete",
        "augmentation": "mlp", "physics_init": {"omega0_sq": 1.0}, "dataset": PENDULUM},
}


def run_pipelines(out: Path) -> dict:
    """Run every case into ``out/<case>/`` and the report into ``out/report/``,
    in a child process with one BLAS thread; return its numpy and BLAS build."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "APHYNITY_LOG": "error",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, __file__, "--child", str(out)], env=env,
                           capture_output=True, text=True)
    if child.returncode:
        raise RuntimeError(f"the pipeline child exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout)


def _child(out: Path) -> None:
    import numpy as np
    from aphynity.cli import main

    def run(*argv):
        if main([str(arg) for arg in argv]):
            raise SystemExit(f"failed: aphynity {' '.join(map(str, argv))}")

    with tempfile.TemporaryDirectory() as configs, contextlib.redirect_stdout(sys.stderr):
        for name, case in CASES.items():
            cfg = Path(configs) / f"{name}.json"
            cfg.write_text(json.dumps({"name": name, "mode": "aphynity", "seed": 0, **case,
                                       "train": {**TRAIN, **case.get("train", {})}}))
            data, model = out / name / "data", out / name / "run"
            run("generate", "--config", cfg, "--out", data)
            run("train", "--config", cfg, "--data", data, "--out", model)
            run("evaluate", "--checkpoint", model / "checkpoint", "--data", data / "test",
                "--train-data", data / "train", "--out", out / name / "eval")
        run("report", "--results", out, "--out", out / "report")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({"numpy": np.__version__,
                      "blas": f"{blas.get('name')} {blas.get('version')}",
                      "blas_config": blas.get("openblas configuration")}))


def _canonical(path: Path) -> bytes:
    """The bytes hashed for ``path``: the records of a timed file re-dumped
    without ``wall_time_s``, any other file as written."""
    if path.name == "summary.json":
        records = [json.loads(path.read_text())]
    elif path.name == "report.jsonl":
        records = [json.loads(line) for line in path.read_text().splitlines()]
    else:
        return path.read_bytes()
    for record in records:
        record.pop("wall_time_s", None)
    return "\n".join(json.dumps(r, sort_keys=True) for r in records).encode()


def digests(out: Path) -> dict[str, str]:
    """``{relative path: SHA-256}`` of every file under ``out``."""
    return {path.relative_to(out).as_posix(): hashlib.sha256(_canonical(path)).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        environment = run_pipelines(Path(out))
        found = digests(Path(out))
    GOLDEN.write_text(json.dumps({"environment": environment, "digests": found},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(found)} digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(Path(sys.argv[2]))
    else:
        main()
