"""One repeat of a workload in a fresh process.

``python3 perfbench/child.py --workload W --seed N --config CFG --work DIR
--result OUT [--trace]`` imports the program from the checkout's ``src/``,
runs the workload's CLI commands, and writes to OUT the ``time.monotonic``
stamps of each phase, the outputs the correctness gates read, the peak RSS
and, with ``--trace``, the per-layer span aggregates.  ``--facts OUT`` only
imports the program and records the numpy/BLAS facts; the parent uses it to
warm the bytecode and page caches before timing.

CLOCK_MONOTONIC is shared by all processes on Linux, so the parent can
subtract its own stamp for the child's start from the child's stamps.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``aphynity`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import aphynity.cli
    if not Path(aphynity.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"aphynity imported from {aphynity.cli.__file__}, not {src}")
    return aphynity.cli


def blas_facts() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"numpy": np.__version__, "blas": blas.get("name"),
             "blas_version": blas.get("version"), "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({parts[-1] for parts in (line.split() for line in fh)
                       if len(parts) == 6 and "openblas" in parts[-1].lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def collect_outputs(system: str, work: Path, trains: bool) -> dict:
    """Read what the gates check from the artifacts the commands wrote."""
    from aphynity import physics

    out: dict = {"floors": getattr(physics, f"{system.upper()}_FLOORS")}
    manifest = json.loads((work / "model" / "checkpoint" / "manifest.json").read_text())
    out["params"] = manifest["model"]["physics"]["values"]
    record = json.loads((work / "eval" / "metrics.json").read_text())[0]
    out["log_mse"] = record["log_mse"]
    out["excluded"] = record["excluded_trajectories"]
    out["horizon"] = record["horizon"]
    out["n_test"] = json.loads((work / "data" / "test" / "meta.json").read_text())["n_traj"]
    if trains:
        summary = json.loads((work / "model" / "summary.json").read_text())
        out["diverged"] = summary["diverged"]
        out["total_steps"] = summary["total_steps"]
        out["blow_ups"] = sum(1 for e in summary["events"] if e["kind"] == "blow_up")
        records = [json.loads(line)
                   for line in (work / "model" / "report.jsonl").read_text().splitlines()]
        out["train_losses"] = [r["train_loss"] for r in records]
        out["fa_norms"] = [r["fa_norm_sq"] for r in records]
    return out


def layer_aggregates(tracer) -> dict:
    """Per span name: self seconds, inclusive seconds and calls; plus the counts."""
    import numpy as np

    from tracer import self_and_total

    spans = tracer.span_array()
    n = len(tracer.names)
    self_s, total_s = self_and_total(spans, n)
    calls = np.bincount(spans[:, 0].astype(np.int64), minlength=n) if len(spans) else np.zeros(n)
    return {"spans": {name: {"self_s": float(self_s[i]), "total_s": float(total_s[i]),
                             "calls": int(calls[i])}
                      for i, name in enumerate(tracer.names)},
            "counts": dict(tracer.counts)}


def run_repeat(args) -> dict:
    from workloads import WORKLOADS, commands

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    stamps: dict[str, float] = {}
    cli = import_program()
    tracer = None
    if args.trace:
        from tracer import Tracer, install_aphynity
        tracer = Tracer()
        install_aphynity(tracer)
    cfg = cli.load_config(args.config)
    if not workload.trains:
        # An untrained, seeded model: wave data uses unit grid spacing, the
        # family default, so the model needs no dataset to be built.
        model = cli.build_model(cfg, types.SimpleNamespace(grid=None), args.seed)
        ckpt = work / "model" / "checkpoint"
        cli.save_checkpoint(model, ckpt, extra={
            "config_name": cfg["name"], "mode": cfg["mode"], "seed": args.seed,
            "system": cfg["system"], "physics_level": cfg["physics"]})
        cli.load_checkpoint(ckpt)
    stamps["setup"] = time.monotonic()

    cmds = commands(workload, Path(args.config), work, args.seed)
    codes = []
    for argv in cmds:
        idx = tracer.begin("cli") if tracer else None
        codes.append(cli.main(argv))
        if tracer:
            tracer.end(idx)
        stamps[argv[0]] = time.monotonic()
        if codes[-1] != 0:
            break
    result = {"stamps": stamps, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "outputs": {"exit_codes": codes, "n_commands": len(cmds)}}
    if tracer:
        tracer.restore()
        tracer.write(work / "spans.npz")
        result["layers"] = layer_aggregates(tracer)
    if all(code == 0 for code in codes) and len(codes) == len(cmds):
        result["outputs"].update(collect_outputs(cfg["system"], work, workload.trains))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--facts", default=None)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--config")
    parser.add_argument("--work")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.facts:
        import_program()
        Path(args.facts).write_text(json.dumps(blas_facts()))
        return 0
    result = run_repeat(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
