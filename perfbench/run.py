"""The repo benchmark: run one workload in fresh child processes and print its metrics.

    python3 perfbench/run.py --workload pendulum-train --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each repeat is a fresh single-process child
(``child.py``) with a one-thread BLAS pool that runs generate -> train ->
evaluate through ``aphynity.cli.main``; repeats start while they are expected
to end within ``--seconds``.  With ``--trace 0`` the end-to-end metrics are the medians over
untraced repeats.  With ``--trace 1`` untraced and traced repeats alternate;
the per-layer metrics are the medians over the traced ones, and
``trace_overhead_frac`` compares the two kinds' wall times.

Every repeat's outputs go through the correctness gates in ``workloads.py``;
the run also checks that repeats give identical outputs and, when traced,
identical computed counts.  The last stdout line is the result object; the
exit code is 1 when a check failed.  Everything is written under
``.perfbench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import results
from workloads import WORKLOADS, build_config, check_repeat, input_seed, outputs_signature

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_run"
DEADLINE_S = 165.0          # a run must exit within 180 s
MIN_REPEATS = 3             # per kind of repeat with --trace 0
MIN_TRACE_REPEATS = 2       # per kind of repeat with --trace 1


class ChildFailed(RuntimeError):
    pass


def child_env(run_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "APHYNITY_LOG": "error", "PYTHONHASHSEED": "0",
        "TMPDIR": str(run_dir / "tmp"),
    })
    return env


def prepare(workload_name: str, tag: str) -> tuple[Path, Path, dict]:
    """A fresh run directory holding the workload's config; returns (dir, config, env)."""
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(build_config(ROOT, WORKLOADS[workload_name]), indent=1))
    return run_dir, cfg_path, child_env(run_dir)


def spawn(args: list[str], run_dir: Path, env: dict, name: str, timeout: float) -> tuple[float, float]:
    """Run one child to completion; returns its (start, exit) monotonic stamps."""
    with open(run_dir / f"{name}.log", "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildFailed(f"{name} exceeded {timeout:.0f} s")
        exited = time.monotonic()
    if code != 0:
        raise ChildFailed(f"{name} exited with {code}; see {run_dir / (name + '.log')}")
    return started, exited


def run_repeat(workload: str, seed: int, run_dir: Path, cfg_path: Path, env: dict,
               index: int, traced: bool, timeout: float) -> dict:
    """One child repeat; returns its result with the parent's start/exit stamps."""
    name = f"repeat{index}"
    work = run_dir / name
    work.mkdir()
    result_path = work / "result.json"
    args = ["--workload", workload, "--seed", str(seed), "--config", str(cfg_path),
            "--work", str(work), "--result", str(result_path)] + (["--trace"] if traced else [])
    started, exited = spawn(args, run_dir, env, name, timeout)
    child = json.loads(result_path.read_text())
    child.update(started=started, exited=exited, traced=traced)
    return child


def measure(args, references: dict, run_dir: Path, cfg_path: Path, env: dict,
            t0: float) -> dict:
    """Run repeats until the time is up; gate each one and count operations."""
    workload = WORKLOADS[args.workload]
    seed = input_seed(args.seed)
    kinds = [False, True] if args.trace else [False]
    least = (MIN_TRACE_REPEATS if args.trace else MIN_REPEATS) * len(kinds)
    repeats: list[dict] = []
    attempted = failed = 0
    crashed = None
    longest = 0.0
    while True:
        elapsed = time.monotonic() - t0
        # after the minimum, start a repeat only if it should end within --seconds
        if len(repeats) >= least and elapsed + longest > args.seconds:
            break
        if repeats and elapsed + 1.5 * longest > DEADLINE_S:
            break
        traced = kinds[len(repeats) % len(kinds)]
        try:
            child = run_repeat(args.workload, seed, run_dir, cfg_path, env,
                               len(repeats), traced, DEADLINE_S - elapsed)
        except ChildFailed as exc:
            crashed = str(exc)
            break
        longest = max(longest, child["exited"] - child["started"])
        out = child["outputs"]
        checks = child["checks"] = check_repeat(workload, out, references, seed)
        ops = workload.budget + out.get("n_test", 0) + len(checks)
        attempted += ops
        if checks["commands_ok"]:
            failed += out.get("blow_ups", 0) + out["excluded"] + sum(not ok for ok in checks.values())
        else:
            failed += ops        # a repeat whose commands failed fails all of its operations
        repeats.append(child)

    run_checks = {"all_repeats_finished": crashed is None and len(repeats) >= least,
                  "repeats_identical": len({outputs_signature(r["outputs"])
                                            for r in repeats}) == 1}
    if args.trace:
        run_checks["counts_repeat"] = len({json.dumps(r["layers"]["counts"], sort_keys=True)
                                           for r in repeats if r["traced"]}) == 1
    if crashed is not None:
        # the crashed repeat never reported, so all of its operations failed
        ops = workload.budget + len(check_repeat(workload, {}, references, seed))
        attempted, failed = attempted + ops, failed + ops
    attempted += len(run_checks)
    failed += sum(not ok for ok in run_checks.values())
    return {"repeats": repeats, "run_checks": run_checks, "crashed": crashed,
            "attempted": attempted, "failed": failed}


def metric_values(args, repeats: list[dict], failed: int, attempted: int) -> dict:
    """End-to-end medians over untraced repeats, or per-layer medians over traced ones."""
    budget = WORKLOADS[args.workload].budget
    plain = [r for r in repeats if not r["traced"] and r["checks"]["commands_ok"]]
    e2e = [results.end_to_end(r["started"], r["exited"], r, budget) for r in plain]
    if not e2e:
        return {}
    if not args.trace:
        return results.medians(e2e)
    traced = [r for r in repeats if r["traced"] and r["checks"]["commands_ok"]]
    if not traced:
        return {}
    walls = [r["exited"] - r["started"] for r in traced]
    values = results.medians([results.per_layer(r["layers"], w) for r, w in zip(traced, walls)])
    untraced_wall = results.medians(e2e)["wall_s"]
    values["trace_overhead_frac"] = (statistics.median(walls) - untraced_wall) / untraced_wall
    values["failed_op_share"] = failed / attempted
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aphynity" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'aphynity'}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())
    t0 = time.monotonic()
    run_dir, cfg_path, env = prepare(args.workload, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    facts = machine.machine_facts()
    try:
        spawn(["--facts", str(run_dir / "facts.json")], run_dir, env, "warmup", DEADLINE_S)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts.update(json.loads((run_dir / "facts.json").read_text()))
    facts["blas_threads_env"] = env["OPENBLAS_NUM_THREADS"]

    run = measure(args, references, run_dir, cfg_path, env, t0)
    values = metric_values(args, run["repeats"], run["failed"], run["attempted"])
    units = ({name: unit for name, (unit, _) in results.PER_LAYER.items()}
             if args.trace else results.END_TO_END)
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "input_seed": input_seed(args.seed),
         "seconds": args.seconds,
         "trace": args.trace, "machine": facts, "values": values, **run}, indent=1))

    print("machine " + json.dumps(facts, sort_keys=True))
    for i, r in enumerate(run["repeats"]):
        bad = sorted(k for k, ok in r["checks"].items() if not ok)
        print(f"repeat {i} {'traced' if r['traced'] else 'plain'} "
              f"wall={r['exited'] - r['started']:.3f}s failed_checks={bad}")
    print("run_checks " + json.dumps(run["run_checks"], sort_keys=True))
    if run["crashed"]:
        print(f"crashed: {run['crashed']}")
    if set(values) != set(units):
        print("error: no complete repeat to take metrics from", file=sys.stderr)
        return 1
    correct = run["failed"] == 0
    print(json.dumps(results.result_line(correct, run["attempted"], run["failed"], values, units)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
