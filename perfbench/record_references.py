"""Record the reference outputs the correctness gates compare against.

    python3 perfbench/record_references.py

Runs one untraced repeat of every workload for each recorded seed and the
held-out seed, and rewrites ``references.json``.  Run it only when a change
is meant to move the program's outputs, and say so with the change.  The
held-out seed is for checking a claim on a seed not used while the change
was written; do not tune against it.
"""

from __future__ import annotations

import json
import sys

from run import HERE, DEADLINE_S, prepare, run_repeat
from workloads import HELD_OUT_SEED, REFERENCE_SEEDS, WORKLOADS, check_repeat


def main() -> int:
    references: dict = {"held_out_seed": HELD_OUT_SEED}
    failures = []
    for name, workload in WORKLOADS.items():
        recorded = references[name] = {}
        for seed in [*range(REFERENCE_SEEDS), HELD_OUT_SEED]:
            run_dir, cfg_path, env = prepare(name, f"reference-{name}-seed{seed}")
            out = run_repeat(name, seed, run_dir, cfg_path, env, 0, False, DEADLINE_S)["outputs"]
            recorded[str(seed)] = {"log_mse": out["log_mse"], "params": out["params"],
                                   "train_losses": out.get("train_losses")}
            bad = [k for k, ok in check_repeat(workload, out, references, seed).items() if not ok]
            if bad:
                failures.append((name, seed, bad))
            print(name, seed, out["log_mse"], bad, flush=True)
    (HERE / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    for failure in failures:
        print("gate failed:", *failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
