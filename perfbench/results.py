"""Metric names and units, and how each is computed from the repeats of a run.

The names and units here are the ones ``BENCHMARK.json`` declares; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

import statistics

# name -> unit.  Printed with --trace 0; timings come from untraced repeats only.
END_TO_END = {
    "setup_s": "s",          # child start until the first command: imports, config
                             # load and validation (wave-forecast: + model build and
                             # checkpoint save/load)
    "generate_s": "s",       # the generate command
    "step_s": "s/step",      # train command / gradient steps (train workloads);
                             # evaluate command / forecast RK4 steps (wave-forecast)
    "evaluate_s": "s",       # the evaluate command
    "wall_s": "s",           # child start to child exit
    "peak_rss_mb": "MB",     # ru_maxrss of the child
}

# name -> (unit, better).  Printed with --trace 1, from traced repeats.
PER_LAYER = {
    "diffcore.affine.self_s": ("s", "lower"),
    "diffcore.affine.calls": ("count", "lower"),
    "diffcore.affine.gflop": ("GFLOP", "lower"),
    "diffcore.conv2d.self_s": ("s", "lower"),
    "diffcore.conv2d.calls": ("count", "lower"),
    "diffcore.conv2d.gflop": ("GFLOP", "lower"),
    "diffcore.pad2d.self_s": ("s", "lower"),
    "diffcore.batchnorm2d.self_s": ("s", "lower"),
    "diffcore.pointwise.self_s": ("s", "lower"),
    "diffcore.pointwise.calls": ("count", "lower"),
    "diffcore.backward.self_s": ("s", "lower"),
    "diffcore.backward.calls": ("count", "lower"),
    "diffcore.tape_nodes_per_step": ("nodes/step", "lower"),
    "integrators.integrate.grad_s": ("s", "lower"),
    "integrators.integrate.nograd_s": ("s", "lower"),
    "integrators.rk4_step.self_s": ("s", "lower"),
    "integrators.rk4_step.calls": ("count", "lower"),
    "integrators.dopri5.self_s": ("s", "lower"),
    "integrators.dopri5.rhs_evals": ("count", "lower"),
    "integrators.euler_fine.self_s": ("s", "lower"),
    "physics.laplacian_np.self_s": ("s", "lower"),
    "physics.laplacian_np.calls": ("count", "lower"),
    "physics.laplacian.self_s": ("s", "lower"),
    "physics.laplacian.calls": ("count", "lower"),
    "physics.rhs.self_s": ("s", "lower"),
    "augments.mlp.total_s": ("s", "lower"),
    "augments.convnet.total_s": ("s", "lower"),
    "models.rhs.calls": ("count", "lower"),
    "models.checkpoint_io_s": ("s", "lower"),
    "datagen.io_s": ("s", "lower"),
    "datagen.io_mb": ("MB", "lower"),
    "training.norm_pass_s": ("s", "lower"),
    "training.norm_pass_states": ("count", "lower"),
    "training.fit.self_s": ("s", "lower"),
    "training.useful_step_ratio": ("ratio", "higher"),
    "metrics.evaluate.self_s": ("s", "lower"),
    "metrics.kept_traj_ratio": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
    "coarse_self_frac": ("ratio", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
    "failed_op_share": ("ratio", "lower"),
}


def end_to_end(started: float, exited: float, child: dict, budget: int) -> dict[str, float]:
    """One repeat's end-to-end values from the parent's start/exit stamps and
    the child's phase stamps (all ``time.monotonic``)."""
    st = child["stamps"]
    values = {"setup_s": st["setup"] - started,
              "generate_s": st["generate"] - st["setup"]}
    if budget:
        values["step_s"] = (st["train"] - st["generate"]) / budget
        values["evaluate_s"] = st["evaluate"] - st["train"]
    else:
        values["evaluate_s"] = st["evaluate"] - st["generate"]
        values["step_s"] = values["evaluate_s"] / child["outputs"]["horizon"]
    values["wall_s"] = exited - started
    values["peak_rss_mb"] = child["maxrss_kb"] / 1024.0
    return values


def per_layer(layers: dict, traced_wall: float) -> dict[str, float]:
    """One traced repeat's per-layer values, except the two run-level ratios
    (``trace_overhead_frac`` and ``failed_op_share``)."""
    spans, counts = layers["spans"], layers["counts"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(done, attempted):
        # nothing attempted means nothing wasted
        return counts.get(done, 0) / counts[attempted] if counts.get(attempted) else 1.0

    values = {}
    for layer in ("affine", "conv2d", "pad2d", "batchnorm2d", "pointwise", "backward"):
        values[f"diffcore.{layer}.self_s"] = get(f"diffcore.{layer}", "self_s")
    for layer in ("affine", "conv2d", "pointwise", "backward"):
        values[f"diffcore.{layer}.calls"] = get(f"diffcore.{layer}", "calls")
    values["diffcore.affine.gflop"] = counts.get("affine_flop", 0) / 1e9
    values["diffcore.conv2d.gflop"] = counts.get("conv2d_flop", 0) / 1e9
    steps = counts.get("steps_done", 0)
    values["diffcore.tape_nodes_per_step"] = counts.get("tape_nodes", 0) / steps if steps else 0.0
    values["integrators.integrate.grad_s"] = get("integrators.integrate.grad", "total_s")
    values["integrators.integrate.nograd_s"] = get("integrators.integrate.nograd", "total_s")
    for name in ("integrators.rk4_step", "integrators.dopri5", "integrators.euler_fine",
                 "physics.laplacian_np", "physics.laplacian", "physics.rhs",
                 "training.fit", "metrics.evaluate", "cli"):
        values[f"{name}.self_s"] = get(name, "self_s")
    for name in ("integrators.rk4_step", "physics.laplacian_np", "physics.laplacian",
                 "models.rhs"):
        values[f"{name}.calls"] = get(name, "calls")
    values["integrators.dopri5.rhs_evals"] = counts.get("dopri5_rhs_evals", 0)
    values["augments.mlp.total_s"] = get("augments.mlp", "total_s")
    values["augments.convnet.total_s"] = get("augments.convnet", "total_s")
    values["models.checkpoint_io_s"] = get("models.checkpoint_io", "total_s")
    values["datagen.io_s"] = get("datagen.io", "total_s")
    values["datagen.io_mb"] = counts.get("dataset_bytes", 0) / 2**20
    values["training.norm_pass_s"] = get("training.norm_pass", "total_s")
    values["training.norm_pass_states"] = counts.get("norm_pass_states", 0)
    values["training.useful_step_ratio"] = ratio("steps_done", "steps_attempted")
    values["metrics.kept_traj_ratio"] = ratio("traj_kept", "traj_attempted")
    coarse = sum(get(n, "self_s") for n in ("cli", "training.fit", "metrics.evaluate"))
    values["coarse_self_frac"] = coarse / traced_wall
    return values


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def result_line(correct: bool, attempted: int, failed: int, values: dict[str, float],
                units: dict[str, str]) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
