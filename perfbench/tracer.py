"""Outside-in tracer: wraps the program's public functions where they are looked up.

Nothing under ``src/`` is edited.  ``install_aphynity`` replaces each traced
name in the module (or class) that the pipeline reads it from with a wrapper
that records a span, and ``Tracer.restore`` puts every original back.  Spans
are kept in memory as ``[name_id, start, end, parent]`` rows and written out
once, after the workload ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

# Ops whose cost is elementwise or structural; reported together.
POINTWISE_OPS = ("add", "sub", "mul", "smul", "relu", "sin", "square", "sqrt",
                 "softplus", "sum_all", "mean_all", "narrow", "concat", "reshape")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.patches: list[tuple[object, str, object]] = []   # (owner, attr, original)

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([self._name_id(name), time.perf_counter(), 0.0, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def span_array(self) -> np.ndarray:
        """Spans as an (n, 4) float array: name id, start, end, parent index."""
        return np.array(self.spans, dtype=np.float64).reshape(-1, 4)

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), spans=self.span_array())

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a zero-argument callable returning one.
        ``before(args, kwargs)`` may return replacement positional args;
        ``after(args, result)`` observes the result.  Both run outside the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_of = name if callable(name) else (lambda: name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs) or args
            idx = self.begin(name_of())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self.patches.append((owner, attr, original))

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def self_and_total(spans: np.ndarray, n_names: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-name self and inclusive seconds from an (n, 4) span array.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    if spans.size == 0:
        return np.zeros(n_names), np.zeros(n_names)
    name = spans[:, 0].astype(np.int64)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(np.int64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(spans))
    self_time = dur - child_time
    return (np.bincount(name, weights=self_time, minlength=n_names),
            np.bincount(name, weights=dur, minlength=n_names))


def _shape(x) -> tuple:
    return tuple(getattr(x, "shape", np.shape(x)))


def _affine_flop(args) -> int:
    b, n = _shape(args[0])
    return 2 * b * n * _shape(args[1])[1]


def _conv2d_flop(args) -> int:
    x = _shape(args[0])
    c_out, c_in, kh, kw = _shape(args[1])
    b, h, w = (1, *x[1:]) if len(x) == 3 else (x[0], *x[2:])
    return 2 * b * h * w * c_out * c_in * kh * kw


def install_aphynity(tracer: Tracer) -> None:
    """Wrap the traced layers of the ``aphynity`` package in place."""
    from aphynity import (augments, cli, datagen, diffcore, integrators, metrics,
                          models, physics, training)
    from aphynity.diffcore import ops, tensor

    counts = tracer.counts
    grad_enabled = tensor.grad_enabled

    def count_op(flop_key=None, flop=None):
        def before(args, kwargs):
            if grad_enabled():
                counts["tape_nodes"] += 1
            if flop is not None:
                counts[flop_key] += flop(args)
        return before

    # conv3x3_valid stays unwrapped, so the autodiff Laplacian's dense C x C
    # convolution is physics.laplacian's self time.
    for module in (diffcore, ops):
        for op in POINTWISE_OPS:
            tracer.wrap(module, op, "diffcore.pointwise", before=count_op())
        tracer.wrap(module, "affine", "diffcore.affine", before=count_op("affine_flop", _affine_flop))
        tracer.wrap(module, "conv2d", "diffcore.conv2d", before=count_op("conv2d_flop", _conv2d_flop))
        tracer.wrap(module, "pad2d", "diffcore.pad2d", before=count_op())
        tracer.wrap(module, "batchnorm2d", "diffcore.batchnorm2d", before=count_op())
    for module in (diffcore, tensor):
        tracer.wrap(module, "backward", "diffcore.backward")

    def integrate_name():
        return "integrators.integrate.grad" if grad_enabled() else "integrators.integrate.nograd"

    for module in (training, metrics):
        tracer.wrap(module, "integrate", integrate_name)

        def norm_states(args, kwargs):
            counts["norm_pass_states"] += _shape(args[1])[0]
        tracer.wrap(module, "augmentation_norm_sq", "training.norm_pass", before=norm_states)
    for module in (integrators, datagen):
        tracer.wrap(module, "rk4_step", "integrators.rk4_step")

    def count_rhs(args, kwargs):
        f = args[0]

        def counted(y):
            counts["dopri5_rhs_evals"] += 1
            return f(y)
        return (counted, *args[1:])

    tracer.wrap(datagen, "dopri5", "integrators.dopri5", before=count_rhs)
    tracer.wrap(datagen, "euler_fine", "integrators.euler_fine")
    for module in (datagen, physics):
        tracer.wrap(module, "laplacian_np", "physics.laplacian_np")
    tracer.wrap(physics, "laplacian", "physics.laplacian")
    for cls in (physics.PendulumDynamics, physics.ReactionDiffusionDynamics,
                physics.DampedWaveDynamics):
        tracer.wrap(cls, "rhs", "physics.rhs")
    tracer.wrap(augments.MlpAugmentation, "__call__", "augments.mlp")
    tracer.wrap(augments.ConvNetAugmentation, "__call__", "augments.convnet")
    tracer.wrap(models.AugmentedDynamics, "rhs", "models.rhs")

    for fn in ("save_checkpoint", "load_checkpoint"):
        tracer.wrap(cli, fn, "models.checkpoint_io")

    def saved_bytes(args, kwargs):
        counts["dataset_bytes"] += args[0].trajectories.nbytes

    def loaded_bytes(args, result):
        counts["dataset_bytes"] += result.trajectories.nbytes

    tracer.wrap(cli, "save_dataset", "datagen.io", before=saved_bytes)
    tracer.wrap(cli, "load_dataset", "datagen.io", after=loaded_bytes)

    def fit_outcome(args, report):
        blow_ups = sum(1 for e in report.events if e.get("kind") == "blow_up")
        counts["steps_done"] += report.total_steps
        counts["steps_attempted"] += report.total_steps + blow_ups + int(report.diverged)

    def eval_outcome(args, record):
        counts["traj_attempted"] += args[1].n_traj
        counts["traj_kept"] += args[1].n_traj - record.excluded_trajectories

    tracer.wrap(cli, "fit", "training.fit", after=fit_outcome)
    tracer.wrap(cli, "evaluate", "metrics.evaluate", after=eval_outcome)
