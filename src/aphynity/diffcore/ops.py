"""Differentiable primitives.

Arithmetic supports two operand layouts only: identical shapes, or one
scalar (0-d / size-1) operand against an array; that is all the dynamics
models and losses require.  ``narrow``/``concat``/``reshape`` are the
structural glue used to route state channels in and out of the models.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, grad_enabled

__all__ = [
    "add", "sub", "mul", "smul", "affine", "relu", "sin", "square", "sqrt",
    "softplus", "sum_all", "mean_all", "narrow", "concat", "reshape",
    "pad2d", "conv2d", "batchnorm2d", "laplacian",
]


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor._const(np.asarray(x, dtype=np.float64))


def _node(values, edges) -> Tensor:
    """Build an op output; ``edges`` is a list of (tensor, vjp) pairs."""
    tracked = [(p, fn) for p, fn in edges if p.requires_grad]
    if not tracked or not grad_enabled():
        return Tensor._const(values)
    return Tensor._interior(values, [p for p, _ in tracked], [fn for _, fn in tracked])


def _is_scalar(a: np.ndarray) -> bool:
    return a.size == 1


def _check_pair(x: np.ndarray, y: np.ndarray, op: str) -> None:
    if x.shape != y.shape and not (_is_scalar(x) or _is_scalar(y)):
        raise ValueError(f"{op}: shape mismatch {x.shape} vs {y.shape}")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    # fold the broadcast of a scalar operand back to its shape
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_pair(a.values, b.values, "add")
    out = a.values + b.values
    return _node(out, [
        (a, lambda g, s=a.values.shape: _reduce_to(g, s)),
        (b, lambda g, s=b.values.shape: _reduce_to(g, s)),
    ])


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_pair(a.values, b.values, "sub")
    out = a.values - b.values
    return _node(out, [
        (a, lambda g, s=a.values.shape: _reduce_to(g, s)),
        (b, lambda g, s=b.values.shape: _reduce_to(-g, s)),
    ])


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_pair(a.values, b.values, "mul")
    av, bv = a.values, b.values
    out = av * bv
    return _node(out, [
        (a, lambda g: _reduce_to(g * bv, av.shape)),
        (b, lambda g: _reduce_to(g * av, bv.shape)),
    ])


def smul(c: float, t) -> Tensor:
    t = _wrap(t)
    c = float(c)
    return _node(c * t.values, [(t, lambda g: c * g)])


def affine(x, w, b=None) -> Tensor:
    """Row-batched affine map ``x @ w + b`` with x (B, n), w (n, m), b (m,)."""
    x, w = _wrap(x), _wrap(w)
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ValueError(f"affine: incompatible shapes {xv.shape} @ {wv.shape}")
    out = xv @ wv
    edges = [
        (x, lambda g: g @ wv.T),
        (w, lambda g: xv.T @ g),
    ]
    if b is not None:
        b = _wrap(b)
        if b.values.shape != (wv.shape[1],):
            raise ValueError(f"affine: bias shape {b.values.shape} != ({wv.shape[1]},)")
        out = out + b.values
        edges.append((b, lambda g: g.sum(axis=0)))
    return _node(out, edges)


def relu(x) -> Tensor:
    x = _wrap(x)
    mask = x.values > 0
    return _node(np.where(mask, x.values, 0.0), [(x, lambda g: g * mask)])


def sin(x) -> Tensor:
    x = _wrap(x)
    xv = x.values
    return _node(np.sin(xv), [(x, lambda g: g * np.cos(xv))])


def square(x) -> Tensor:
    x = _wrap(x)
    xv = x.values
    return _node(xv * xv, [(x, lambda g: g * (2.0 * xv))])


def sqrt(x) -> Tensor:
    x = _wrap(x)
    out = np.sqrt(x.values)
    return _node(out, [(x, lambda g: g * (0.5 / out))])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x) -> Tensor:
    x = _wrap(x)
    xv = np.asarray(x.values)
    out = np.logaddexp(0.0, xv)
    return _node(out, [(x, lambda g: g * _sigmoid(xv))])


def sum_all(x) -> Tensor:
    x = _wrap(x)
    shape = x.values.shape
    return _node(np.asarray(np.sum(x.values)), [(x, lambda g: np.broadcast_to(g, shape).copy())])


def mean_all(x) -> Tensor:
    x = _wrap(x)
    shape, n = x.values.shape, x.values.size
    return _node(np.asarray(np.mean(x.values)),
                 [(x, lambda g: np.broadcast_to(g / n, shape).copy())])


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    x = _wrap(x)
    xv = x.values
    idx = [slice(None)] * xv.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = np.ascontiguousarray(xv[idx])

    def vjp(g, shape=xv.shape, idx=idx):
        full = np.zeros(shape, dtype=np.float64)
        full[idx] = g
        return full

    return _node(out, [(x, vjp)])


def concat(parts, axis: int) -> Tensor:
    parts = [_wrap(p) for p in parts]
    out = np.concatenate([p.values for p in parts], axis=axis)
    edges = []
    offset = 0
    for p in parts:
        length = p.values.shape[axis]

        def vjp(g, a=axis, o=offset, n=length):
            idx = [slice(None)] * g.ndim
            idx[a] = slice(o, o + n)
            return np.ascontiguousarray(g[tuple(idx)])

        edges.append((p, vjp))
        offset += length
    return _node(out, edges)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    old = x.values.shape
    out = np.ascontiguousarray(x.values).reshape(shape)
    return _node(out, [(x, lambda g: np.ascontiguousarray(g).reshape(old))])


# ---------------------------------------------------------------------------
# 2-D convolution machinery (3x3 kernels, stride 1)

_PAD_MODES = {"zero": "constant", "circular": "wrap"}


def _pad_fold(g: np.ndarray, mode: str) -> np.ndarray:
    """Adjoint of 1-pixel padding: route wrapped strips home, then crop."""
    if mode == "circular":
        g = g.copy()
        g[:, :, :, -2] += g[:, :, :, 0]
        g[:, :, :, 1] += g[:, :, :, -1]
        g[:, :, -2, :] += g[:, :, 0, :]
        g[:, :, 1, :] += g[:, :, -1, :]
    return np.ascontiguousarray(g[:, :, 1:-1, 1:-1])


def pad2d(x, mode: str) -> Tensor:
    """1-pixel spatial padding of a (B, C, H, W) tensor: zeros or a circular wrap."""
    if mode not in _PAD_MODES:
        raise ValueError(f"unknown padding mode {mode!r}")
    x = _wrap(x)
    if x.values.ndim != 4:
        raise ValueError("pad2d expects a (B, C, H, W) tensor")
    out = np.pad(x.values, ((0, 0), (0, 0), (1, 1), (1, 1)), mode=_PAD_MODES[mode])
    return _node(out, [(x, lambda g: _pad_fold(g, mode))])


def _conv3x3(xp: Tensor, kernel: Tensor, bias) -> Tensor:
    """Valid 3x3 convolution of a padded (B, C, H+2, W+2) tensor as nine shifted matmuls.

    Rows are flattened at the padded width ``wp``, so tap (di, dj) reads the
    window of ``span`` entries starting at ``di * wp + dj``.  Each output row
    then carries two junk columns: the forward pass drops them and the VJPs
    hold them at zero.
    """
    xv, kv = xp.values, kernel.values
    b, c, hp, wp = xv.shape
    o, h, w = kv.shape[0], hp - 2, wp - 2
    span = (h - 1) * wp + w
    taps = [(di, dj, di * wp + dj) for di in range(3) for dj in range(3)]
    xf = np.ascontiguousarray(xv).reshape(b, c, hp * wp)
    acc = np.zeros((b, o, h * wp))
    for di, dj, off in taps:
        acc[:, :, :span] += kv[:, :, di, dj] @ xf[:, :, off:off + span]
    out = np.ascontiguousarray(acc.reshape(b, o, h, wp)[:, :, :, :w])

    def flat_rows(g):
        gw = np.zeros((b, o, h, wp))
        gw[:, :, :, :w] = g
        return gw.reshape(b, o, h * wp)[:, :, :span]

    def vjp_x(g):
        gf = flat_rows(g)
        gx = np.zeros((b, c, hp * wp))
        for di, dj, off in taps:
            gx[:, :, off:off + span] += kv[:, :, di, dj].T @ gf
        return gx.reshape(xv.shape)

    def vjp_k(g):
        gf = flat_rows(g)
        gk = np.empty_like(kv)
        for di, dj, off in taps:
            gk[:, :, di, dj] = (gf @ xf[:, :, off:off + span].transpose(0, 2, 1)).sum(axis=0)
        return gk

    edges = [(xp, vjp_x), (kernel, vjp_k)]
    if bias is not None:
        out = out + bias.values[None, :, None, None]
        edges.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return _node(out, edges)


def conv2d(x, kernel, bias=None, padding: str = "zero") -> Tensor:
    """Shape-preserving 3x3 convolution.

    ``x`` is (B, c_in, H, W) and ``kernel`` is (c_out, c_in, 3, 3).  Padding
    is one pixel of zeros or a circular wrap (see :func:`pad2d`).
    """
    x, kernel = _wrap(x), _wrap(kernel)
    if bias is not None:
        bias = _wrap(bias)
    kv = kernel.values
    if kv.ndim != 4 or kv.shape[2:] != (3, 3):
        raise ValueError(f"conv2d supports 3x3 kernels only, got {kv.shape}")
    if x.values.ndim != 4:
        raise ValueError(f"conv2d expects (B, c_in, H, W) input, got {x.values.shape}")
    if x.values.shape[1] != kv.shape[1]:
        raise ValueError(f"conv2d channel mismatch: input {x.values.shape[1]}, kernel {kv.shape[1]}")
    if x.values.shape[2] < 3 or x.values.shape[3] < 3:
        raise ValueError("conv2d requires H, W >= 3")
    return _conv3x3(pad2d(x, padding), kernel, bias)


# ---------------------------------------------------------------------------
# 5-point Laplacian

_BC_PAD_MODES = {"periodic": "wrap", "neumann_zero": "edge"}


def pad_boundary(field: np.ndarray, bc: str, width: int = 1) -> np.ndarray:
    """Ghost cells on the last two axes of an array: a wrap for "periodic",
    edge replication for "neumann_zero"."""
    if bc not in _BC_PAD_MODES:
        raise ValueError(f"unknown boundary condition {bc!r}")
    pad = [(0, 0)] * (field.ndim - 2) + [(width, width), (width, width)]
    return np.pad(field, pad, mode=_BC_PAD_MODES[bc])


def laplacian_stencil(field: np.ndarray, bc: str, dx: float) -> np.ndarray:
    """5-point Laplacian of the last two axes of an array.

    Under both boundary rules this is a symmetric linear map, so it is also
    its own adjoint.
    """
    p = pad_boundary(field, bc)
    out = p[..., :-2, 1:-1] + p[..., 2:, 1:-1] + p[..., 1:-1, :-2] + p[..., 1:-1, 2:] - 4.0 * field
    return out / (dx * dx)


def laplacian(x, bc: str, dx: float = 1.0) -> Tensor:
    """Differentiable 5-point Laplacian of the last two axes of a tensor."""
    x = _wrap(x)
    if x.values.ndim < 2:
        raise ValueError("laplacian expects at least two (spatial) axes")
    out = laplacian_stencil(x.values, bc, dx)
    return _node(out, [(x, lambda g: laplacian_stencil(g, bc, dx))])


def batchnorm2d(x, scale, shift, eps: float = 1e-5) -> Tensor:
    """Per-channel standardization over batch and spatial axes.

    No running statistics are kept: evaluation uses the statistics of the
    batch it is given, so train and eval behave identically.
    """
    x, scale, shift = _wrap(x), _wrap(scale), _wrap(shift)
    xv = x.values
    if xv.ndim != 4:
        raise ValueError("batchnorm2d expects a (B, C, H, W) tensor")
    c = xv.shape[1]
    if scale.values.shape != (c,) or shift.values.shape != (c,):
        raise ValueError("batchnorm2d scale/shift must have shape (C,)")
    axes = (0, 2, 3)
    n = xv.shape[0] * xv.shape[2] * xv.shape[3]
    m = xv.mean(axis=axes, keepdims=True)
    centered = xv - m
    var = np.mean(centered * centered, axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    sc = scale.values[None, :, None, None]
    out = sc * xhat + shift.values[None, :, None, None]

    def vjp_x(g):
        gxhat = g * sc
        # standard batch-norm gradient through mean and variance
        term = gxhat - gxhat.mean(axis=axes, keepdims=True) \
            - xhat * np.mean(gxhat * xhat, axis=axes, keepdims=True)
        return term * inv_std

    return _node(out, [
        (x, vjp_x),
        (scale, lambda g: np.sum(g * xhat, axis=axes)),
        (shift, lambda g: np.sum(g, axis=axes)),
    ])
