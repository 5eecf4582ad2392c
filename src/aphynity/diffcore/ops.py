"""Differentiable primitives.

Arithmetic supports two operand layouts only: identical shapes, or one
scalar (0-d / size-1) operand against an array; that is all the dynamics
models and losses require.  ``narrow``/``concat``/``reshape`` are the
structural glue used to route state channels in and out of the models.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _Record, grad_enabled

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
    """Build an op output; ``edges`` is a list of (tensor, vjp) pairs.  The
    output gets a graph record when grad is on and a parent requires it."""
    out = Tensor._const(values)
    if grad_enabled():
        tracked = [(p._graph_node(), fn) for p, fn in edges if p.requires_grad]
        if tracked:
            out.requires_grad = True
            out._record = _Record(tracked)
    return out


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
    sa, sb = av.shape, bv.shape
    return _node(av * bv, [
        (a, lambda g: _reduce_to(g * bv, sa)),
        (b, lambda g: _reduce_to(g * av, sb)),
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
        out += b.values
        edges.append((b, lambda g: g.sum(axis=0)))
    return _node(out, edges)


def relu(x) -> Tensor:
    """``max(x, 0)`` with NaN mapped to 0 and every zero output +0.0.

    The VJP masks with ``out > 0``, which equals ``x > 0`` (NaN included), so
    it keeps the output the next op reads anyway instead of the input.
    """
    x = _wrap(x)
    out = _relu(x.values)
    return _node(out, [(x, lambda g: g * (out > 0))])


def _relu(a: np.ndarray, out=None) -> np.ndarray:
    """``max(a, 0)`` with NaN mapped to 0 and every zero +0.0; ``out=a`` is in place."""
    out = np.fmax(a, 0.0, out=out)
    # fmax may keep -0.0 for some array lengths; adding +0.0 turns it into +0.0
    out += 0.0
    return out


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
# Padding and 2-D convolution (3x3 kernels, stride 1)

def pad_boundary(field: np.ndarray, bc: str, width: int = 1, out=None) -> np.ndarray:
    """Ghost cells on the last two axes of an array: a wrap for "periodic",
    edge replication for "neumann_zero", zeros for "zero"; written into
    ``out`` if given.

    The result equals ``np.pad`` with mode "wrap", "edge" or "constant" bit
    for bit; it is built from slice copies, which avoids ``np.pad``'s fixed
    per-call cost.  Both axes must be at least ``width`` long (a wider wrap
    would repeat).  With ``out``'s own interior as ``field``, it refreshes
    the ghost cells in place (numpy skips the self-copy).
    """
    if bc not in ("periodic", "neumann_zero", "zero"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    h, w = field.shape[-2:]
    p = width
    if min(h, w) < p:
        raise ValueError(f"pad_boundary: grid {h}x{w} is narrower than the pad width {p}")
    if out is None:
        out = np.empty(field.shape[:-2] + (h + 2 * p, w + 2 * p), dtype=field.dtype)
    out[..., p:-p, p:-p] = field
    if bc == "periodic":
        out[..., p:-p, :p] = field[..., :, w - p:]
        out[..., p:-p, -p:] = field[..., :, :p]
        out[..., :p, :] = out[..., h:h + p, :]
        out[..., -p:, :] = out[..., p:2 * p, :]
    elif bc == "neumann_zero":
        out[..., p:-p, :p] = field[..., :, :1]
        out[..., p:-p, -p:] = field[..., :, -1:]
        out[..., :p, :] = out[..., p:p + 1, :]
        out[..., -p:, :] = out[..., -p - 1:-p, :]
    else:
        out[..., p:-p, :p] = out[..., p:-p, -p:] = 0.0
        out[..., :p, :] = out[..., -p:, :] = 0.0
    return out


# conv2d's padding modes, each as the pad_boundary rule that makes it
_PADDING_RULES = {"zero": "zero", "circular": "periodic"}


def _padding_rule(mode: str) -> str:
    if mode not in _PADDING_RULES:
        raise ValueError(f"unknown padding mode {mode!r}")
    return _PADDING_RULES[mode]


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
    x = _wrap(x)
    if x.values.ndim != 4:
        raise ValueError("pad2d expects a (B, C, H, W) tensor")
    return _node(pad_boundary(x.values, _padding_rule(mode)),
                 [(x, lambda g: _pad_fold(g, mode))])


def _taps(h: int, w: int):
    """The nine tap offsets into the flat rows of a padded (H+2, W+2) grid and
    the output span: output ``n = i * wp + j``, ``wp = W + 2``, reads tap
    (di, dj) at ``n + di * wp + dj``, so two junk columns end each row."""
    return [di * (w + 2) + dj for di in range(3) for dj in range(3)], h * (w + 2) - 2


# Bytes of scratch that one group of samples uses in a convolution product,
# unless a single sample needs more.
_SCRATCH_BYTES = 1 << 20


def _groups(x: np.ndarray, mode: str, *sample_shapes):
    """Run a (B, C, H, W) array in groups of samples, each padded by ``mode``
    (see :func:`pad2d`) into one reused scratch block.

    Yields ``(lo, rows, *buffers)`` per group: its first sample, its padded
    input as flat (n, C, (H+2) * (W+2)) rows and one (n, *shape) buffer per
    entry of ``sample_shapes``.  The group size keeps this scratch at most
    the larger of ``_SCRATCH_BYTES`` and one sample's scratch; a sample needs
    more than the budget at 64x64, so such grids run in groups of one.
    """
    bc = _padding_rule(mode)
    b, c, h, w = x.shape
    shapes = [(c, (h + 2) * (w + 2)), *sample_shapes]
    sizes = [math.prod(shape) for shape in shapes]
    group = max(1, min(b, _SCRATCH_BYTES // (8 * sum(sizes))))
    # one allocation for all buffers: three separate ones of about half a
    # megabyte fragmented the heap enough to raise a 64x64 forecast's peak RSS
    # by a tenth
    block = np.empty(group * sum(sizes))
    ends = [group * sum(sizes[:i + 1]) for i in range(len(sizes))]
    rows, *scratch = [block[end - group * size:end].reshape(group, *shape)
                      for shape, size, end in zip(shapes, sizes, ends)]
    for lo in range(0, b, group):
        n = min(group, b - lo)
        pad_boundary(x[lo:lo + n], bc, out=rows[:n].reshape(n, c, h + 2, w + 2))
        yield lo, rows[:n], *(buf[:n] for buf in scratch)


def _correlate3x3(x: np.ndarray, kernel: np.ndarray, mode: str) -> np.ndarray:
    """Same-padded 3x3 correlation of a (B, c_in, H, W) array with a
    (c_out, c_in, 3, 3) kernel, as shifted matmuls on the flat rows of the
    padded input (see :func:`_taps`); ``mode`` is the padding, as in :func:`pad2d`.

    The grouping of the taps is read off the shapes.  One matmul per tap has
    an inner dimension of only ``c_in`` and writes or updates the
    ``c_out``-channel accumulator nine times, which is mostly memory traffic
    when either side is thin.  So:

    * ``c_in < c_out`` (such as the 2-channel state entering the ConvNet):
      the nine tap windows are stacked into one ``(B, 9 * c_in, span)``
      operand and multiplied by the packed kernel in a single GEMM.
    * ``c_in > c_out`` (such as the ConvNet's last layer): one GEMM applies
      all nine taps' kernels to the whole input at once, and nine shifted
      adds of ``c_out`` channels gather the taps.
    * otherwise: one matmul per tap; the first writes the accumulator and
      the others add into it through one reused temporary.

    The batch runs in the sample groups of :func:`_groups`, whose scratch
    holds the stacked taps, tap products or the per-tap temporary, and the
    row accumulator, so a whole-split pass allocates nothing batch-sized but
    its output.  ``np.matmul`` runs one GEMM per batch element, so a
    sample's result does not depend on its group.
    """
    b, c, h, w = x.shape
    o = kernel.shape[0]
    offsets, span = _taps(h, w)
    if c < o:
        # column t * c + ci of the packed kernel is kernel[:, ci, di, dj], t = 3 * di + dj
        packed = kernel.transpose(0, 2, 3, 1).reshape(o, 9 * c)
        sample_scratch = (9, c, span)
    elif c > o:
        # channels t * o .. (t + 1) * o of the product are tap t applied everywhere
        packed = kernel.transpose(2, 3, 0, 1).reshape(9 * o, c)
        sample_scratch = (9 * o, (h + 2) * (w + 2))
    else:
        sample_scratch = (o, span)
    out = np.empty((b, o, h, w))
    for lo, xf, scratch, acc in _groups(x, mode, sample_scratch, (o, h, w + 2)):
        n = len(xf)
        acc_span = acc.reshape(n, o, -1)[:, :, :span]
        if c < o:
            for t, off in enumerate(offsets):
                scratch[:, t] = xf[:, :, off:off + span]
            np.matmul(packed, scratch.reshape(n, 9 * c, span), out=acc_span)
        elif c > o:
            taps = np.matmul(packed, xf, out=scratch)
            np.copyto(acc_span, taps[:, :o, :span])
            for t, off in enumerate(offsets[1:], 1):
                acc_span += taps[:, t * o:(t + 1) * o, off:off + span]
        else:
            np.matmul(kernel[:, :, 0, 0], xf[:, :, :span], out=acc_span)
            for t, off in enumerate(offsets[1:], 1):
                np.matmul(kernel[:, :, t // 3, t % 3], xf[:, :, off:off + span], out=scratch)
                acc_span += scratch
        out[lo:lo + n] = acc[:, :, :, :-2]
    return out


def conv2d(x, kernel, bias=None, padding: str = "zero", norm=None) -> Tensor:
    """Shape-preserving 3x3 convolution, optionally of ``relu(batchnorm2d(x))``.

    ``x`` is (B, c_in, H, W) and ``kernel`` is (c_out, c_in, 3, 3).  Padding
    is one pixel of zeros or a circular wrap (see :func:`pad2d`).

    With stride 1 and same padding, the x-VJP is the same-padded correlation
    of the output gradient with the flipped, channel-transposed kernel
    (Dumoulin & Visin, 2016), so it runs :func:`_correlate3x3` like the
    forward pass.  The kernel VJP runs one matmul per tap between the output
    gradient, with zeros in its junk columns, and the padded input's tap
    windows.  All three products run in the same bounded sample groups.

    With ``norm=(scale, shift)`` the convolution's input is
    ``relu(batchnorm2d(x, scale, shift))``, computed inside this one node and
    equal to the two ops bit for bit.  The node then keeps x̂ and the
    per-channel vectors instead of the activation, and its VJPs recompute
    the activation from x̂.  Its VJPs share one pass per gradient: the
    recomputed activation (the ReLU's mask and the kernel VJP's input), the
    convolution's x-gradient and the batch-norm VJP.
    """
    x, kernel = _wrap(x), _wrap(kernel)
    if bias is not None:
        bias = _wrap(bias)
    xv, kv = x.values, kernel.values
    if kv.ndim != 4 or kv.shape[2:] != (3, 3):
        raise ValueError(f"conv2d supports 3x3 kernels only, got {kv.shape}")
    if xv.ndim != 4:
        raise ValueError(f"conv2d expects (B, c_in, H, W) input, got {xv.shape}")
    if xv.shape[1] != kv.shape[1]:
        raise ValueError(f"conv2d channel mismatch: input {xv.shape[1]}, kernel {kv.shape[1]}")
    if xv.shape[2] < 3 or xv.shape[3] < 3:
        raise ValueError("conv2d requires H, W >= 3")
    shape = b, c, h, w = xv.shape
    o = kv.shape[0]
    flipped = kv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)

    def grad_input(g):
        return _correlate3x3(g, flipped, padding)

    if norm is None:
        out = _correlate3x3(xv, kv, padding)
        edges = [(x, grad_input)]

        def conv_input(g):
            return xv
    else:
        scale, shift = _check_norm(norm, c, "conv2d")
        sc, sh = scale.values, shift.values
        xhat, inv_std = _bn_normalize(xv)
        # with no graph to record, nothing reads x̂ again: the activation overwrites it
        act = _bn_relu(xhat, sc, sh, out=None if grad_enabled() else xhat)
        out = _correlate3x3(act.reshape(shape), kv, padding)

        def through_norm(g):
            # the recomputed activation, for the ReLU's mask and the kernel VJP
            act = _bn_relu(xhat, sc, sh)
            gy = grad_input(g).reshape(b, c, -1)
            gy *= act > 0
            return (*_bn_vjp(gy, xhat, sc, inv_std, out=gy), act.reshape(shape))

        grads = _per_gradient(through_norm)
        edges = [(x, lambda g: grads(g)[0].reshape(shape)),
                 (scale, lambda g: grads(g)[1]), (shift, lambda g: grads(g)[2])]

        def conv_input(g):
            return grads(g)[3]

    def vjp_k(g):
        offsets, span = _taps(h, w)
        gk = np.zeros((9, o, c))
        for lo, xf, gw, prod in _groups(conv_input(g), padding, (o, h, w + 2), (9, o, c)):
            gw[:, :, :, :w] = g[lo:lo + len(xf)]
            gw[:, :, :, w:] = 0.0
            gf = gw.reshape(len(xf), o, -1)[:, :, :span]
            for t, off in enumerate(offsets):
                np.matmul(gf, xf[:, :, off:off + span].transpose(0, 2, 1), out=prod[:, t])
            gk += prod.sum(axis=0)
        return np.ascontiguousarray(gk.reshape(3, 3, o, c).transpose(2, 3, 0, 1))

    edges.append((kernel, vjp_k))
    if bias is not None:
        out += bias.values[None, :, None, None]
        edges.append((bias, lambda g: np.einsum("bcn->c", g.reshape(b, o, h * w))))
    return _node(out, edges)


# ---------------------------------------------------------------------------
# 5-point Laplacian

def five_point_sum(up, down, left, right, centre, out=None) -> np.ndarray:
    """``up + down + left + right - 4 centre``, summed in that order, into
    ``out`` if given: the 5-point stencil, given the four shifted views of a
    padded field and its centre."""
    return np.subtract(up + down + left + right, 4.0 * centre, out=out)


def laplacian_stencil(field: np.ndarray, bc: str, dx: float) -> np.ndarray:
    """5-point Laplacian of the last two axes of an array.

    Under both boundary rules this is a symmetric linear map, so it is also
    its own adjoint.
    """
    p = pad_boundary(field, bc)
    out = five_point_sum(p[..., :-2, 1:-1], p[..., 2:, 1:-1], p[..., 1:-1, :-2], p[..., 1:-1, 2:],
                         field)
    return out / (dx * dx)


def laplacian(x, bc: str, dx: float = 1.0) -> Tensor:
    """Differentiable 5-point Laplacian of the last two axes of a tensor."""
    x = _wrap(x)
    if x.values.ndim < 2:
        raise ValueError("laplacian expects at least two (spatial) axes")
    out = laplacian_stencil(x.values, bc, dx)
    return _node(out, [(x, lambda g: laplacian_stencil(g, bc, dx))])


# ---------------------------------------------------------------------------
# Batch norm: one implementation, used by ``batchnorm2d`` and by the
# normalized input of ``conv2d``

def _check_norm(norm, channels: int, op: str):
    scale, shift = _wrap(norm[0]), _wrap(norm[1])
    if scale.values.shape != (channels,) or shift.values.shape != (channels,):
        raise ValueError(f"{op} scale/shift must have shape (C,)")
    return scale, shift


def _bn_normalize(xv: np.ndarray, eps: float = 1e-5):
    """x̂ of a (B, C, H, W) array on its contiguous (B, C, H*W) view, and the
    per-channel 1/std.  Reductions use ``einsum``, so sums of products build
    no temporary array."""
    b, c = xv.shape[:2]
    xr = xv.reshape(b, c, -1)
    n = b * xr.shape[2]
    xhat = xr - (np.einsum("bcn->c", xr) / n)[:, None]
    var = np.einsum("bcn,bcn->c", xhat, xhat) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[:, None]
    return xhat, inv_std


def _bn_affine(xhat: np.ndarray, scale: np.ndarray, shift: np.ndarray, out=None) -> np.ndarray:
    """``x̂ * scale + shift`` on the (B, C, H*W) view."""
    out = np.multiply(xhat, scale[:, None], out=out)
    out += shift[:, None]
    return out


def _bn_vjp(gr: np.ndarray, xhat: np.ndarray, scale: np.ndarray, inv_std: np.ndarray,
            out=None):
    """The x, scale and shift gradients of ``x̂ * scale + shift`` for an output
    gradient ``gr``, all on the (B, C, H*W) view: the standard batch-norm
    gradient through the mean and the variance.  Its one temporary is made
    in sample groups of at most ``_SCRATCH_BYTES``, so ``out=gr`` overwrites
    ``gr`` with no batch-sized temporary."""
    n = gr.shape[0] * gr.shape[2]
    g_shift = np.einsum("bcn->c", gr)
    g_scale = np.einsum("bcn,bcn->c", gr, xhat)
    gx = np.empty_like(gr) if out is None else out
    group = max(1, _SCRATCH_BYTES // xhat[0].nbytes)
    for lo in range(0, len(gr), group):
        np.subtract(gr[lo:lo + group], xhat[lo:lo + group] * (g_scale / n)[:, None],
                    out=gx[lo:lo + group])
    gx -= (g_shift / n)[:, None]
    gx *= (scale * inv_std)[:, None]
    return gx, g_scale, g_shift


def _bn_relu(xhat: np.ndarray, scale: np.ndarray, shift: np.ndarray, out=None) -> np.ndarray:
    """``relu(x̂ * scale + shift)`` on the (B, C, H*W) view; ``out=xhat`` overwrites x̂."""
    y = _bn_affine(xhat, scale, shift, out=out)
    return _relu(y, out=y)


def _per_gradient(fn):
    """``fn(g)``, computed once per gradient object and shared by the VJPs of
    one node: ``backward`` calls a record's VJPs back to back with the same
    ``g`` (see :mod:`.tensor`)."""
    memo = [None, None]

    def shared(g):
        if memo[0] is not g:
            memo[:] = g, fn(g)
        return memo[1]

    return shared


def batchnorm2d(x, scale, shift, eps: float = 1e-5) -> Tensor:
    """Per-channel standardization over batch and spatial axes.

    No running statistics are kept: every pass, training or evaluation, uses
    the statistics of the batch it is given, so a sample's output depends on
    the other samples in its batch.  ``conv2d(..., norm=(scale, shift))``
    runs the same math, followed by a ReLU, as its input.
    """
    x = _wrap(x)
    xv = x.values
    if xv.ndim != 4:
        raise ValueError("batchnorm2d expects a (B, C, H, W) tensor")
    shape = xv.shape
    scale, shift = _check_norm((scale, shift), shape[1], "batchnorm2d")
    sc = scale.values
    xhat, inv_std = _bn_normalize(xv, eps)
    grads = _per_gradient(lambda g: _bn_vjp(g.reshape(xhat.shape), xhat, sc, inv_std))
    return _node(_bn_affine(xhat, sc, shift.values).reshape(shape), [
        (x, lambda g: grads(g)[0].reshape(shape)),
        (scale, lambda g: grads(g)[1]),
        (shift, lambda g: grads(g)[2]),
    ])
