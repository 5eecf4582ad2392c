import numpy as np
import pytest

import aphynity.diffcore as dc
from aphynity.diffcore import ParamSet, Tensor, backward
from aphynity.diffcore import ops
from aphynity.diffcore.ops import pad_boundary
from aphynity.diffcore.tensor import _toposort

from helpers import assert_adjoint, conv2d_direct, gradcheck, make_tensor, peak_bytes

GRADCHECK_TOL = 1e-4


def test_forward_square():
    assert dc.mul(Tensor(3.0), Tensor(3.0)).item() == 9.0


def test_forward_sin_zero():
    assert dc.sin(Tensor(0.0)).item() == 0.0


def test_identity_convolution_preserves_field():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((1, 2, 6, 7))
    kernel = np.zeros((2, 2, 3, 3))
    kernel[0, 0, 1, 1] = 1.0
    kernel[1, 1, 1, 1] = 1.0
    for padding in ("zero", "circular"):
        out = dc.conv2d(Tensor(field), Tensor(kernel), padding=padding)
        np.testing.assert_array_equal(out.values, field)


def test_backward_square_and_sin():
    x = Tensor(3.0, requires_grad=True)
    y = dc.mul(x, x)
    backward(y)
    assert x.grad == pytest.approx(6.0)

    x = Tensor(0.0, requires_grad=True)
    y = dc.sin(x)
    backward(y)
    assert x.grad == pytest.approx(1.0)


def test_backward_requires_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = dc.square(x)
    with pytest.raises(ValueError):
        backward(y)


def test_leaf_rejects_non_finite():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor(np.inf)


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = make_tensor(rng, (4, 3), scale=0.7)
    w1, b1 = make_tensor(rng, (3, 8), 0.5), make_tensor(rng, (8,), 0.1)
    w2, b2 = make_tensor(rng, (8, 8), 0.5), make_tensor(rng, (8,), 0.1)
    w3, b3 = make_tensor(rng, (8, 2), 0.5), make_tensor(rng, (2,), 0.1)
    leaves = [x, w1, b1, w2, b2, w3, b3]

    def build():
        h = dc.relu(dc.affine(x, w1, b1))
        h = dc.relu(dc.affine(h, w2, b2))
        return dc.sum_all(dc.square(dc.affine(h, w3, b3)))

    assert gradcheck(build, leaves) < GRADCHECK_TOL


@pytest.mark.parametrize("name", [
    "add", "sub", "mul", "mul_scalar_operand", "smul", "relu", "sin", "square",
    "sqrt", "softplus", "sum", "mean", "narrow", "concat", "reshape",
    "laplacian_periodic", "laplacian_neumann_zero",
])
def test_primitive_gradcheck(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    a = make_tensor(rng, (3, 4))
    b = make_tensor(rng, (3, 4))
    s = make_tensor(rng, ())
    f = make_tensor(rng, (2, 2, 4, 5))
    builders = {
        "add": (lambda: dc.sum_all(dc.square(dc.add(a, b))), [a, b]),
        "sub": (lambda: dc.sum_all(dc.square(dc.sub(a, b))), [a, b]),
        "mul": (lambda: dc.sum_all(dc.mul(a, b)), [a, b]),
        "mul_scalar_operand": (lambda: dc.sum_all(dc.mul(s, a)), [s, a]),
        "smul": (lambda: dc.sum_all(dc.smul(1.7, a)), [a]),
        "relu": (lambda: dc.sum_all(dc.square(dc.relu(a))), [a]),
        "sin": (lambda: dc.sum_all(dc.sin(a)), [a]),
        "square": (lambda: dc.sum_all(dc.square(a)), [a]),
        "sqrt": (lambda: dc.sum_all(dc.sqrt(dc.add(dc.square(a), 1.0))), [a]),
        "softplus": (lambda: dc.sum_all(dc.softplus(a)), [a]),
        "sum": (lambda: dc.square(dc.sum_all(a)), [a]),
        "mean": (lambda: dc.square(dc.mean_all(a)), [a]),
        "narrow": (lambda: dc.sum_all(dc.square(dc.narrow(a, 1, 1, 2))), [a]),
        "concat": (lambda: dc.sum_all(dc.square(dc.concat([a, b], 0))), [a, b]),
        "reshape": (lambda: dc.sum_all(dc.square(dc.reshape(a, (4, 3)))), [a]),
        "laplacian_periodic":
            (lambda: dc.sum_all(dc.square(dc.laplacian(f, "periodic", 0.7))), [f]),
        "laplacian_neumann_zero":
            (lambda: dc.sum_all(dc.square(dc.laplacian(f, "neumann_zero", 0.7))), [f]),
    }
    build, leaves = builders[name]
    assert gradcheck(build, leaves) < GRADCHECK_TOL


# The forward correlation of (2, 4) stacks the input taps into one GEMM, that of
# (4, 4) runs one matmul per tap, and that of (4, 2) runs one GEMM over all nine
# taps' kernels and nine shifted adds.  The x-VJP correlates with the
# channel-transposed kernel, so there (2, 4) and (4, 2) swap groupings.  The
# kernel VJP runs one matmul per tap for all three.
CONV_CHANNELS = [(2, 4), (4, 4), (4, 2)]


@pytest.mark.parametrize("c_in,c_out", CONV_CHANNELS)
@pytest.mark.parametrize("padding", ["zero", "circular"])
def test_conv2d_gradcheck(padding, c_in, c_out):
    rng = np.random.default_rng(11)
    x = make_tensor(rng, (2, c_in, 5, 6))
    k = make_tensor(rng, (c_out, c_in, 3, 3), scale=0.5)
    b = make_tensor(rng, (c_out,), scale=0.1)

    def build():
        return dc.sum_all(dc.square(dc.conv2d(x, k, b, padding=padding)))

    assert gradcheck(build, [x, k, b]) < GRADCHECK_TOL


@pytest.mark.parametrize("bc", ["periodic", "neumann_zero"])
def test_laplacian_is_self_adjoint(bc):
    # the VJP applies the forward stencil to g, which is exact only if <Lx, y> = <x, Ly>
    rng = np.random.default_rng(19)
    x, y = rng.standard_normal((2, 2, 2, 4, 5))

    def lap(v):
        return dc.laplacian(Tensor(v), bc, 0.7).values

    assert_adjoint(lap, lap, x, y)


@pytest.mark.parametrize("c_in,c_out", CONV_CHANNELS)
@pytest.mark.parametrize("padding", ["zero", "circular"])
def test_conv2d_vjps_are_exact_adjoints(padding, c_in, c_out):
    # conv2d is linear in x and in k separately, so each VJP must be the exact
    # adjoint; a 3-row grid makes each output row read every input row
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, c_in, 3, 5))
    k = rng.standard_normal((c_out, c_in, 3, 3))
    y = rng.standard_normal((2, c_out, 3, 5))

    def vjps(y):
        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        backward(dc.sum_all(dc.mul(dc.conv2d(xt, kt, padding=padding), Tensor(y))))
        return xt.grad, kt.grad

    assert_adjoint(lambda v: dc.conv2d(Tensor(v), Tensor(k), padding=padding).values,
                   lambda w: vjps(w)[0], x, y)
    assert_adjoint(lambda v: dc.conv2d(Tensor(x), Tensor(v), padding=padding).values,
                   lambda w: vjps(w)[1], k, y)


@pytest.mark.parametrize("c_in,c_out", CONV_CHANNELS)
def test_conv2d_matches_direct_sum(c_in, c_out):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, c_in, 5, 7))
    k = rng.standard_normal((c_out, c_in, 3, 3))
    bias = rng.standard_normal(c_out)
    for padding in ("zero", "circular"):
        out = dc.conv2d(Tensor(x), Tensor(k), Tensor(bias), padding=padding).values
        expected = conv2d_direct(x, k, padding) + bias[None, :, None, None]
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("c_in,c_out", CONV_CHANNELS)
@pytest.mark.parametrize("padding", ["zero", "circular"])
def test_conv2d_norm_gradcheck(padding, c_in, c_out):
    # the normalized input: x, scale and shift reach the output through the
    # batch norm, the recomputed ReLU mask and the convolution's x-gradient
    rng = np.random.default_rng(29)
    x = make_tensor(rng, (3, c_in, 4, 5), scale=2.0)
    k = make_tensor(rng, (c_out, c_in, 3, 3), scale=0.5)
    b = make_tensor(rng, (c_out,), scale=0.1)
    scale = make_tensor(rng, (c_in,), scale=0.5)
    shift = make_tensor(rng, (c_in,), scale=0.5)

    def build():
        return dc.sum_all(dc.square(dc.conv2d(x, k, b, padding=padding, norm=(scale, shift))))

    assert gradcheck(build, [x, k, b, scale, shift]) < GRADCHECK_TOL


@pytest.mark.parametrize("c_in,c_out", CONV_CHANNELS)
@pytest.mark.parametrize("padding", ["zero", "circular"])
def test_conv2d_norm_equals_relu_of_batchnorm_then_conv2d(padding, c_in, c_out):
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((3, c_in, 4, 5)))
    k, b = Tensor(rng.standard_normal((c_out, c_in, 3, 3))), Tensor(rng.standard_normal(c_out))
    scale, shift = Tensor(rng.standard_normal(c_in)), Tensor(rng.standard_normal(c_in))
    fused = dc.conv2d(x, k, b, padding=padding, norm=(scale, shift)).values
    separate = dc.conv2d(dc.relu(dc.batchnorm2d(x, scale, shift)), k, b, padding=padding).values
    assert fused.tobytes() == separate.tobytes()


def test_conv2d_norm_rejects_bad_scale_shape():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ValueError, match="scale/shift"):
        dc.conv2d(x, k, norm=(Tensor(np.ones(3)), Tensor(np.zeros(3))))


def kernel_gradient(x, k, padding):
    """``conv2d``'s kernel gradient for a fixed output gradient; the input is
    a constant, so the kernel VJP is the only product that runs."""
    kt = Tensor(k, requires_grad=True)
    out = dc.conv2d(Tensor(x), kt, padding=padding)
    g = np.random.default_rng(41).standard_normal(out.values.shape)
    backward(dc.sum_all(dc.mul(out, Tensor(g))))
    return kt.grad


@pytest.mark.parametrize("product", ["correlate3x3", "kernel_gradient"])
@pytest.mark.parametrize("c_in,c_out", CONV_CHANNELS)
@pytest.mark.parametrize("padding", ["zero", "circular"])
def test_correlate3x3_in_groups_equals_one_group(monkeypatch, padding, c_in, c_out, product):
    # a sample's correlation does not depend on its group, so it is byte-equal;
    # the kernel gradient adds up each group's sum over its samples, so only
    # its rounding may depend on the group size
    rng = np.random.default_rng(37)
    x = rng.standard_normal((7, c_in, 4, 5))
    k = rng.standard_normal((c_out, c_in, 3, 3))
    run = ops._correlate3x3 if product == "correlate3x3" else kernel_gradient
    monkeypatch.setattr(ops, "_SCRATCH_BYTES", 1 << 40)
    whole = run(x, k, padding)
    # one sample per group, then groups of 2 to 7 samples, for each product at
    # least once with a shorter last group
    for budget in (1, 8192, 16384):
        monkeypatch.setattr(ops, "_SCRATCH_BYTES", budget)
        grouped = run(x, k, padding)
        if product == "correlate3x3":
            assert grouped.tobytes() == whole.tobytes(), budget
        else:
            np.testing.assert_allclose(grouped, whole, rtol=0, atol=1e-14 * np.abs(whole).max())


@pytest.mark.parametrize("c_in,c_out", [(2, 16), (16, 16), (16, 2)])
@pytest.mark.parametrize("batch,grid", [(176, 16), (4, 64)])
def test_correlate3x3_scratch_stays_within_its_budget(batch, grid, c_in, c_out):
    # everything but the output is one group's scratch.  At 64x64 one sample
    # needs more than the budget: its padded input, its tap scratch (the
    # stacked taps of the thinner side, or one c_out-channel temporary) and
    # its accumulator, each at most (grid + 2)^2 numbers per channel
    rng = np.random.default_rng(47)
    x = rng.standard_normal((batch, c_in, grid, grid))
    k = rng.standard_normal((c_out, c_in, 3, 3))
    taps = 9 * min(c_in, c_out) if c_in != c_out else c_out
    one_sample = 8 * (grid + 2) ** 2 * (c_in + taps + c_out)
    peak, out = peak_bytes(lambda: ops._correlate3x3(x, k, "circular"))
    assert peak - out.nbytes <= max(ops._SCRATCH_BYTES, one_sample) + (256 << 10)


@pytest.mark.parametrize("c_in,c_out", [(2, 16), (16, 16), (16, 2)])
def test_conv2d_kernel_gradient_scratch_stays_within_the_budget(c_in, c_out):
    # the kernel gradient of a whole-split pass at 16x16: beyond the output
    # gradient it is handed, it holds one group's scratch, not the batch's
    rng = np.random.default_rng(53)
    out = dc.conv2d(Tensor(rng.standard_normal((176, c_in, 16, 16))),
                    Tensor(rng.standard_normal((c_out, c_in, 3, 3)), requires_grad=True),
                    padding="circular")
    root = dc.sum_all(out)
    peak, _ = peak_bytes(lambda: backward(root))
    assert peak - out.values.nbytes <= ops._SCRATCH_BYTES + (256 << 10)


@pytest.mark.parametrize("mode", ["zero", "circular"])
def test_pad2d_gradcheck(mode):
    rng = np.random.default_rng(13)
    x = make_tensor(rng, (2, 2, 4, 5))

    def build():
        return dc.sum_all(dc.square(dc.pad2d(x, mode)))

    assert gradcheck(build, [x]) < GRADCHECK_TOL


def test_pad2d_equals_np_pad():
    rng = np.random.default_rng(37)
    for shape in [(2, 3, h, w) for h in range(1, 6) for w in range(1, 6)]:
        x = rng.standard_normal(shape)
        for mode, np_mode in (("zero", "constant"), ("circular", "wrap")):
            expected = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode=np_mode)
            got = dc.pad2d(Tensor(x), mode).values
            assert got.tobytes() == expected.tobytes(), (shape, mode)


@pytest.mark.parametrize("width", [1, 2])
def test_pad_boundary_equals_np_pad(width):
    rng = np.random.default_rng(41)
    shapes = [(2, 1, h, w) for h in range(1, 6) for w in range(1, 6)] + [(3, 4), (2, 2, 2, 4, 5)]
    for shape in shapes:
        field = rng.standard_normal(shape)
        for bc, np_mode in (("periodic", "wrap"), ("neumann_zero", "edge"), ("zero", "constant")):
            if min(shape[-2:]) < width:
                with pytest.raises(ValueError):
                    pad_boundary(field, bc, width)
                continue
            expected = np.pad(field, [(0, 0)] * (field.ndim - 2) + [(width, width)] * 2,
                              mode=np_mode)
            got = pad_boundary(field, bc, width)
            assert got.shape == expected.shape, (shape, bc)
            assert got.tobytes() == expected.tobytes(), (shape, bc)


def test_relu_pins_nan_and_signed_zero():
    # the values of np.where(x > 0, x, 0): NaN and -0.0 map to +0.0
    # a leaf rejects NaN, so the first entry is inf - inf built from two finite
    # leaves; two leaves, so that big1.grad is 10 times the gradient at the NaN
    big1 = Tensor([1e308], requires_grad=True)
    big2 = Tensor([1e308], requires_grad=True)
    rest = Tensor([-0.0, -1.0, 0.0, 2.0], requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"):
        nan = dc.sub(dc.smul(10.0, big1), dc.smul(10.0, big2))
        xt = dc.concat([nan, rest], axis=0)
    assert np.isnan(xt.values[0]) and np.signbit(xt.values[1])
    out = dc.relu(xt)
    np.testing.assert_array_equal(out.values, [0.0, 0.0, 0.0, 0.0, 2.0])
    assert not np.signbit(out.values).any()
    backward(dc.sum_all(out))
    np.testing.assert_array_equal(big1.grad, [0.0])
    np.testing.assert_array_equal(rest.grad, [0.0, 0.0, 0.0, 1.0])
    # np.fmax alone keeps -0.0 at some lengths
    for n in (17, 1000, 100001):
        assert not np.signbit(dc.relu(Tensor(np.full(n, -0.0))).values).any(), n


def test_batchnorm_gradcheck():
    rng = np.random.default_rng(17)
    x = make_tensor(rng, (4, 3, 4, 4), scale=2.0)
    scale = make_tensor(rng, (3,), scale=0.5)
    shift = make_tensor(rng, (3,), scale=0.5)
    w = Tensor(rng.standard_normal((4, 3, 4, 4)))  # fixed probe

    def build():
        return dc.sum_all(dc.mul(dc.batchnorm2d(x, scale, shift), w))

    assert gradcheck(build, [x, scale, shift]) < GRADCHECK_TOL


def test_composed_depth_ten_gradcheck():
    rng = np.random.default_rng(23)
    x = make_tensor(rng, (3, 3), scale=0.5)
    w = make_tensor(rng, (3, 3), scale=0.4)

    def build():
        h = x
        for _ in range(4):
            h = dc.softplus(dc.affine(h, w))
            h = dc.add(dc.sin(h), dc.square(h))
        return dc.mean_all(h)

    assert gradcheck(build, [x, w]) < GRADCHECK_TOL


def test_backward_linearity():
    # backward of a*f + b*g equals a*grad(f) + b*grad(g) elementwise
    rng = np.random.default_rng(29)
    vals = rng.standard_normal((5,))
    a, b = 2.5, -1.25

    def grad_of(build):
        x = Tensor(vals, requires_grad=True)
        backward(build(x))
        return x.grad

    gf = grad_of(lambda x: dc.sum_all(dc.square(x)))
    gg = grad_of(lambda x: dc.sum_all(dc.sin(x)))
    combined = grad_of(
        lambda x: dc.add(dc.smul(a, dc.sum_all(dc.square(x))),
                         dc.smul(b, dc.sum_all(dc.sin(x))))
    )
    np.testing.assert_allclose(combined, a * gf + b * gg, rtol=1e-12, atol=1e-14)


def test_forward_backward_determinism():
    rng = np.random.default_rng(31)
    xv = rng.standard_normal((4, 4))
    kv = 0.3 * rng.standard_normal((2, 1, 3, 3))

    def run():
        x = Tensor(xv.reshape(1, 1, 4, 4), requires_grad=True)
        k = Tensor(kv, requires_grad=True)
        out = dc.sum_all(dc.square(dc.conv2d(x, k, padding="circular")))
        backward(out)
        return out.item(), x.grad.copy(), k.grad.copy()

    o1, gx1, gk1 = run()
    o2, gx2, gk2 = run()
    assert o1 == o2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gk1, gk2)


def test_backward_calls_a_records_vjps_back_to_back_with_one_g():
    # the VJPs of one node may share work keyed on the identity of g (see
    # tensor.py): p feeds q and r, and a feeds every record, twice into p
    calls = []

    def logged(tag):
        def vjp(g):
            calls.append((tag, g))
            return g
        return vjp

    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    p = ops._node(a.values + b.values, [(a, logged("p0")), (b, logged("p1")), (a, logged("p2"))])
    q = ops._node(2.0 * p.values, [(p, logged("q0")), (a, logged("q1"))])
    r = ops._node(p.values + q.values, [(q, logged("r0")), (p, logged("r1"))])
    backward(dc.sum_all(r))
    tags = [tag for tag, _ in calls]
    assert tags == ["r0", "r1", "q0", "q1", "p0", "p1", "p2"]
    for record in "pqr":
        gs = [g for tag, g in calls if tag[0] == record]
        assert all(g is gs[0] for g in gs), record


def test_normalized_nodes_run_the_batch_norm_vjp_once_per_gradient(monkeypatch):
    # batchnorm2d and conv2d(norm=) share one batch-norm pass among their
    # x, scale and shift VJPs
    runs = []
    bn_vjp = ops._bn_vjp
    monkeypatch.setattr(ops, "_bn_vjp",
                        lambda *args, **kwargs: runs.append(1) or bn_vjp(*args, **kwargs))
    rng = np.random.default_rng(53)
    x = make_tensor(rng, (2, 3, 4, 4))
    scale, shift = make_tensor(rng, (3,)), make_tensor(rng, (3,))
    k = make_tensor(rng, (2, 3, 3, 3))
    h = dc.batchnorm2d(x, scale, shift)
    backward(dc.sum_all(dc.square(dc.conv2d(h, k, norm=(scale, shift)))))
    assert len(runs) == 2
    assert all(t.grad is not None for t in (x, scale, shift, k))


def test_backward_never_writes_an_array_passed_to_a_vjp():
    # add(a, a) hands the same g to both operands, a feeds three ops, and the
    # narrow/reshape chain passes views of g on to its parents
    rng = np.random.default_rng(43)
    a = make_tensor(rng, (3, 4))
    w = make_tensor(rng, (3, 4))

    def build():
        t = dc.mul(dc.add(a, a), w)
        u = dc.add(dc.sin(a), dc.square(a))
        r = dc.reshape(dc.narrow(dc.add(t, u), 1, 1, 2), (2, 3))
        return dc.sum_all(dc.square(dc.add(r, r)))

    assert gradcheck(build, [a, w]) < GRADCHECK_TOL

    root = build()
    passed = []

    def watch(vjp):
        def watched(g):
            passed.append((g, np.array(g, copy=True)))
            return vjp(g)
        return watched

    records = [node for node in _toposort(root._record) if not isinstance(node, Tensor)]
    for record in records:
        record.edges = [(parent, watch(fn)) for parent, fn in record.edges]
    wrapped = sum(len(record.edges) for record in records)
    assert wrapped > 0
    backward(root)
    assert len(passed) == wrapped
    for g, before in passed:
        np.testing.assert_array_equal(g, before)


def test_grad_accumulates_across_reuse():
    x = Tensor(2.0, requires_grad=True)
    y = dc.add(dc.mul(x, x), dc.mul(x, x))  # 2x^2, x used in two branches
    backward(y)
    assert x.grad == pytest.approx(8.0)


def test_untouched_leaf_keeps_zero_gradient():
    ps = ParamSet()
    used = ps.add("used", np.array([1.0, 2.0]))
    unused = ps.add("unused", np.array([3.0]))
    ps.zero_grad()
    backward(dc.sum_all(dc.square(used)))
    np.testing.assert_array_equal(unused.grad, [0.0])
    np.testing.assert_array_equal(used.grad, [2.0, 4.0])


def test_paramset_rejects_duplicates():
    ps = ParamSet()
    ps.add("w", np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        ps.add("w", np.zeros(2))


def test_no_grad_suppresses_taping():
    x = Tensor(1.5, requires_grad=True)
    with dc.no_grad():
        y = dc.square(x)
    assert not y.requires_grad
    assert y.is_leaf()


def test_conv2d_zero_sum_kernel_on_constant_field():
    kernel = np.array([[[[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]]])
    field = np.full((1, 1, 5, 5), 3.7)
    out = dc.conv2d(Tensor(field), Tensor(kernel), padding="circular")
    np.testing.assert_allclose(out.values, 0.0, atol=1e-14)


def test_conv2d_laplacian_on_delta_zero_padding():
    kernel = np.array([[[[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]]])
    field = np.zeros((1, 1, 5, 5))
    field[0, 0, 2, 2] = 1.0
    out = dc.conv2d(Tensor(field), Tensor(kernel), padding="zero").values[0, 0]
    expected = np.zeros((5, 5))
    expected[2, 2] = -4.0
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        expected[2 + di, 2 + dj] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_conv2d_laplacian_on_ramp_circular_hits_wrap_columns():
    # u(x, y) = x is harmonic in the interior; circular wrap makes the
    # first/last columns jump, so only those columns respond.
    h, w = 5, 6
    field = np.tile(np.arange(w, dtype=float), (h, 1))[None, None]
    kernel = np.array([[[[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]]])
    out = dc.conv2d(Tensor(field), Tensor(kernel), padding="circular").values[0, 0]
    # independent computation from the wrap rule
    u = field[0, 0]
    expected = (np.roll(u, 1, 1) + np.roll(u, -1, 1)
                + np.roll(u, 1, 0) + np.roll(u, -1, 0) - 4 * u)
    np.testing.assert_allclose(out, expected, atol=1e-13)
    assert np.all(out[:, 1:-1] == 0.0)
    assert np.all(out[:, 0] != 0.0) and np.all(out[:, -1] != 0.0)


def test_conv2d_rejects_bad_kernel_size():
    with pytest.raises(ValueError, match="3x3"):
        dc.conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((1, 1, 5, 5))))


def test_conv2d_rejects_unknown_padding():
    with pytest.raises(ValueError, match="padding"):
        dc.conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((1, 1, 3, 3))),
                  padding="reflect")


def test_shape_mismatch_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        dc.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError, match="affine"):
        dc.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
