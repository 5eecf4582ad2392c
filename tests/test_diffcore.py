import numpy as np
import pytest

import aphynity.diffcore as dc
from aphynity.diffcore import ParamSet, Tensor, backward

from helpers import conv2d_direct, gradcheck, make_tensor

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


@pytest.mark.parametrize("padding", ["zero", "circular"])
def test_conv2d_gradcheck(padding):
    rng = np.random.default_rng(11)
    x = make_tensor(rng, (2, 3, 5, 6))
    k = make_tensor(rng, (4, 3, 3, 3), scale=0.5)
    b = make_tensor(rng, (4,), scale=0.1)

    def build():
        return dc.sum_all(dc.square(dc.conv2d(x, k, b, padding=padding)))

    assert gradcheck(build, [x, k, b]) < GRADCHECK_TOL


@pytest.mark.parametrize("bc", ["periodic", "neumann_zero"])
def test_laplacian_is_self_adjoint(bc):
    # the VJP applies the forward stencil to g, which is exact only if <Lx, y> = <x, Ly>
    rng = np.random.default_rng(19)
    x, y = rng.standard_normal((2, 2, 2, 4, 5))
    lx = dc.laplacian(Tensor(x), bc, 0.7).values
    ly = dc.laplacian(Tensor(y), bc, 0.7).values
    np.testing.assert_allclose(np.sum(lx * y), np.sum(x * ly), rtol=1e-12)


def test_conv2d_matches_direct_sum():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 2, 5, 7))
    k = rng.standard_normal((4, 2, 3, 3))
    bias = rng.standard_normal(4)
    for padding in ("zero", "circular"):
        out = dc.conv2d(Tensor(x), Tensor(k), Tensor(bias), padding=padding).values
        expected = conv2d_direct(x, k, padding) + bias[None, :, None, None]
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", ["zero", "circular"])
def test_pad2d_gradcheck(mode):
    rng = np.random.default_rng(13)
    x = make_tensor(rng, (2, 2, 4, 5))

    def build():
        return dc.sum_all(dc.square(dc.pad2d(x, mode)))

    assert gradcheck(build, [x]) < GRADCHECK_TOL


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
