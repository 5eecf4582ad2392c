"""What the autodiff graph keeps alive.

Each test counts the numpy buffers a forward or backward pass leaves
allocated (see ``helpers.retained_bytes``), in units of one hidden
activation of the model under test.
"""

import numpy as np
import pytest

import aphynity.diffcore as dc
from aphynity.augments import ConvNetAugmentation, ConvNetSpec, MlpAugmentation, MlpSpec
from aphynity.diffcore import Tensor, backward

from helpers import peak_bytes, retained_bytes

BATCH, HIDDEN, GRID = 4, 16, 16
CONV_ACTIVATION = BATCH * HIDDEN * GRID * GRID * 8


def convnet_and_state():
    net = ConvNetAugmentation(ConvNetSpec(hidden_channels=HIDDEN, padding="circular"), seed=1)
    state = Tensor(np.random.default_rng(2).standard_normal((BATCH, 2, GRID, GRID)))
    return net, state


def test_convnet_forward_keeps_only_what_its_vjps_read():
    # per conv-bn-relu block only x-hat, which the next convolution's VJPs
    # read to recompute the activation; plus the 2-channel output
    net, state = convnet_and_state()
    held, _out = retained_bytes(lambda: net(state))
    assert held / CONV_ACTIVATION <= 2.5


def test_no_grad_convnet_pass_over_a_split_stays_near_three_activations():
    # a whole-split |F_a|^2 pass: the block's input, its activation and the
    # output, plus one bounded group of convolution scratch
    batch = 176
    net, _ = convnet_and_state()
    state = Tensor(np.random.default_rng(5).standard_normal((batch, 2, GRID, GRID)))
    with dc.no_grad():
        peak, _out = peak_bytes(lambda: net(state))
    assert peak / (CONV_ACTIVATION / BATCH * batch) <= 3.5


def test_convnet_backward_over_a_split_stays_within_four_and_a_half_activations():
    # the grad-mode |F_a|^2 term over a batch's states: the graph, the
    # gradients in flight and one bounded group of scratch per convolution
    # product; a kernel gradient with batch-sized scratch peaks near 6.5, and
    # a batch-norm x-gradient made in a new array rather than over the
    # convolution's x-gradient near 5.1
    batch = 176
    net, _ = convnet_and_state()
    state = Tensor(np.random.default_rng(5).standard_normal((batch, 2, GRID, GRID)))
    peak, _ = peak_bytes(lambda: backward(dc.sum_all(dc.square(net(state)))))
    assert peak / (CONV_ACTIVATION / BATCH * batch) <= 4.5


def test_mlp_forward_keeps_only_what_its_vjps_read():
    mlp = MlpAugmentation(MlpSpec(), seed=3)
    state = Tensor(np.random.default_rng(4).standard_normal((25, 2)))
    held, _out = retained_bytes(lambda: mlp(state))
    assert held / (25 * 200 * 8) <= 3.5


def test_no_grad_forward_keeps_only_its_output():
    # an op output that referenced itself would outlive its last user
    net, state = convnet_and_state()
    with dc.no_grad():
        held, out = retained_bytes(lambda: net(state))
    assert held <= out.values.nbytes + 1024


def test_backward_frees_the_graph_while_the_root_is_held():
    net, state = convnet_and_state()
    for t in net.params.tensors():
        t.grad = None

    def step():
        root = dc.sum_all(dc.square(net(state)))
        backward(root)
        return root

    held, _root = retained_bytes(step)
    grad_bytes = sum(t.grad.nbytes for t in net.params.tensors())
    assert held - grad_bytes < 1024


def test_second_backward_through_a_consumed_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    root = dc.sum_all(dc.square(x))
    backward(root)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    with pytest.raises(RuntimeError, match="consumed"):
        backward(root)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    assert not root.is_leaf()
