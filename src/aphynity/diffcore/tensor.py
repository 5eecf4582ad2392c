"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

Every operation records a node in a dynamic DAG; ``backward`` walks the DAG
in reverse topological order and accumulates vector-Jacobian products into
the leaf gradients.  The op set is deliberately small: exactly what the
dynamics models, the unrolled integrator and the training losses need.

The graph keeps only what ``backward`` reads:

* An interior tensor points to a graph record that holds its parents'
  records and one VJP per parent, and no array.  A leaf that requires grad
  is its own record; a constant is in no graph.  An op output's ``values``
  therefore live only as long as the caller's tensor does, or as long as a
  VJP that captured them.
* A VJP captures only the arrays it reads: ``relu`` its own output, not
  its input; ``batchnorm2d`` the input's shape, not the input; ``conv2d``
  the input, which its kernel VJP pads again, not the padded copy.  A
  ``conv2d`` with a normalized input (``norm=``) keeps x̂ and the
  per-channel vectors, not its activation ``relu(batchnorm2d(x))``, and its
  VJPs recompute the activation from x̂.
* ``backward`` consumes the graph: it drops each record's parents and VJPs
  as soon as they have run, so nothing of the graph is left when it
  returns, even if the caller still holds the root.  A second ``backward``
  through a consumed record raises ``RuntimeError``; build the graph again.

A VJP must not write into the gradient ``g`` it is given, nor into its own
output after returning it: ``backward`` passes one array on to several
parents without copying (``add`` returns ``g`` itself to both operands,
``reshape`` a view of it) and sums contributions out of place.

``backward`` calls a record's VJPs back to back, in the order of its
parents, each with the same ``g`` object, and no other VJP runs in between.
The VJPs of one node may therefore share work done on the first call, keyed
on the identity of ``g``: ``batchnorm2d`` and a normalized ``conv2d``
compute their x, scale and shift gradients in one pass.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["Tensor", "backward", "no_grad", "grad_enabled"]

_GRAD_ENABLED = True


def grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (evaluation rollouts)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class _Record:
    """An interior node of the graph: its edges, a list of (parent graph node,
    VJP) pairs.  ``backward`` sets it to ``None`` once the VJPs have run."""

    __slots__ = ("edges",)

    def __init__(self, edges):
        self.edges = edges


class Tensor:
    """A float64 array together with an optional gradient buffer.

    Leaf tensors are created directly and reject non-finite values.
    Interior tensors are created by the ops in :mod:`aphynity.diffcore.ops`
    and point to a graph record of their parents and VJPs.  Values are
    immutable by convention: nothing in this package writes to ``values``
    after construction.
    """

    __slots__ = ("values", "grad", "requires_grad", "_record")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf tensor rejects non-finite values")
        self.values = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._record = None

    @classmethod
    def _const(cls, values) -> "Tensor":
        out = cls.__new__(cls)
        out.values = values
        out.grad = None
        out.requires_grad = False
        out._record = None
        return out

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def is_leaf(self) -> bool:
        return self._record is None

    def _graph_node(self):
        """A leaf is its own graph node; an interior tensor's is its record."""
        return self if self._record is None else self._record

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.values)

    # Operator sugar delegates to the op module, looked up at call time.
    def __add__(self, other):
        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return ops.sub(self, other)

    def __rsub__(self, other):
        return ops.sub(other, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ops.smul(float(other), self)
        return ops.mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return ops.smul(-1.0, self)

    def __repr__(self) -> str:
        tag = "leaf" if self.is_leaf() else "node"
        return f"Tensor({tag}, shape={self.values.shape}, requires_grad={self.requires_grad})"


def _toposort(start) -> list:
    """Graph nodes reachable from ``start`` (a record or a leaf), parents first."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(start, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if type(node) is _Record:
            if node.edges is None:
                raise RuntimeError("backward reached a graph that an earlier backward "
                                   "consumed; build the graph again")
            for parent, _ in node.edges:
                if id(parent) not in seen:
                    stack.append((parent, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into ``leaf.grad`` for every reachable leaf.

    The root must be scalar.  Interior gradients live only transiently; leaf
    gradients are accumulated (callers reset with ``zero_grad`` between steps).
    The graph is consumed as the VJPs run, so a root supports one call.
    """
    if root.values.shape != ():
        raise ValueError("backward requires a scalar root")
    if not root.requires_grad:
        return
    start = root._graph_node()
    order = _toposort(start)
    inflight: dict[int, np.ndarray] = {id(start): np.asarray(1.0)}
    for node in reversed(order):
        # every node is reachable from the root, so its gradient has arrived
        g = inflight.pop(id(node))
        if type(node) is _Record:
            edges, node.edges = node.edges, None
            for parent, vjp in edges:
                contrib = vjp(g)
                key = id(parent)
                if key in inflight:
                    inflight[key] = inflight[key] + contrib
                else:
                    inflight[key] = contrib
        elif node.grad is None:
            node.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            node.grad += g


# ops imports Tensor from this module, so it is bound once both are defined
from . import ops  # noqa: E402
