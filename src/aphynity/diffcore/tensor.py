"""Tape-based reverse-mode automatic differentiation on float64 numpy arrays.

Every operation builds a node in a dynamic DAG; ``backward`` walks the DAG
in reverse topological order and accumulates vector-Jacobian products into
the leaf gradients.  The op set is deliberately small: exactly what the
dynamics models, the unrolled integrator and the training losses need.
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


class Tensor:
    """A float64 array together with an optional gradient buffer.

    Leaf tensors are created directly and reject non-finite values.
    Interior tensors are created by the ops in :mod:`aphynity.diffcore.ops`
    and carry references to their parents plus one vector-Jacobian-product
    callback per differentiable parent.  Values are immutable by convention:
    nothing in this package writes to ``values`` after construction.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf tensor rejects non-finite values")
        self.values = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjps = ()

    @classmethod
    def _interior(cls, values, parents, vjps) -> "Tensor":
        out = cls.__new__(cls)
        out.values = values
        out.grad = None
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjps = tuple(vjps)
        return out

    @classmethod
    def _const(cls, values) -> "Tensor":
        out = cls.__new__(cls)
        out.values = values
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._vjps = ()
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
        return not self._parents

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.values)

    def backward(self, seed: float = 1.0) -> None:
        backward(self, seed)

    # Operator sugar delegates to the op module; imported lazily to avoid
    # a circular import at package load time.
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops

        if isinstance(other, (int, float)):
            return ops.smul(float(other), self)
        return ops.mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        from . import ops

        return ops.smul(-1.0, self)

    def __repr__(self) -> str:
        tag = "leaf" if self.is_leaf() else "node"
        return f"Tensor({tag}, shape={self.values.shape}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Tensor, seed: float = 1.0) -> None:
    """Accumulate d(root)/d(leaf) into ``leaf.grad`` for every reachable leaf.

    The root must be scalar.  Interior gradients live only transiently; leaf
    gradients are accumulated (callers reset with ``zero_grad`` between steps).
    """
    if root.values.shape != ():
        raise ValueError("backward requires a scalar root")
    if not root.requires_grad:
        return
    order = _toposort(root)
    inflight: dict[int, np.ndarray] = {id(root): np.asarray(float(seed))}
    for node in reversed(order):
        g = inflight.pop(id(node), None)
        if g is None:
            continue
        if node._parents:
            for parent, vjp in zip(node._parents, node._vjps):
                contrib = vjp(g)
                key = id(parent)
                if key in inflight:
                    inflight[key] += contrib
                else:
                    inflight[key] = np.array(contrib, dtype=np.float64, copy=True)
        elif node.requires_grad:
            if node.grad is None:
                node.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                node.grad += g

