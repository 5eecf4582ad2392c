"""Named collections of trainable tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["ParamSet"]


class ParamSet:
    """Ordered mapping of unique names to trainable leaf tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, values, requires_grad: bool = True) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = values if isinstance(values, Tensor) else Tensor(values, requires_grad=requires_grad)
        self._params[name] = t
        return t

    def adopt(self, prefix: str, other: "ParamSet") -> None:
        for name, t in other.items():
            self.add(f"{prefix}.{name}" if prefix else name, t)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def grad_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t.grad is not None:
                total += float(np.sum(t.grad * t.grad))
        return float(np.sqrt(total))

    def clip_grad_norm(self, max_norm: float) -> float:
        norm = self.grad_norm()
        if norm > max_norm > 0.0:
            factor = max_norm / norm
            for t in self._params.values():
                if t.grad is not None:
                    t.grad *= factor
        return norm

    def state(self) -> dict[str, np.ndarray]:
        """Copies of current values, keyed by name."""
        return {name: t.values.copy() for name, t in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, t in self._params.items():
            src = np.asarray(state[name], dtype=np.float64)
            if src.shape != t.values.shape:
                raise ValueError(f"parameter {name!r}: shape {src.shape} != {t.values.shape}")
            t.values = src.copy()
