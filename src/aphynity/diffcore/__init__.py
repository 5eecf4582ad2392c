"""Minimal reverse-mode autodiff core used by the dynamics models."""

from .tensor import Tensor, backward, no_grad
from .params import ParamSet
from . import ops
from .ops import *  # noqa: F401,F403 -- the ops are ops.__all__

__all__ = ["Tensor", "ParamSet", "backward", "no_grad", *ops.__all__]
