"""Minimal reverse-mode autodiff core used by the dynamics models."""

from .tensor import Tensor, backward, no_grad
from .params import ParamSet
from .ops import (
    add, sub, mul, smul, affine, relu, sin, square, sqrt, softplus,
    sum_all, mean_all, narrow, concat, reshape, pad2d, conv2d,
    batchnorm2d, laplacian,
)

__all__ = [
    "Tensor", "ParamSet", "backward", "no_grad",
    "add", "sub", "mul", "smul", "affine", "relu", "sin", "square", "sqrt",
    "softplus", "sum_all", "mean_all", "narrow", "concat", "reshape",
    "pad2d", "conv2d", "batchnorm2d", "laplacian",
]
