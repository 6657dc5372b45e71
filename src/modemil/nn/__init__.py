"""Minimal tensor/NN toolkit backing the classifiers: float64 throughout, except that
``conv_block`` computes in float32 inside unless ``double_precision()`` is on."""

from .checkpoint import load_arrays, save_arrays
from .gradcheck import grad_check
from .layers import BatchNorm, BiLSTM, Conv2D, Dense, Dropout, Module, conv2d, conv_block, glorot_uniform, max_pool
from .optim import Adam, NonFiniteGradient
from .tensor import (
    Tensor,
    cce_loss,
    concat,
    double_precision,
    make_node,
    no_grad,
    relu,
    sigmoid,
    softmax,
    tanh,
)

__all__ = [
    "Tensor",
    "no_grad",
    "double_precision",
    "make_node",
    "concat",
    "relu",
    "tanh",
    "sigmoid",
    "softmax",
    "cce_loss",
    "Module",
    "Dense",
    "Conv2D",
    "BatchNorm",
    "Dropout",
    "BiLSTM",
    "conv2d",
    "conv_block",
    "max_pool",
    "glorot_uniform",
    "Adam",
    "NonFiniteGradient",
    "grad_check",
    "save_arrays",
    "load_arrays",
]
