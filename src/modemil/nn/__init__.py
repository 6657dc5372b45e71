"""Minimal double-precision tensor/NN toolkit backing the classifiers."""


def _configure_allocator() -> None:
    # Training churns through large double-precision temporaries every step;
    # glibc serves those via mmap/munmap by default, so each step pays page
    # faults for hundreds of megabytes. Raising the mmap threshold keeps the
    # buffers on the reused heap. No-op on non-glibc platforms.
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    except Exception:
        pass


_configure_allocator()

from .checkpoint import load_arrays, save_arrays
from .gradcheck import grad_check
from .layers import BatchNorm, BiLSTM, Conv2D, Dense, Dropout, Module, conv2d, conv_block, glorot_uniform, max_pool
from .optim import Adam, NonFiniteGradient
from .tensor import (
    Tensor,
    cce_loss,
    clip,
    concat,
    log,
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
    "make_node",
    "concat",
    "relu",
    "tanh",
    "sigmoid",
    "log",
    "clip",
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
