"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is deliberately small: exactly what the two encoders, the
gated attention pool, the classifier and the cross-entropy loss need, namely
add, multiply, matmul, reshape, concat, sum, relu, tanh, sigmoid, softmax and
``cce_loss``, which is one node (clamp, pick, log, mean and negate).
Convolution, max-pool, batch norm and the Bi-LSTM are single nodes built in
``layers``.
``Tensor.backward`` consumes the graph it runs: each node drops its closure
(and the arrays it saved) and its parents as soon as its own backward has run,
so a step's graph is gone by the time the next forward starts. A second
``backward()`` through a released graph raises ``ValueError``.
All data and gradients live in row-major numpy arrays in double precision.
Only ``layers.conv_block`` computes in float32 inside, on float64 inputs and
outputs; under ``double_precision()`` it computes in float64 too, which keeps
finite-difference gradient checks tight.
"""

from __future__ import annotations

import contextlib

import numpy as np

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
]

LOSS_EPS = 1e-7
_grad_enabled = True
_conv_dtype = np.float32


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference forward passes)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


@contextlib.contextmanager
def double_precision():
    """Make ``conv_block`` compute in float64 inside the block, as every other op always does
    (gradient checks). Outside it the conv stack runs in float32 between float64 edges."""
    global _conv_dtype
    previous = _conv_dtype
    _conv_dtype = np.float64
    try:
        yield
    finally:
        _conv_dtype = previous


def conv_dtype() -> type:
    """The dtype ``conv_block`` computes in: float32, or float64 under ``double_precision()``."""
    return _conv_dtype


_RELEASED = "backward() through a graph that an earlier backward() released; run the forward again"


def _released(grad: np.ndarray) -> None:
    """The closure of a node whose backward has run: its saved arrays are gone."""
    raise ValueError(_RELEASED)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` back down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad


class Tensor:
    """A node of the computation graph: float64 data plus an optional gradient.

    Leaf tensors created with ``requires_grad=True`` accumulate gradients in
    ``.grad`` (same shape as ``.data``) when ``backward()`` is called on a
    scalar result. Non-leaf nodes are produced by the ops below; their data is
    never mutated once written.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- autograd ------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        """Keep the first contribution without a copy; add later ones out of place.

        ``.grad`` may share memory with other nodes' gradients, which is sound
        because no backward writes into an array it received or handed on."""
        if self.grad is None:
            grad = np.asarray(grad, dtype=np.float64)
            self.grad = grad if grad.shape == self.data.shape else np.broadcast_to(grad, self.data.shape).copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this node; defaults to d(self)/d(self) = 1 on scalars.

        The graph is consumed: each node drops its closure and its parents as its
        backward runs, so the arrays the closure saved are freed at once, and after
        the call this node and every node of its graph hold only ``data`` and
        ``.grad``. A later ``backward()`` that reaches a released node raises
        ``ValueError`` before it touches any gradient.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _released:
                raise ValueError(_RELEASED)
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            backward = node._backward
            if backward is None:
                continue
            node._backward, node._parents = _released, ()  # frees what the closure saved once it has run
            if node.grad is not None:
                backward(node.grad)

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def recording(parents) -> bool:
    """Whether an op on ``parents`` records a node: recording is on and one requires a gradient."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def make_node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Create a graph node. `backward(grad)` must push gradients to `parents`.

    When no parent requires a gradient (or graph recording is disabled) the
    result is a detached constant, so inference passes carry no graph.
    """
    out = Tensor(data)
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    return make_node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return make_node(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    out_data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad
            b._accumulate(_unbroadcast(gb, b.shape))

    return make_node(out_data, (a, b), backward)


# -- shape manipulation -------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return make_node(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(index)])

    return make_node(out_data, tuple(tensors), backward)


# -- reductions ----------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return make_node(out_data, (a,), backward)


# -- nonlinearities -------------------------------------------------------------


def relu(a) -> Tensor:
    a = _wrap(a)
    # np.maximum (not where/mask) so NaN poisoning stays visible downstream
    out_data = np.maximum(a.data, 0.0)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (out_data > 0.0))  # out > 0 exactly where a > 0

    return make_node(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = _wrap(a)
    out_data = np.tanh(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out_data * out_data))

    return make_node(out_data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    small = np.exp(-np.abs(x))  # never overflows
    denom = 1.0 + small
    return np.where(x >= 0.0, 1.0 / denom, small / denom)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out_data = _sigmoid(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * out_data * (1.0 - out_data))

    return make_node(out_data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        if a.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (grad - inner))

    return make_node(out_data, (a,), backward)


# -- loss -----------------------------------------------------------------------


def cce_loss(probs: Tensor, labels) -> Tensor:
    """Categorical cross-entropy on per-class probabilities.

    ``probs`` is a (batch, classes) matrix of values in (0, 1) per class (here:
    sigmoid outputs) and ``labels`` holds one class per row; the loss is the
    batch mean of -log(probs[row, label]). Probabilities are clamped to
    [LOSS_EPS, 1 - LOSS_EPS], and a clamped label probability gets a zero
    gradient. One node, with the bits of the chain clamp, pick, log, mean,
    negate.
    """
    probs = _wrap(probs)
    labels_arr = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels_arr.shape != probs.shape[:1]:
        raise ValueError(f"expected (batch, classes) probs and one label per row, got {probs.shape}, {labels_arr.shape}")
    n_classes = probs.shape[1]
    if labels_arr.min() < 0 or labels_arr.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes}), got {labels}")
    rows = (np.arange(probs.shape[0]), labels_arr)
    p = probs.data
    picked = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)[rows]

    def backward(grad):
        # each row is picked once, so assigning into zeros is the chain's scatter-add
        inside = (p > LOSS_EPS) & (p < 1.0 - LOSS_EPS)
        full = np.zeros_like(p)
        full[rows] = -grad / picked.size / picked
        probs._accumulate(full * inside)

    return make_node(-np.log(picked).mean(), (probs,), backward)
