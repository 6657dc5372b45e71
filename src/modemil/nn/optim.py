"""Adam optimizer with bias correction, operating in place on parameters."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["Adam", "NonFiniteGradient"]


class NonFiniteGradient(RuntimeError):
    """Raised when a step sees a NaN/inf gradient; the step is rejected."""


class Adam:
    """Standard bias-corrected Adam.

    State holds one first/second moment accumulator per parameter plus the
    step counter. A step makes no temporaries: its ops run with ``out=`` into
    two scratch buffers, in the order of the textbook expressions and with
    their bits. All parameters share the buffers, so they stay in cache from
    one parameter to the next. A non-finite gradient rejects the whole step
    before any state or parameter is touched; the error names the parameter
    by its key when ``params`` is a ``{name: tensor}`` mapping, else by its
    index.
    """

    def __init__(
        self,
        params: list[Tensor] | dict[str, Tensor],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        named = params if isinstance(params, dict) else {f"parameter {i}": p for i, p in enumerate(params)}
        self.names = list(named)
        self.params = list(named.values())
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = np.empty((2, max((p.data.size for p in self.params), default=0)))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        grads = []
        for name, p in zip(self.names, self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"non-finite gradient in {name} (shape {p.data.shape})")
            grads.append(g)
        self.step_count += 1
        c1 = 1.0 - self.beta1**self.step_count
        c2 = 1.0 - self.beta2**self.step_count
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            step, denom = (buf[: g.size].reshape(g.shape) for buf in self._scratch)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=step)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=step)
            v += np.multiply(step, g, out=step)
            # lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=step)
            np.multiply(self.lr, step, out=step)
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            p.data -= np.divide(step, denom, out=step)
