"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, double_precision

__all__ = ["grad_check"]

STEP = 1e-5  # central-difference step h; each probe also runs at h/2
FLOOR = 1e-3  # relative errors divide by at least this
SMOOTH_TOL = 1e-4  # largest relative h vs h/2 disagreement of a smooth probe


@double_precision()
def grad_check(f, params: list[Tensor], max_coords: int = 16, rng: np.random.Generator | None = None) -> float:
    """Compare reverse-mode gradients of ``f()`` against central differences.

    ``f`` rebuilds the graph on every call and returns a scalar Tensor that
    depends on the leaf tensors in ``params``. Up to ``max_coords``
    coordinates per parameter are probed (all of them for small tensors).
    Returns the maximum relative error observed, where the relative error of
    a pair (a, b) is |a - b| / max(|a|, |b|, FLOOR); the floor keeps
    finite-difference rounding noise from dominating coordinates whose true
    gradient is zero.

    Central differences are only meaningful where the objective is locally
    smooth. Each probe therefore runs at steps h = ``STEP`` and h/2; when the two
    estimates disagree beyond ``SMOOTH_TOL`` (relative, same floor) the
    perturbation crossed an activation kink (ReLU zero, max-pool argmax swap)
    and the coordinate is excluded from the comparison. A wrong analytic
    gradient still fails: away from kinks both step sizes agree with each
    other and expose the mismatch.

    It runs under ``double_precision()``, so ``conv_block`` computes in float64 like every
    other op: float32 rounding would swamp a central difference at this step.
    """
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.grad = None
    out = f()
    if out.size != 1:
        raise ValueError("grad_check needs a scalar objective")
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for c in coords:
            original = flat[c]

            def probe(step: float) -> float:
                flat[c] = original + step
                plus = float(f().data)
                flat[c] = original - step
                minus = float(f().data)
                flat[c] = original
                return (plus - minus) / (2.0 * step)

            numeric = probe(STEP)
            half = probe(STEP / 2.0)
            if abs(numeric - half) > SMOOTH_TOL * max(abs(numeric), abs(half), FLOOR):
                continue  # non-smooth locally; the estimate is meaningless here
            a = ga.reshape(-1)[c]
            err = abs(a - numeric) / max(abs(a), abs(numeric), FLOOR)
            worst = max(worst, err)
    return worst
