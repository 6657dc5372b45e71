"""Adam update rule and its guard rails."""

import numpy as np
import pytest

from modemil.nn import Adam, NonFiniteGradient, Tensor


def test_zero_gradient_is_a_noop():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam([p], lr=1e-2)
    p.grad = np.zeros(3)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)
    assert opt.step_count == 1


def test_first_step_magnitude_is_learning_rate():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    opt = Adam([p], lr=1e-4)
    p.grad = np.array([3.0, -0.7])
    opt.step()
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
    np.testing.assert_allclose(np.abs(p.data), 1e-4, rtol=1e-6)
    assert p.data[0] < 0 < p.data[1]


def test_three_steps_match_hand_unrolled_recurrence():
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)

    x = 1.0
    m = v = 0.0
    for t in range(1, 4):
        g = 2.0 * x  # d/dx of x^2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)

        p.grad = np.array([2.0 * p.data[0]])
        opt.step()
    np.testing.assert_allclose(p.data, [x], atol=1e-12)


def test_nonfinite_gradient_rejects_step():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam([p, q], lr=1e-2)
    p.grad = np.array([1.0, 1.0])
    q.grad = np.array([np.nan])
    before_p, before_q = p.data.copy(), q.data.copy()
    with pytest.raises(NonFiniteGradient):
        opt.step()
    np.testing.assert_array_equal(p.data, before_p)
    np.testing.assert_array_equal(q.data, before_q)
    assert opt.step_count == 0  # whole step rejected, state untouched


def test_missing_grad_counts_as_zero():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([p])
    p.grad = None
    opt.step()
    np.testing.assert_array_equal(p.data, [5.0])


def test_second_moments_stay_nonnegative():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=8), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    for _ in range(25):
        p.grad = rng.normal(size=8)
        opt.step()
    assert all(np.all(v >= 0.0) for v in opt._v)
    assert opt.step_count == 25


class _ReferenceAdam:
    """The update as written before the step got scratch buffers: one temporary per op."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.step_count += 1
        c1 = 1.0 - self.beta1**self.step_count
        c2 = 1.0 - self.beta2**self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@pytest.mark.parametrize("arch", ["loc_lstm", "fusion_mil"])
def test_step_is_byte_equal_to_the_textbook_expressions(arch):
    # Every parameter shape of the model, 45 steps of gradients spanning many
    # magnitudes (zeros and signed zeros included): parameters and both
    # moments must keep the bits of the temporary-making form.
    from modemil.model import TransportModeClassifier

    shapes = [p.shape for _, p in TransportModeClassifier(arch, seed=0).named_parameters()]
    rng = np.random.default_rng(len(arch))
    init = [rng.normal(size=shape) for shape in shapes]
    fast = [Tensor(a.copy(), requires_grad=True) for a in init]
    slow = [Tensor(a.copy(), requires_grad=True) for a in init]
    opt, ref = Adam(fast, lr=1e-3), _ReferenceAdam(slow, lr=1e-3)
    for _ in range(45):
        for p, q in zip(fast, slow):
            g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 4, size=p.shape)
            g[rng.random(p.shape) < 0.05] = rng.choice([0.0, -0.0])
            p.grad, q.grad = g, g.copy()
        opt.step()
        ref.step()
    for arrays, ref_arrays in ((fast, slow), (opt._m, ref._m), (opt._v, ref._v)):
        for a, b in zip(arrays, ref_arrays, strict=True):
            a, b = getattr(a, "data", a), getattr(b, "data", b)
            assert a.tobytes() == b.tobytes()
