"""Autodiff primitives: forward values, gradients, and the loss contract."""

import ctypes
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import modemil
from modemil.nn import Tensor, cce_loss, grad_check, no_grad
from modemil.nn.tensor import LOSS_EPS, _released, concat, make_node, relu, sigmoid, softmax, tanh


def test_add_mul_broadcast_gradients():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    out = (a * b + b).sum()
    out.backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    np.testing.assert_allclose(a.grad, np.broadcast_to(b.data, (3, 4)))
    np.testing.assert_allclose(b.grad, a.data.sum(axis=0) + 3.0)


def test_matmul_batched_gradient():
    rng = np.random.default_rng(1)
    h = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    err = grad_check(lambda: ((h @ w) * Tensor(rng.normal(size=(2, 4, 3)))).sum(), [h, w], rng=rng)
    assert err < 1e-7


def test_matmul_requires_two_dims():
    with pytest.raises(ValueError):
        Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


def test_reductions_and_shapes():
    rng = np.random.default_rng(3)
    y = Tensor(rng.normal(size=(2, 6)))
    assert y.reshape(3, 4).shape == (3, 4)


def test_concat_gradient_routing():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
    np.testing.assert_array_equal(a.grad, [[0, 1, 2], [5, 6, 7]])
    np.testing.assert_array_equal(b.grad, [[3, 4], [8, 9]])


def test_elementwise_gradients():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)))
    for fn in (tanh, sigmoid, relu):
        err = grad_check(lambda fn=fn: (fn(x) * w).sum(), [x], rng=rng)
        assert err < 1e-7, fn.__name__


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    s = softmax(Tensor(rng.normal(size=(4, 6))), axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(s.data > 0)


def test_clamped_label_probability_gets_no_gradient():
    # rows 0 and 3 pick a probability clamped to [LOSS_EPS, 1 - LOSS_EPS]; rows 1 and 2
    # get -1/(n p) at their label, and every unpicked class gets zero
    p = np.array([[0.5, LOSS_EPS / 2], [0.2, 0.5], [0.8, 0.1], [1.0, 0.3]])
    probs = Tensor(p, requires_grad=True)
    cce_loss(probs, np.array([1, 0, 0, 0])).backward()
    expected = np.zeros_like(p)
    expected[1, 0] = -1.0 / (4 * 0.2)
    expected[2, 0] = -1.0 / (4 * 0.8)
    np.testing.assert_allclose(probs.grad, expected, rtol=1e-15)


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y._backward is None and not y.requires_grad


def test_backward_needs_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()



def _graph_nodes(root):
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


@pytest.mark.parametrize("a_first", [True, False])
def test_shared_gradient_arrays_are_not_written_after_use(a_first):
    # y = a + b hands one gradient array to both a and b without a copy; a is
    # used again downstream, so a's second contribution must not reach b.grad,
    # and no node's gradient may change once its own backward has run.
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    y = a + b
    terms = [y * Tensor(w), a * a] if a_first else [a * a, y * Tensor(w)]
    loss = (terms[0] + terms[1]).sum()

    seen = []
    for node in _graph_nodes(loss):
        if node._backward is not None:

            def recorded(grad, node=node, inner=node._backward):
                seen.append((node, grad.copy()))
                inner(grad)

            node._backward = recorded
    loss.backward()

    assert len(seen) == 5  # sum, the two adds and the two products
    for node, grad_at_backward in seen:
        assert np.array_equal(node.grad, grad_at_backward)
    assert np.array_equal(y.grad, w)
    assert np.array_equal(b.grad, w)
    assert np.shares_memory(b.grad, y.grad)  # the copy-free hand-off
    np.testing.assert_allclose(a.grad, w + 2.0 * a.data, rtol=1e-15)


def _small_graph():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    h = tanh(a @ w)
    return a, w, h, (sigmoid(h) * h + relu(h)).sum()


def test_backward_releases_the_graph():
    a, w, h, loss = _small_graph()
    nodes = _graph_nodes(loss)
    loss.backward()
    assert _graph_nodes(loss) == [loss]
    for node in nodes:
        assert node._parents == ()
        assert node._backward is (None if node in (a, w) else _released)
    assert h.grad is not None and a.grad is not None and w.grad is not None


def test_saved_arrays_are_freed_as_backward_runs():
    # y's backward must find z's saved array gone: z's backward ran first
    x = Tensor(np.ones(4), requires_grad=True)
    later = []

    def node(parent, on_backward):
        saved = np.full(4, 2.0)
        later.append(weakref.ref(saved))
        return make_node(parent.data * saved, (parent,), lambda grad: on_backward(grad * saved, parent))

    def y_backward(grad, parent):
        assert later[1]() is None
        parent._accumulate(grad)

    z = node(node(x, y_backward), lambda grad, parent: parent._accumulate(grad))
    z.sum().backward()
    assert later[0]() is None
    assert np.array_equal(x.grad, np.full(4, 4.0))


def test_second_backward_raises_and_leaves_gradients_alone():
    a, w, h, loss = _small_graph()
    loss.backward()
    grads = [t.grad.copy() for t in (a, w, h, loss)]
    with pytest.raises(ValueError, match="released"):
        loss.backward()
    with pytest.raises(ValueError, match="released"):
        (h * 2.0).sum().backward()  # a new graph on a released node
    with pytest.raises(ValueError, match="released"):
        h._backward(np.ones(h.shape))
    for t, grad in zip((a, w, h, loss), grads):
        assert np.array_equal(t.grad, grad)


def test_first_gradient_is_broadcast_to_shape():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    x._accumulate(np.arange(3.0))
    x._accumulate(np.ones((2, 3)))
    assert np.array_equal(x.grad, np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))


class TestCceLoss:
    def test_certain_prediction_has_zero_loss(self):
        probs = Tensor(np.array([[0.0, 1.0, 0.0]]))
        assert abs(float(cce_loss(probs, [1]).data)) < 1e-6

    def test_inverse_e_gives_unit_loss(self):
        probs = Tensor(np.array([[0.2, 1.0 / np.e, 0.4]]))
        assert abs(float(cce_loss(probs, [1]).data) - 1.0) < 1e-12

    def test_matches_one_hot_oracle(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, size=(1, 8))
        label = 5
        one_hot = np.zeros(8)
        one_hot[label] = 1.0
        oracle = -np.sum(one_hot * np.log(p[0]))
        assert abs(float(cce_loss(Tensor(p), [label]).data) - oracle) < 1e-12

    def test_batch_loss_is_mean(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.05, 0.95, size=(4, 8))
        labels = np.array([0, 3, 7, 2])
        oracle = np.mean([-np.log(p[i, labels[i]]) for i in range(4)])
        assert abs(float(cce_loss(Tensor(p), labels).data) - oracle) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="must lie in"):
            cce_loss(Tensor(np.full((1, 8), 0.5)), [8])
        with pytest.raises(ValueError, match="must lie in"):
            cce_loss(Tensor(np.full((2, 8), 0.5)), np.array([0, -1]))

    @pytest.mark.parametrize(
        "shape, labels",
        [((8,), 1), ((8,), [1]), ((2, 2, 8), [1, 1]), ((2, 8), 1), ((2, 8), [1]), ((2, 8), [1, 1, 1]), ((2, 8), [[1, 1]])],
    )
    def test_takes_only_a_matrix_with_one_label_per_row(self, shape, labels):
        with pytest.raises(ValueError, match="expected \\(batch, classes\\) probs and one label per row"):
            cce_loss(Tensor(np.full(shape, 0.5)), labels)


def _chain_loss(p, labels):
    """The loss and its gradient in ``p`` as the five-op chain clip, pick, log, mean, negate
    computed them, each backward step in the chain's order."""
    rows = (np.arange(len(p)), labels)
    picked = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)[rows]
    loss = -(np.log(picked).mean())
    grad = -np.ones(())  # negate
    grad = np.broadcast_to(grad, picked.shape) / picked.size  # mean
    grad = grad / picked  # log
    full = np.zeros_like(p)
    np.add.at(full, rows, grad)  # pick
    return loss, full * ((p > LOSS_EPS) & (p < 1.0 - LOSS_EPS))  # clip


def _edge_probabilities(rng, shape):
    """Probabilities with exact 0 and 1 and values at, just inside and just outside
    LOSS_EPS of either end, among uniform ones."""
    edges = np.array([0.0, 1.0, LOSS_EPS, 1.0 - LOSS_EPS, LOSS_EPS / 2, 1.0 - LOSS_EPS / 2, 1.5 * LOSS_EPS,
                      1.0 - 1.5 * LOSS_EPS, np.nextafter(LOSS_EPS, 0.0), np.nextafter(LOSS_EPS, 1.0),
                      np.nextafter(1.0 - LOSS_EPS, 0.0), np.nextafter(1.0 - LOSS_EPS, 1.0)])
    p = rng.uniform(size=shape)
    at = rng.random(shape) < 0.5
    p[at] = rng.choice(edges, size=int(at.sum()))
    return p


@pytest.mark.parametrize("seed", range(8))
def test_cce_loss_has_the_bits_of_the_chain(seed):
    rng = np.random.default_rng(seed)
    cases = [_edge_probabilities(rng, (int(rng.integers(1, 70)), 8)) for _ in range(20)]
    for p in cases:
        labels = rng.integers(0, 8, size=len(p))
        probs = Tensor(p, requires_grad=True)
        loss = cce_loss(probs, labels)
        loss.backward()
        ref_loss, ref_grad = _chain_loss(p, labels)
        assert loss.data.tobytes() == np.asarray(ref_loss).tobytes()
        assert probs.grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("scale", [1.0, 10.0, 40.0])
def test_cce_loss_through_sigmoid_has_the_bits_of_the_chain(scale):
    # at scale 40 many probabilities saturate to 0 or 1 and are clamped
    rng = np.random.default_rng(int(scale))
    for _ in range(60):
        logits = Tensor(rng.normal(scale=scale, size=(int(rng.integers(1, 70)), 8)), requires_grad=True)
        labels = rng.integers(0, 8, size=logits.shape[0])
        probs = sigmoid(logits)
        loss = cce_loss(probs, labels)
        loss.backward()
        s = probs.data
        ref_loss, ref_grad = _chain_loss(s, labels)
        assert loss.data.tobytes() == np.asarray(ref_loss).tobytes()
        assert logits.grad.tobytes() == (ref_grad * s * (1.0 - s)).tobytes()


def test_sigmoid_keeps_the_bits_of_the_three_exp_form():
    # sigmoid takes exp(-|x|) once; the reference is the earlier expression
    # that evaluated it three times. Same arithmetic per element, so equal bytes.
    tiny = np.finfo(np.float64).tiny
    specials = [np.inf, -np.inf, np.nan, 0.0, -0.0, 800.0, -800.0, 710.0, -745.0, tiny, -tiny, tiny / 8, -tiny / 8]
    x = np.concatenate([specials, np.random.default_rng(9).normal(scale=20.0, size=500)])
    reference = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert sigmoid(Tensor(x)).data.tobytes() == reference.tobytes()


_MALLINFO2 = """
import ctypes
import numpy as np
import modemil.nn

class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL("libc.so.6").mallinfo2
mallinfo2.argtypes, mallinfo2.restype = [], Info
before = mallinfo2().hblkhd
buffer = np.empty(64 << 20, dtype=np.uint8)
print(mallinfo2().hblkhd - before)
"""


def test_import_leaves_the_allocator_alone():
    # Importing the toolkit must not retune the host process's malloc: a 64 MiB
    # array still gets its own mapping (glibc's default), seen as mmapped bytes.
    try:
        ctypes.CDLL("libc.so.6").mallinfo2
    except (OSError, AttributeError):
        pytest.skip("needs glibc >= 2.33 (mallinfo2)")
    src = str(Path(modemil.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _MALLINFO2], capture_output=True, text=True, check=True, env=env)
    assert int(out.stdout) >= 64 << 20
