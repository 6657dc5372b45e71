"""The one-node ``BiLSTM`` against the step-by-step graph it replaced.

``reference_bilstm`` below is the earlier ``BiLSTM.__call__``: every time step
of each direction built from tensor ops (a gate-row slice per gate, sigmoid
and tanh nodes, products and sums), the two final states joined by
``concat``. The fast layer runs the same ops on plain arrays and walks time
backwards by hand, so its output, its input gradient and all six parameter
gradients must have the reference's bytes: signed zeros included. Only
inputs holding +-inf or NaN compare with ``np.array_equal(..., equal_nan=True)``:
which of two NaNs an addition keeps is the one bit left free there.
"""

import tracemalloc

import numpy as np
import pytest

from modemil.model import TransportModeClassifier
from modemil.nn import BiLSTM, Tensor, cce_loss, make_node, no_grad
from modemil.nn.tensor import concat, sigmoid, tanh
from modemil.bags import build_bags, preprocess_session
from modemil.splits import loso_folds
from modemil.synth import SynthConfig, synth_generate
from modemil.train import TrainConfig, predict_dataset, run_pretraining


def _slice(a, key):
    """``a[key]`` for a basic index, as a graph node: its backward adds the gradient into
    zeros of ``a``'s shape."""

    def backward(grad):
        full = np.zeros_like(a.data)
        full[key] += grad
        a._accumulate(full)

    return make_node(a.data[key], (a,), backward)


def reference_direction(direction, x, reverse):
    batch, steps, _ = x.shape
    n = direction.n_cells
    h = Tensor(np.zeros((batch, n)))
    c = Tensor(np.zeros((batch, n)))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        step = _slice(x, (slice(None), t, slice(None)))
        gates = step @ direction.w_input + h @ direction.w_state + direction.bias
        gate_in = sigmoid(_slice(gates, (slice(None), slice(0 * n, 1 * n))))
        gate_forget = sigmoid(_slice(gates, (slice(None), slice(1 * n, 2 * n))))
        candidate = tanh(_slice(gates, (slice(None), slice(2 * n, 3 * n))))
        gate_out = sigmoid(_slice(gates, (slice(None), slice(3 * n, 4 * n))))
        c = gate_forget * c + gate_in * candidate
        h = gate_out * tanh(c)
    return h


def reference_bilstm(lstm, x):
    return concat(
        [reference_direction(lstm.forward_dir, x, reverse=False), reference_direction(lstm.backward_dir, x, reverse=True)],
        axis=1,
    )


def _assert_bytes_equal(a, b):
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _assert_equal_nan(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


def _lstm(n_cells, seed, saturated=False):
    lstm = BiLSTM(2, n_cells, np.random.default_rng(seed))
    if saturated:  # gates pinned near 0 and 1 (and the candidate near +-1)
        signs = np.random.default_rng(seed + 1).choice([-30.0, 30.0], size=4 * n_cells)
        lstm.forward_dir.bias.data[...] = signs
        lstm.backward_dir.bias.data[...] = -signs
    return lstm


def _inputs(kind, batch, steps, rng):
    x = rng.normal(scale=2.0, size=(batch, steps, 2))
    if kind == "signed_zeros":
        zeros = rng.random(x.shape) < 0.3
        x[zeros] = rng.choice([0.0, -0.0], size=x.shape)[zeros]
    elif kind == "specials":
        pick = rng.random(x.shape)
        x[pick < 0.05] = np.nan
        x[(pick >= 0.05) & (pick < 0.1)] = np.inf
        x[(pick >= 0.1) & (pick < 0.15)] = -np.inf
    return x


def _upstream(kind, shape, rng):
    grad = rng.normal(size=shape)
    if kind == "signed_zeros":
        zeros = rng.random(shape) < 0.3
        grad[zeros] = rng.choice([0.0, -0.0], size=shape)[zeros]
    return grad


def _run(call, lstm, x_data, x_grad, grad):
    for p in lstm.parameters():
        p.grad = None
    x = Tensor(x_data, requires_grad=x_grad)
    out = call(lstm, x)
    out.backward(grad)
    return [out.data, x.grad] + [p.grad for p in lstm.parameters()]


KINDS = ["normal", "signed_zeros", "saturated", "specials"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
@pytest.mark.parametrize("steps", [1, 2, 10])
@pytest.mark.parametrize("batch", [1, 2, 17, 32, 128])
def test_bilstm_matches_step_by_step_graph(batch, steps, x_grad, kind):
    rng = np.random.default_rng(batch * 100 + steps)
    n_cells = 16 if batch < 32 else 128
    lstm = _lstm(n_cells, seed=batch + steps, saturated=kind == "saturated")
    x = _inputs(kind, batch, steps, rng)
    grad = _upstream(kind, (batch, 2 * n_cells), rng)
    with np.errstate(invalid="ignore", over="ignore"):
        fast = _run(BiLSTM.__call__, lstm, x, x_grad, grad)
        ref = _run(reference_bilstm, lstm, x, x_grad, grad)
    same = _assert_equal_nan if kind == "specials" else _assert_bytes_equal
    for a, b in zip(fast, ref, strict=True):
        if b is None:
            assert a is None
        else:
            same(a, b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("steps", [1, 2, 10])
@pytest.mark.parametrize("batch", [1, 17, 128])
def test_inference_bilstm_matches_step_by_step_graph(batch, steps, kind):
    rng = np.random.default_rng(batch + steps)
    lstm = _lstm(128, seed=batch, saturated=kind == "saturated")
    x = Tensor(_inputs(kind, batch, steps, rng))
    with no_grad(), np.errstate(invalid="ignore", over="ignore"):
        out = lstm(x)
        ref = reference_bilstm(lstm, x)
    assert not out.requires_grad
    (_assert_equal_nan if kind == "specials" else _assert_bytes_equal)(out.data, ref.data)


def test_frozen_bilstm_passes_only_the_input_gradient():
    rng = np.random.default_rng(3)
    lstm = _lstm(8, seed=3).freeze()
    x, grad = rng.normal(size=(5, 4, 2)), rng.normal(size=(5, 16))
    fast = _run(BiLSTM.__call__, lstm, x, True, grad)
    ref = _run(reference_bilstm, lstm, x, True, grad)
    assert all(g is None for g in fast[2:])
    _assert_bytes_equal(fast[0], ref[0])
    _assert_bytes_equal(fast[1], ref[1])


def test_bilstm_checks_its_feature_count():
    with pytest.raises(ValueError, match="expected 2 input features, got 3"):
        BiLSTM(2, 4, np.random.default_rng(0))(Tensor(np.zeros((3, 5, 3))))


def test_inference_keeps_no_per_step_arrays():
    # While a graph is recorded each step keeps seven (batch, cells) arrays for
    # the backward; at inference none (keeping them took a 128-bag pass from 27
    # to 41 ms). Ten more steps at batch 256 must then add less than one step's
    # cache to the peak (7 * 256 * 128 * 8 B = 1.8 MB).
    lstm = _lstm(128, seed=0)
    peaks = []
    for steps in (10, 20):
        x = Tensor(np.random.default_rng(steps).normal(size=(256, steps, 2)))
        tracemalloc.start()
        try:
            with no_grad():
                lstm(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 7 * 256 * 128 * 8


# -- the model, with the reference graph patched in ----------------------------------


@pytest.mark.parametrize("arch", ["loc_lstm", "fusion_mil"])
def test_training_step_matches_step_by_step_graph(arch, monkeypatch):
    rng = np.random.default_rng(len(arch))
    batch = 6
    acc = rng.normal(size=(batch, 3, 51, 51, 2)) if arch == "fusion_mil" else None
    loc_seq, loc_scalars, labels = rng.normal(size=(batch, 10, 2)), rng.normal(size=(batch, 5)), rng.integers(0, 8, batch)

    def step():
        model = TransportModeClassifier(arch, 3, seed=4)
        result = model.forward(acc, loc_seq, loc_scalars, training=True, rng=np.random.default_rng(1))
        cce_loss(result.probs, labels).backward()
        return [p.grad for _, p in model.named_parameters()], [a for _, a in model.named_tensors()]

    grads, state = step()
    monkeypatch.setattr(BiLSTM, "__call__", reference_bilstm)
    ref_grads, ref_state = step()
    for a, b in zip(grads + state, ref_grads + ref_state, strict=True):
        _assert_bytes_equal(a, b)


def test_location_pretraining_matches_step_by_step_graph(monkeypatch):
    cfg = SynthConfig(
        modes=("still", "walk", "bus"),
        placements=("Hips",),
        n_users=3,
        sessions_per_user=1,
        minutes_per_session=60,
        dwell_mean_minutes=8.0,
    )
    features = [preprocess_session(s) for s in synth_generate(cfg, np.random.default_rng(2))]
    fold = loso_folds(features, seed=0)[0]
    bags = build_bags(features, placement=features[0].placements[0])
    # 50 training bags in batches of 16: the last training batch holds 2.
    config = TrainConfig(arch="loc_lstm", pretrain="loc", lr=1e-3, batch_size=16, max_epochs=2, seed=6)

    def pretrain():
        model, histories = run_pretraining(config, features, fold)
        probs, _ = predict_dataset(model, bags, np.arange(len(bags)))
        return model.state_dict(), histories, probs

    state, histories, probs = pretrain()
    monkeypatch.setattr(BiLSTM, "__call__", reference_bilstm)
    ref_state, ref_histories, ref_probs = pretrain()
    assert list(state) == list(ref_state)
    for name in state:
        _assert_bytes_equal(state[name], ref_state[name])
    assert histories == ref_histories
    _assert_bytes_equal(probs, ref_probs)
