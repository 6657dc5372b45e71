"""The table-driven ``TransportModeClassifier.forward`` against the six-branch
wiring it replaced.

``reference_forward`` below is the earlier ``forward``: one hand-written
branch per architecture. Two models built with the same arguments start from
the same weights, so running the reference on one and ``forward`` on the
other must give equal bytes everywhere: probabilities, attention, modality
weights, every parameter gradient and every state array (batch-norm running
statistics included). The one intended difference is that
``fusion_concat_pp`` now reports ``accel_weight``.
"""

import numpy as np
import pytest

from modemil.model import ARCHITECTURES, EMBED_DIM, SPEC_SHAPE, ForwardResult, TransportModeClassifier
from modemil.nn import Tensor, cce_loss
from modemil.nn.tensor import concat, reshape, sigmoid


def _embed_accel(model, acc, training, rng):
    batch, n_inst = acc.shape[:2]
    flat = Tensor(acc.reshape((batch * n_inst,) + SPEC_SHAPE))
    return reshape(model.accel_encoder(flat, training, rng), (batch, n_inst, EMBED_DIM))


def reference_forward(model, acc, loc_seq, loc_scalars, training, rng):
    attention = accel_w = loc_w = None
    if model.arch == "fusion_mil":
        h_acc = _embed_accel(model, acc, training, rng)
        h_loc = model.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
        bag = concat([h_acc, reshape(h_loc, (h_loc.shape[0], 1, EMBED_DIM))], axis=1)
        z, a = model.attention(bag)
        logits = model.head(z, training)
        attention = a.data.copy()
        accel_w = attention[:, : model.n_accel_instances].sum(axis=1)
        loc_w = attention[:, model.n_accel_instances :].sum(axis=1)
    elif model.arch == "acc_mil":
        h_acc = _embed_accel(model, acc, training, rng)
        z, a = model.attention(h_acc)
        logits = model.head(z, training)
        attention = a.data.copy()
        accel_w = attention.sum(axis=1)
    elif model.arch == "acc_cnn":
        batch = acc.shape[0]
        z = model.accel_encoder(Tensor(acc.reshape((batch,) + SPEC_SHAPE)), training, rng)
        logits = model.head(z, training)
    elif model.arch == "loc_lstm":
        z = model.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
        logits = model.head(z, training)
    elif model.arch == "fusion_concat":
        batch = acc.shape[0]
        h_a = model.accel_encoder(Tensor(acc.reshape((batch,) + SPEC_SHAPE)), training, rng)
        h_l = model.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
        logits = model.head(concat([h_a, h_l], axis=1), training)
    else:  # fusion_concat_pp
        h_acc = _embed_accel(model, acc, training, rng)
        z_a, a = model.attention(h_acc)
        h_l = model.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
        logits = model.head(concat([z_a, h_l], axis=1), training)
        attention = a.data.copy()
    return ForwardResult(probs=sigmoid(logits), attention=attention, accel_weight=accel_w, loc_weight=loc_w)


def _inputs(model, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    n = model.n_accel_instances
    return {
        "acc": rng.normal(size=(batch, n) + SPEC_SHAPE) if model.uses_accel else None,
        "loc_seq": rng.normal(size=(batch, 10, 2)) if model.uses_loc else None,
        "loc_scalars": rng.normal(size=(batch, 5)) if model.uses_loc else None,
    }


def _same_bytes(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("n_instances", [2, 3])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forward_matches_six_branch_reference(arch, n_instances, training):
    ref_model = TransportModeClassifier(arch, n_instances, seed=5)
    model = TransportModeClassifier(arch, n_instances, seed=5)
    inputs = _inputs(model)
    labels = np.array([0, 3, 7])

    results = []
    for m, run in ((ref_model, reference_forward), (model, TransportModeClassifier.forward)):
        out = run(m, **inputs, training=training, rng=np.random.default_rng(9))
        cce_loss(out.probs, labels).backward()
        results.append(out)
    expected, result = results

    assert _same_bytes(result.probs.data, expected.probs.data)
    assert _same_bytes(result.attention, expected.attention)
    assert _same_bytes(result.loc_weight, expected.loc_weight)
    if arch == "fusion_concat_pp":
        assert expected.accel_weight is None  # the six-branch wiring did not report it
        assert _same_bytes(result.accel_weight, result.attention.sum(axis=1))
        np.testing.assert_allclose(result.accel_weight, 1.0, rtol=0, atol=1e-12)
    else:
        assert _same_bytes(result.accel_weight, expected.accel_weight)

    ref_params = dict(ref_model.named_parameters())
    params = dict(model.named_parameters())
    assert list(params) == list(ref_params)
    for name, p in params.items():
        assert p.grad is not None, name
        assert _same_bytes(p.grad, ref_params[name].grad), name

    ref_state = ref_model.state_dict()
    state = model.state_dict()
    assert list(state) == list(ref_state)
    for name, array in state.items():
        assert _same_bytes(array, ref_state[name]), name
