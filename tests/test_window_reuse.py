"""Inference encodes each distinct acceleration window once, with the same bits.

``predict`` (eval mode, no graph) sends each byte-distinct window of a batch
through the acceleration encoder once and shares its embedding among the bags
that hold it; it also pads a batch of fewer than 4 bags, and fewer than 4
distinct windows, by repeating the last one. The reference is a recorded eval
forward (``training=False`` with a graph), which encodes every window of every
bag. Every case here must match it byte for byte.
"""

import numpy as np
import pytest

from modemil.bags import build_bags, preprocess_session
from modemil.model import AccelEncoder, TransportModeClassifier
from modemil.synth import SynthConfig, synth_generate
from modemil.train import _model_inputs

REUSE_ARCHS = ["fusion_mil", "acc_mil", "acc_cnn", "fusion_concat_pp"]


@pytest.fixture(scope="module")
def features():
    """Two sessions of 160 minutes on one placement: 149 sliding bags each."""
    cfg = SynthConfig(placements=("Hips",), n_users=2, sessions_per_user=1, minutes_per_session=160)
    return [preprocess_session(s) for s in synth_generate(cfg, np.random.default_rng(8))]


def _model(arch, n_instances=3):
    """An untrained model with random running statistics and signed, partly zero, gains."""
    model = TransportModeClassifier(arch, n_instances, seed=3)
    rng = np.random.default_rng(5)
    state = model.state_dict()
    for name, value in state.items():
        if name.endswith("running_mean") or name.endswith(".bias"):
            value[...] = rng.normal(size=value.shape)
        elif name.endswith("running_var"):
            value[...] = rng.uniform(0.5, 2.0, size=value.shape)
        elif name.endswith("gain"):
            value[...] = rng.normal(size=value.shape)
            value[::4] = 0.0
    model.load_state_dict(state)
    return model


def _assert_same_as_recorded(model, inputs, reference_inputs=None):
    """``predict`` on ``inputs`` against a recorded forward on ``reference_inputs`` (by default
    the same), whose leading rows are ``inputs``."""
    reference = model.forward(**(reference_inputs or inputs), training=False)
    assert reference.probs.requires_grad  # a graph was recorded, so every window was encoded
    result = model.predict(**inputs)
    n = len(result.probs.data)
    assert result.probs.data.tobytes() == reference.probs.data[:n].tobytes()
    for field in ("attention", "accel_weight", "loc_weight"):
        got, want = getattr(result, field), getattr(reference, field)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want[:n].tobytes()


@pytest.mark.parametrize("arch", REUSE_ARCHS)
def test_sliding_bags_match_the_recorded_forward(features, arch):
    bags = build_bags(features)
    model = _model(arch)
    _assert_same_as_recorded(model, _model_inputs(model, bags.batch(np.arange(30))))


@pytest.mark.parametrize("arch", REUSE_ARCHS)
def test_chunk_across_two_sessions_matches_the_recorded_forward(features, arch):
    bags = build_bags(features)
    boundary = next(i for i, ref in enumerate(bags.refs) if ref.session == 1)
    model = _model(arch)
    _assert_same_as_recorded(model, _model_inputs(model, bags.batch(np.arange(boundary - 12, boundary + 12))))


@pytest.mark.parametrize("n_bags", [1, 2, 5])
@pytest.mark.parametrize("arch", REUSE_ARCHS)
def test_identical_windows_match_the_recorded_forward(arch, n_bags):
    # All-zero bags hold one distinct window, padded to 4 rows through fc1. The
    # reference encodes them among 4 random bags, so none of its gemms is short.
    model = _model(arch)
    rng = np.random.default_rng(n_bags)
    n_all = n_bags + 4
    shape = (model.n_accel_instances, 51, 51, 2)
    acc = np.concatenate([np.zeros((n_bags,) + shape), rng.normal(size=(4,) + shape)])
    reference = {"acc": acc, "loc_seq": None, "loc_scalars": None}
    if model.uses_loc:
        reference.update(loc_seq=rng.normal(size=(n_all, 10, 2)), loc_scalars=rng.normal(size=(n_all, 5)))
    inputs = {k: None if v is None else v[:n_bags] for k, v in reference.items()}
    _assert_same_as_recorded(model, inputs, reference)


@pytest.mark.parametrize("arch", ["fusion_mil", "acc_mil"])
def test_five_window_bags_on_a_three_instance_model(features, arch):
    bags = build_bags(features, n_instances=5)
    model = _model(arch)
    inputs = _model_inputs(model, bags.batch(np.arange(20)))
    assert inputs["acc"].shape[1] == 3 and not inputs["acc"].flags.c_contiguous
    _assert_same_as_recorded(model, inputs)


@pytest.mark.parametrize("arch", REUSE_ARCHS + ["loc_lstm"])
def test_short_chunks_match_the_whole_batch(features, arch):
    # A batch of 1-3 bags is padded to 4, so every gemm sums each row alike.
    bags = build_bags(features)
    model = _model(arch)
    inputs = _model_inputs(model, bags.batch(np.arange(12)))
    whole = model.predict(**inputs).probs.data
    for step in (1, 2, 3):
        parts = [slice(i, i + step) for i in range(0, 12, step)]
        chunks = [model.predict(**{k: None if v is None else v[p] for k, v in inputs.items()}) for p in parts]
        assert np.concatenate([c.probs.data for c in chunks]).tobytes() == whole.tobytes()


def test_sliding_chunk_encodes_each_window_once(features, monkeypatch):
    # 128 bags that slide by one minute hold 130 distinct windows, not 384.
    encoded = []
    call = AccelEncoder.__call__

    def counting(self, x, *args, **kwargs):
        encoded.append(x.shape[0])
        return call(self, x, *args, **kwargs)

    monkeypatch.setattr(AccelEncoder, "__call__", counting)
    bags = build_bags(features)
    assert all(ref.session == 0 for ref in bags.refs[:128])
    model = TransportModeClassifier("fusion_mil", seed=0)
    result = model.predict(**_model_inputs(model, bags.batch(np.arange(128))))
    assert result.probs.shape == (128, 8)
    assert encoded == [130]
