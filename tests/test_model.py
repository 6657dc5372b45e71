"""Encoders, gated attention algebra, classifier heads, architecture variants."""

import numpy as np
import pytest

from modemil.model import (
    ARCHITECTURES,
    AttentionPool,
    ClassifierHead,
    TransportModeClassifier,
    attention_weights,
    fuse,
    parameter_count,
)
from modemil.nn import Tensor, save_arrays, load_arrays


def random_bag(rng, batch=1, n_acc=3):
    return (
        rng.normal(size=(batch, n_acc, 51, 51, 2)),
        rng.normal(size=(batch, 10, 2)),
        rng.normal(size=(batch, 5)),
    )


class TestEncoders:
    def test_accel_embedding_width(self):
        model = TransportModeClassifier("acc_cnn", seed=0)
        rng = np.random.default_rng(0)
        out = model.accel_encoder(Tensor(rng.normal(size=(2, 51, 51, 2))), training=False)
        assert out.shape == (2, 256)

    def test_loc_embedding_width_and_concat(self):
        model = TransportModeClassifier("loc_lstm", seed=0)
        rng = np.random.default_rng(1)
        out = model.loc_encoder(Tensor(rng.normal(size=(3, 10, 2))), Tensor(rng.normal(size=(3, 5))), training=False)
        assert out.shape == (3, 256)
        assert model.loc_encoder.fc1.n_in == 2 * 128 + 5  # 261-wide concat

    def test_deterministic_embeddings(self):
        model = TransportModeClassifier("acc_cnn", seed=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 51, 51, 2))
        a = model.accel_encoder(Tensor(x), training=False).data
        b = model.accel_encoder(Tensor(x), training=False).data
        np.testing.assert_array_equal(a, b)

    def test_accel_parameter_count(self):
        model = TransportModeClassifier("fusion_mil", seed=0)
        count = parameter_count(model.accel_encoder)
        assert count == 352_388  # ~0.35M by shape enumeration; the three convs hold no bias
        assert 300_000 < count < 400_000

    def test_masked_location_window_stays_finite(self):
        model = TransportModeClassifier("fusion_mil", seed=0)
        rng = np.random.default_rng(3)
        acc, _, _ = random_bag(rng)
        result = model.predict(acc=acc, loc_seq=np.zeros((1, 10, 2)), loc_scalars=np.zeros((1, 5)))
        assert np.all(np.isfinite(result.probs.data))

    def test_wrong_spectrogram_shape_raises(self):
        model = TransportModeClassifier("acc_cnn", seed=0)
        with pytest.raises(ValueError):
            model.accel_encoder(Tensor(np.zeros((1, 50, 51, 2))), training=False)


class TestAttention:
    def test_identical_instances_share_weight_exactly(self):
        rng = np.random.default_rng(4)
        pool = AttentionPool(rng)
        h = np.tile(rng.normal(size=(1, 1, 256)), (2, 4, 1))
        weights = pool.weights(Tensor(h)).data
        np.testing.assert_allclose(weights, 0.25, atol=1e-12)

    def test_single_instance_gets_full_weight(self):
        rng = np.random.default_rng(5)
        pool = AttentionPool(rng)
        weights = pool.weights(Tensor(rng.normal(size=(3, 1, 256)))).data
        np.testing.assert_allclose(weights, 1.0, atol=1e-15)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(6)
        pool = AttentionPool(rng)
        h = rng.normal(size=(2, 4, 256))
        weights = pool.weights(Tensor(h)).data

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        for b in range(2):
            scores = np.array(
                [
                    pool.score.data[:, 0] @ (np.tanh(pool.v_proj.data.T @ h[b, n]) * sig(pool.u_proj.data.T @ h[b, n]))
                    for n in range(4)
                ]
            )
            expected = np.exp(scores - scores.max())
            expected /= expected.sum()
            np.testing.assert_allclose(weights[b], expected, atol=1e-12)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights > 0)

    def test_functional_form_matches_pool(self):
        rng = np.random.default_rng(7)
        pool = AttentionPool(rng)
        h = Tensor(rng.normal(size=(1, 4, 256)))
        a1 = pool.weights(h).data
        a2 = attention_weights(h, pool.v_proj, pool.u_proj, pool.score).data
        np.testing.assert_array_equal(a1, a2)


class TestFuse:
    def test_one_hot_selects_instance(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(1, 4, 16))
        a = np.array([[0.0, 0.0, 1.0, 0.0]])
        z = fuse(Tensor(h), Tensor(a)).data
        np.testing.assert_array_equal(z[0], h[0, 2])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(1, 4, 32))
        a = rng.dirichlet(np.ones(4))[None, :]
        z = fuse(Tensor(h), Tensor(a)).data
        perm = rng.permutation(4)
        z_perm = fuse(Tensor(h[:, perm]), Tensor(a[:, perm])).data
        np.testing.assert_allclose(z, z_perm, atol=1e-12)

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(10)
        h = rng.normal(size=(2, 3, 8))
        a = rng.dirichlet(np.ones(3), size=2)
        z = fuse(Tensor(h), Tensor(a)).data
        oracle = np.einsum("bn,bnd->bd", a, h)
        np.testing.assert_allclose(z, oracle, atol=1e-12)


class TestClassifier:
    def test_zero_logits_give_half_probability(self):
        model = TransportModeClassifier("fusion_mil", seed=0)
        model.head.fc2.weight.data[:] = 0.0
        model.head.fc2.bias.data[:] = 0.0
        rng = np.random.default_rng(11)
        result = model.predict(*random_bag(rng))
        np.testing.assert_allclose(result.probs.data, 0.5, atol=1e-15)

    def test_output_length_is_eight(self):
        rng = np.random.default_rng(12)
        model = TransportModeClassifier("fusion_mil", seed=1)
        result = model.predict(*random_bag(rng, batch=3))
        assert result.probs.shape == (3, 8)

    def test_head_matches_layer_by_layer_oracle(self):
        rng = np.random.default_rng(13)
        head = ClassifierHead(rng)
        z = rng.normal(size=(4, 256))
        out = head(Tensor(z), training=False).data
        h = z @ head.fc1.weight.data + head.fc1.bias.data
        inv = 1.0 / np.sqrt(head.norm._buffers["running_var"] + head.norm.eps)
        h = (h - head.norm._buffers["running_mean"]) * inv * head.norm.gain.data + head.norm.bias.data
        h = np.maximum(h, 0.0)
        oracle = h @ head.fc2.weight.data + head.fc2.bias.data
        np.testing.assert_allclose(out, oracle, atol=1e-10)


class TestForward:
    def test_modality_weights_sum_to_one(self):
        rng = np.random.default_rng(14)
        model = TransportModeClassifier("fusion_mil", seed=2)
        result = model.predict(*random_bag(rng, batch=4))
        np.testing.assert_allclose(result.accel_weight + result.loc_weight, 1.0, atol=1e-12)
        assert result.attention.shape == (4, 4)

    def test_accel_instance_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        model = TransportModeClassifier("fusion_mil", seed=2)
        acc, seq, scal = random_bag(rng)
        base = model.predict(acc=acc, loc_seq=seq, loc_scalars=scal)
        perm = np.array([2, 0, 1])
        swapped = model.predict(acc=acc[:, perm], loc_seq=seq, loc_scalars=scal)
        np.testing.assert_allclose(swapped.attention[0, :3], base.attention[0, perm], atol=1e-12)
        np.testing.assert_allclose(swapped.probs.data, base.probs.data, atol=1e-9)
        assert swapped.predictions[0] == base.predictions[0]

    def test_missing_modalities_raise(self):
        model = TransportModeClassifier("fusion_mil", seed=0)
        rng = np.random.default_rng(16)
        acc, seq, scal = random_bag(rng)
        with pytest.raises(ValueError):
            model.forward(acc=acc)
        with pytest.raises(ValueError):
            model.forward(loc_seq=seq, loc_scalars=scal)

    def test_wrong_instance_count_raises(self):
        model = TransportModeClassifier("fusion_mil", seed=0)
        rng = np.random.default_rng(17)
        acc, seq, scal = random_bag(rng, n_acc=2)
        with pytest.raises(ValueError):
            model.forward(acc=acc, loc_seq=seq, loc_scalars=scal)


class TestVariants:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_constructible_and_runnable(self, arch):
        rng = np.random.default_rng(18)
        model = TransportModeClassifier(arch, seed=4)
        acc, seq, scal = random_bag(rng, n_acc=model.n_accel_instances if model.uses_accel else 3)
        result = model.predict(
            acc=acc if model.uses_accel else None,
            loc_seq=seq if model.uses_loc else None,
            loc_scalars=scal if model.uses_loc else None,
        )
        assert result.probs.shape == (1, 8)
        assert np.all((result.probs.data > 0) & (result.probs.data < 1))

    def test_concat_fusion_width(self):
        model = TransportModeClassifier("fusion_concat", seed=0)
        assert model.head.fc1.n_in == 512
        assert model.n_accel_instances == 1

    def test_acc_mil_attends_over_accel_only(self):
        rng = np.random.default_rng(19)
        model = TransportModeClassifier("acc_mil", seed=0)
        acc, _, _ = random_bag(rng)
        result = model.predict(acc=acc)
        assert result.attention.shape == (1, 3)
        np.testing.assert_allclose(result.attention.sum(), 1.0, atol=1e-12)

    def test_unknown_architecture_raises(self):
        with pytest.raises(ValueError):
            TransportModeClassifier("transformer")


class TestFreezeAndState:
    def test_freeze_removes_trainable_params_exactly(self):
        model = TransportModeClassifier("fusion_mil", seed=5)
        total = len(model.parameters())
        frozen = len(model.accel_encoder.parameters())
        model.accel_encoder.freeze()
        assert frozen > 0 and len(model.parameters()) == total - frozen

    @pytest.mark.parametrize("encoder", ["accel_encoder", "loc_encoder"])
    def test_frozen_encoder_in_training_mode_is_its_eval_pass(self, encoder):
        # batch norm and dropout check their own frozen flag, set by the recursive freeze
        rng = np.random.default_rng(21)
        model = TransportModeClassifier("fusion_mil", seed=7)
        module = getattr(model, encoder).freeze()
        acc, seq, scal = random_bag(rng, batch=4, n_acc=1)

        def run(training):
            if encoder == "accel_encoder":
                return module(Tensor(acc[:, 0]), training, np.random.default_rng(0))
            return module(Tensor(seq), Tensor(scal), training)

        state = module.state_dict()
        trained = run(True).data
        for name, array in module.state_dict().items():
            assert array.tobytes() == state[name].tobytes(), name
        assert trained.tobytes() == run(False).data.tobytes()

    def test_state_round_trip_through_archive(self, tmp_path):
        rng = np.random.default_rng(20)
        model = TransportModeClassifier("fusion_mil", seed=6)
        acc, seq, scal = random_bag(rng)
        before = model.predict(acc=acc, loc_seq=seq, loc_scalars=scal).probs.data
        path = tmp_path / "model.npz"
        save_arrays(path, dict(model.named_tensors()), meta={"arch": "fusion_mil"})
        arrays, meta = load_arrays(path)
        clone = TransportModeClassifier(meta["arch"], seed=999)
        clone.load_state_dict(arrays)
        after = clone.predict(acc=acc, loc_seq=seq, loc_scalars=scal).probs.data
        np.testing.assert_array_equal(before, after)

    def test_load_rejects_mismatched_state(self):
        model = TransportModeClassifier("fusion_mil", seed=0)
        state = model.state_dict()
        state.pop(sorted(state)[0])
        with pytest.raises(ValueError):
            model.load_state_dict(state)
