"""Layer contracts against independent oracles plus finite-difference checks."""

import numpy as np
import pytest

from modemil.nn import BatchNorm, BiLSTM, Conv2D, Dense, Dropout, Tensor, conv2d, grad_check, max_pool


def conv_oracle(x, kernel):
    """Direct triple-loop same-padded cross-correlation."""
    b, h, w, c_in = x.shape
    kh, kw, _, c_out = kernel.shape
    pad = kh // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((b, h, w, c_out))
    for n in range(b):
        for i in range(h):
            for j in range(w):
                for o in range(c_out):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            acc += np.dot(padded[n, i + u, j + v], kernel[u, v, :, o])
                    out[n, i, j, o] = acc
    return out


class TestConv2D:
    def test_identity_kernel_preserves_input(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 5, 5, 1))
        kernel = np.zeros((3, 3, 1, 1))
        kernel[1, 1, 0, 0] = 1.0  # centered delta
        out = conv2d(Tensor(x), Tensor(kernel))
        np.testing.assert_allclose(out.data, x, atol=0)

    def test_zero_input_yields_zero_and_the_layer_holds_a_kernel_only(self):
        # Every conv feeds batch normalization, whose mean would cancel a bias.
        conv = Conv2D(2, 4, np.random.default_rng(1))
        assert [name for name, _ in conv.named_tensors()] == ["kernel"]
        out = conv(Tensor(np.zeros((2, 5, 5, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5, 5, 4)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 4, 2))
        kernel = rng.normal(size=(3, 3, 2, 2))
        out = conv2d(Tensor(x), Tensor(kernel))
        np.testing.assert_allclose(out.data, conv_oracle(x, kernel), atol=1e-12)

    def test_channel_mismatch_raises(self):
        conv = Conv2D(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 5, 5, 2))))

    def test_spatial_smaller_than_kernel_raises(self):
        conv = Conv2D(1, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 2, 2, 1))))


class TestBatchNorm:
    def test_constant_channel_returns_bias(self):
        bn = BatchNorm(3)
        bn.bias.data[:] = [1.0, 2.0, 3.0]
        out = bn(Tensor(np.full((4, 3), 7.0)), training=True)
        np.testing.assert_allclose(out.data, np.broadcast_to([1.0, 2.0, 3.0], (4, 3)), atol=1e-9)

    def test_normalizes_to_zero_mean(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm(5)
        out = bn(Tensor(rng.normal(size=(64, 5))), training=True)
        assert np.all(np.abs(out.data.mean(axis=0)) < 1e-6)

    def test_matches_statistics_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(loc=2.0, scale=3.0, size=(16, 4))
        bn = BatchNorm(4)
        bn.gain.data[:] = rng.normal(size=4)
        bn.bias.data[:] = rng.normal(size=4)
        out = bn(Tensor(x), training=True)
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        oracle = bn.gain.data * (x - mean) / np.sqrt(var + bn.eps) + bn.bias.data
        np.testing.assert_allclose(out.data, oracle, atol=1e-10)

    def test_single_example_training_batch_raises(self):
        with pytest.raises(ValueError):
            BatchNorm(2)(Tensor(np.zeros((1, 2))), training=True)

    def test_running_stats_only_move_in_training(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm(2)
        x = Tensor(rng.normal(size=(8, 2)))
        bn(x, training=False)
        np.testing.assert_array_equal(bn._buffers["running_mean"], np.zeros(2))
        bn(x, training=True)
        assert np.any(bn._buffers["running_mean"] != 0.0)
        assert np.all(bn._buffers["running_var"] >= 0.0)

    def test_inference_uses_running_stats(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm(3)
        for _ in range(200):
            bn(Tensor(rng.normal(loc=1.0, size=(32, 3))), training=True)
        out = bn(Tensor(np.ones((4, 3))), training=False)
        # running mean converged near 1, so normalized output is near zero
        assert np.all(np.abs(out.data) < 0.2)


class TestMaxPool:
    def test_spectrogram_sized_chain(self):
        x = Tensor(np.random.default_rng(7).normal(size=(1, 51, 51, 2)))
        p1 = max_pool(x)
        assert p1.shape == (1, 25, 25, 2)
        p3 = max_pool(max_pool(p1))
        assert p3.shape == (1, 6, 6, 2)

    def test_constant_input(self):
        out = max_pool(Tensor(np.full((1, 4, 4, 1), 3.5)))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 1), 3.5))

    def test_matches_block_enumeration(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 6, 6, 3))
        out = max_pool(Tensor(x))
        for n in range(2):
            for i in range(3):
                for j in range(3):
                    for c in range(3):
                        block = x[n, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c]
                        assert out.data[n, i, j, c] == block.max()

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            max_pool(Tensor(np.zeros((1, 1, 4, 1))))


class TestDense:
    def test_identity_map(self):
        rng = np.random.default_rng(9)
        d = Dense(4, 4, rng)
        d.weight.data[:] = np.eye(4)
        d.bias.data[:] = 0.0
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(d(Tensor(x)).data, x)

    def test_zero_input_gives_bias(self):
        d = Dense(5, 3, np.random.default_rng(10))
        d.bias.data[:] = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(d(Tensor(np.zeros((2, 5)))).data, [[1, 2, 3], [1, 2, 3]])

    def test_matches_dot_oracle(self):
        rng = np.random.default_rng(11)
        d = Dense(8, 4, rng)
        x = rng.normal(size=(6, 8))
        np.testing.assert_allclose(d(Tensor(x)).data, x @ d.weight.data + d.bias.data, atol=1e-12)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dense(8, 4, np.random.default_rng(0))(Tensor(np.zeros((2, 7))))


def lstm_oracle(x, w_x, w_h, b, reverse):
    """Unrolled gate equations, one step at a time."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    batch, steps, _ = x.shape
    n = w_h.shape[0]
    h = np.zeros((batch, n))
    c = np.zeros((batch, n))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        z = x[:, t, :] @ w_x + h @ w_h + b
        i, f, g, o = sig(z[:, :n]), sig(z[:, n : 2 * n]), np.tanh(z[:, 2 * n : 3 * n]), sig(z[:, 3 * n :])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


class TestBiLSTM:
    def test_single_step_uses_same_input_for_both_directions(self):
        rng = np.random.default_rng(12)
        lstm = BiLSTM(3, 4, rng)
        x = rng.normal(size=(2, 1, 3))
        out = lstm(Tensor(x)).data
        fwd = lstm_oracle(x, lstm.forward_dir.w_input.data, lstm.forward_dir.w_state.data, lstm.forward_dir.bias.data, False)
        bwd = lstm_oracle(x, lstm.backward_dir.w_input.data, lstm.backward_dir.w_state.data, lstm.backward_dir.bias.data, True)
        np.testing.assert_allclose(out[:, :4], fwd, atol=1e-12)
        np.testing.assert_allclose(out[:, 4:], bwd, atol=1e-12)

    def test_zero_parameters_give_zero_output(self):
        lstm = BiLSTM(2, 5, np.random.default_rng(13))
        for p in lstm.parameters():
            p.data[:] = 0.0
        out = lstm(Tensor(np.random.default_rng(0).normal(size=(3, 4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 10)))

    def test_matches_unrolled_recurrence(self):
        rng = np.random.default_rng(14)
        lstm = BiLSTM(2, 6, rng)
        x = rng.normal(size=(3, 3, 2))
        out = lstm(Tensor(x)).data
        fwd = lstm_oracle(x, lstm.forward_dir.w_input.data, lstm.forward_dir.w_state.data, lstm.forward_dir.bias.data, False)
        bwd = lstm_oracle(x, lstm.backward_dir.w_input.data, lstm.backward_dir.w_state.data, lstm.backward_dir.bias.data, True)
        np.testing.assert_allclose(out, np.concatenate([fwd, bwd], axis=1), atol=1e-10)

    def test_empty_sequence_raises(self):
        lstm = BiLSTM(2, 3, np.random.default_rng(15))
        with pytest.raises(ValueError):
            lstm(Tensor(np.zeros((2, 0, 2))))


class TestDropout:
    def test_inference_is_identity(self):
        x = Tensor(np.random.default_rng(16).normal(size=(4, 7)))
        out = Dropout(0.4)(x, training=False, rng=None)
        assert out is x

    def test_training_preserves_expectation(self):
        drop = Dropout(0.3)
        rng = np.random.default_rng(17)
        x = Tensor(np.ones((8, 500)))
        total = np.zeros((8, 500))
        n = 300
        for _ in range(n):
            total += drop(x, training=True, rng=rng).data
        assert abs(total.mean() / n - 1.0) < 0.01

    def test_deterministic_given_seed(self):
        drop = Dropout(0.5)
        x = Tensor(np.ones((3, 3)))
        a = drop(x, training=True, rng=np.random.default_rng(5)).data
        b = drop(x, training=True, rng=np.random.default_rng(5)).data
        np.testing.assert_array_equal(a, b)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


def test_layer_gradients_match_finite_differences():
    """Every layer in isolation, at the tight per-layer tolerance."""
    rng = np.random.default_rng(18)

    x = Tensor(rng.normal(size=(2, 5, 5, 2)), requires_grad=True)
    conv = Conv2D(2, 3, rng)
    w = Tensor(rng.normal(size=(2, 5, 5, 3)))
    assert grad_check(lambda: (conv(x) * w).sum(), [x, conv.kernel], rng=rng) < 1e-6

    xb = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    bn = BatchNorm(4)
    wb = Tensor(rng.normal(size=(6, 4)))
    assert grad_check(lambda: (bn(xb, training=True) * wb).sum(), [xb, bn.gain, bn.bias], rng=rng) < 1e-6

    xp = Tensor(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)
    wp = Tensor(rng.normal(size=(2, 2, 2, 2)))
    assert grad_check(lambda: (max_pool(xp) * wp).sum(), [xp], rng=rng) < 1e-6

    xd = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    dense = Dense(6, 3, rng)
    wd = Tensor(rng.normal(size=(4, 3)))
    assert grad_check(lambda: (dense(xd) * wd).sum(), [xd, dense.weight, dense.bias], rng=rng) < 1e-6

    xs = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
    lstm = BiLSTM(2, 4, rng)
    ws = Tensor(rng.normal(size=(2, 8)))
    assert grad_check(lambda: (lstm(xs) * ws).sum(), [xs] + lstm.parameters(), rng=rng) < 1e-6
