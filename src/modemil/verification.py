"""Finite-difference verification of every layer and the composed model.

Layer checks run each operation in isolation against central differences and
must agree to 1e-6 relative error; the full fused model (forward plus
cross-entropy on one random bag, inference-mode normalization) must agree to
1e-4. Shared by the ``gradcheck`` CLI command and the acceptance suite.
"""

from __future__ import annotations

import numpy as np

from .model import TransportModeClassifier
from .nn import BatchNorm, BiLSTM, Conv2D, Dense, Dropout, Tensor, cce_loss, conv_block, grad_check, max_pool
from .nn.tensor import relu, sigmoid, softmax, tanh

__all__ = ["layer_checks", "full_model_check"]

LAYER_LIMIT = 1e-6
MODEL_LIMIT = 1e-4


def layer_checks(verbose: bool = False) -> float:
    """Max relative error over all per-layer finite-difference checks."""
    rng = np.random.default_rng(7)
    worst = 0.0

    def record(name: str, err: float) -> None:
        nonlocal worst
        worst = max(worst, err)
        if verbose:
            print(f"  {name:<24} {err:.3e}")

    x = Tensor(rng.normal(size=(2, 7, 7, 2)), requires_grad=True)
    conv = Conv2D(2, 4, rng)
    w = Tensor(rng.normal(size=(2, 7, 7, 4)))
    record("conv2d", grad_check(lambda: (conv(x) * w).sum(), [x, conv.kernel], rng=rng))

    xb = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    bn = BatchNorm(5)
    wb = Tensor(rng.normal(size=(8, 5)))
    record("batch_norm train", grad_check(lambda: (bn(xb, training=True) * wb).sum(), [xb, bn.gain, bn.bias], rng=rng))
    record("batch_norm eval", grad_check(lambda: (bn(xb, training=False) * wb).sum(), [xb, bn.gain, bn.bias], rng=rng))

    xp = Tensor(rng.normal(size=(2, 6, 6, 3)), requires_grad=True)
    wp = Tensor(rng.normal(size=(2, 3, 3, 3)))
    record("max_pool", grad_check(lambda: (max_pool(xp) * wp).sum(), [xp], rng=rng))

    # The conv-block node in both batch-norm modes, every coordinate probed. The 7x7 extent is odd, so the pool
    # drops a row and a column whose gradient comes only through the batch statistics. Its own rng leaves the
    # other rows' draws as they were. A small input keeps each row's worst x gradient above grad_check's floor.
    block_rng = np.random.default_rng(8)
    xc = Tensor(0.03 * block_rng.normal(size=(3, 7, 7, 2)), requires_grad=True)
    block_conv, block_norm = Conv2D(2, 3, block_rng), BatchNorm(3)
    block_norm.gain.data[...] = block_rng.normal(size=3)
    block_norm.bias.data[...] = block_rng.normal(size=3)
    wc = Tensor(block_rng.normal(size=(3, 3, 3, 3)))
    block_params = [xc, block_conv.kernel, block_norm.gain, block_norm.bias]
    for mode, training in (("train", True), ("eval", False)):
        record(
            f"conv_block {mode}",
            grad_check(
                lambda: (conv_block(xc, block_conv, block_norm, training) * wc).sum(),
                block_params,
                max_coords=xc.size,
                rng=block_rng,
            ),
        )

    # The block with the input norm fused in: its input takes no gradient, every kernel,
    # gain and bias coordinate is probed. The gains and biases of both norms and the input
    # norm's running statistics are drawn away from their defaults.
    fused_rng = np.random.default_rng(9)
    xi = Tensor(fused_rng.normal(loc=0.5, scale=1.5, size=(3, 7, 7, 2)))
    fused_conv, fused_norm, input_norm = Conv2D(2, 3, fused_rng), BatchNorm(3), BatchNorm(2)
    for bn in (fused_norm, input_norm):
        bn.gain.data[...] = fused_rng.normal(size=bn.n_channels)
        bn.bias.data[...] = fused_rng.normal(size=bn.n_channels)
    input_norm._buffers["running_mean"][...] = fused_rng.normal(size=2)
    input_norm._buffers["running_var"][...] = fused_rng.uniform(0.5, 2.0, size=2)
    wi = Tensor(fused_rng.normal(size=(3, 3, 3, 3)))
    fused_params = [fused_conv.kernel, fused_norm.gain, fused_norm.bias, input_norm.gain, input_norm.bias]
    for mode, training in (("train", True), ("eval", False)):
        record(
            f"conv_block input-norm {mode}",
            grad_check(
                lambda: (conv_block(xi, fused_conv, fused_norm, training, input_norm) * wi).sum(),
                fused_params,
                max_coords=fused_conv.kernel.size,
                rng=fused_rng,
            ),
        )

    xd = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    dense = Dense(8, 4, rng)
    wd = Tensor(rng.normal(size=(4, 4)))
    record("dense", grad_check(lambda: (dense(xd) * wd).sum(), [xd, dense.weight, dense.bias], rng=rng))

    xs = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    lstm = BiLSTM(2, 5, rng)
    ws = Tensor(rng.normal(size=(3, 10)))
    record("bilstm", grad_check(lambda: (lstm(xs) * ws).sum(), [xs] + lstm.parameters(), rng=rng))

    # Activation kinks sit at 0; keep the probe points away from it.
    xr = Tensor(rng.uniform(0.1, 1.0, size=(4, 6)) * rng.choice([-1.0, 1.0], size=(4, 6)), requires_grad=True)
    wr = Tensor(rng.normal(size=(4, 6)))
    record("relu", grad_check(lambda: (relu(xr) * wr).sum(), [xr], rng=rng))
    record("tanh/sigmoid", grad_check(lambda: (tanh(xr) * sigmoid(xr) * wr).sum(), [xr], rng=rng))
    record("softmax", grad_check(lambda: (softmax(xr, axis=1) * wr).sum(), [xr], rng=rng))

    drop = Dropout(0.3)
    record(
        "dropout (fixed mask)",
        grad_check(lambda: (drop(xr, True, np.random.default_rng(3)) * wr).sum(), [xr], rng=rng),
    )

    logits = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    labels = rng.integers(0, 8, 4)
    record("sigmoid + cce_loss", grad_check(lambda: cce_loss(sigmoid(logits), labels), [logits], rng=rng))
    return worst


def full_model_check(verbose: bool = False) -> float:
    """Finite-difference check of the composed ``fusion_mil`` model on one random bag,
    8 coordinates per parameter."""
    rng = np.random.default_rng(11)
    model = TransportModeClassifier(arch="fusion_mil", seed=11)
    acc = rng.normal(size=(1, 3, 51, 51, 2))
    loc_seq = rng.normal(size=(1, 10, 2))
    loc_scalars = rng.normal(size=(1, 5))
    label = np.array([int(rng.integers(0, 8))])

    def objective():
        result = model.forward(acc=acc, loc_seq=loc_seq, loc_scalars=loc_scalars, training=False)
        return cce_loss(result.probs, label)

    err = grad_check(objective, model.parameters(), max_coords=8, rng=rng)
    if verbose:
        print(f"  full {'fusion_mil':<19} {err:.3e}")
    return err
