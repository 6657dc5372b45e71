"""Modality encoders, gated attention pooling, and the classifier variants.

Both encoders project into a shared 256-dimensional space. A bag holds three
one-minute acceleration spectrograms plus one 12-minute location window; the
attention pool scores each embedded instance with a tanh/sigmoid gate,
normalizes the scores with a softmax, and fuses the bag as the weighted sum.
An eight-way head with per-class sigmoid outputs makes the prediction.

Architectures (selected by name, all built from the same components):

- ``fusion_mil``: 3 acceleration + 1 location instance, attention fusion,
  two-layer classifier head
- ``acc_mil``: attention over the acceleration instances only, linear head
- ``acc_cnn``: single acceleration instance, linear head
- ``loc_lstm``: location instance only, linear head
- ``fusion_concat``: one acceleration embedding concatenated with the
  location embedding (512-d) into the classifier head
- ``fusion_concat_pp``: attention-pooled acceleration embedding concatenated
  with the location embedding (512-d) into the classifier head
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import N_MODES
from .nn import BatchNorm, BiLSTM, Conv2D, Dense, Dropout, Module, Tensor, max_pool, no_grad
from .nn.layers import glorot_uniform
from .nn.tensor import concat, relu, reshape, sigmoid, softmax, tanh

__all__ = [
    "EMBED_DIM",
    "ARCHITECTURES",
    "AccelEncoder",
    "LocEncoder",
    "AttentionPool",
    "ClassifierHead",
    "LinearHead",
    "TransportModeClassifier",
    "ForwardResult",
    "attention_weights",
    "fuse",
    "parameter_count",
]

EMBED_DIM = 256
ATTENTION_DIM = 256
SPEC_SHAPE = (51, 51, 2)
LOC_SEQ_SHAPE = (10, 2)
N_LOC_SCALARS = 5

ARCHITECTURES = ("fusion_mil", "acc_mil", "acc_cnn", "loc_lstm", "fusion_concat", "fusion_concat_pp")


class AccelEncoder(Module):
    """Spectrogram encoder: input norm, three conv blocks, two dense blocks.

    Each conv block is a same-padded 3x3 convolution (16/32/64 filters),
    batch normalization, 2x2 max pooling and ReLU, shrinking 51 -> 25 -> 12
    -> 6. That is conv -> BN -> ReLU -> pool with ReLU on a quarter of the
    elements: max commutes with ``max(x, 0)``, and the gradient routed to a
    block's first maximum is zeroed exactly when that maximum is <= 0. The
    flattened 6*6*64 map passes a 128-wide bottleneck block and a 256-wide
    block, both with dropout in front.
    """

    def __init__(self, rng: np.random.Generator, dropout_rate: float = 0.3):
        super().__init__()
        self.input_norm = BatchNorm(2)
        self.conv1 = Conv2D(2, 16, rng)
        self.norm1 = BatchNorm(16)
        self.conv2 = Conv2D(16, 32, rng)
        self.norm2 = BatchNorm(32)
        self.conv3 = Conv2D(32, 64, rng)
        self.norm3 = BatchNorm(64)
        self.drop1 = Dropout(dropout_rate)
        self.fc1 = Dense(6 * 6 * 64, 128, rng)
        self.fc_norm1 = BatchNorm(128)
        self.drop2 = Dropout(dropout_rate)
        self.fc2 = Dense(128, EMBED_DIM, rng)
        self.fc_norm2 = BatchNorm(EMBED_DIM)

    def __call__(self, x: Tensor, training: bool, rng: np.random.Generator | None = None) -> Tensor:
        if x.shape[1:] != SPEC_SHAPE:
            raise ValueError(f"expected (batch, {SPEC_SHAPE}) input, got {x.shape}")
        training = training and not self._frozen
        h = self.input_norm(x, training)
        h = relu(max_pool(self.norm1(self.conv1(h), training)))
        h = relu(max_pool(self.norm2(self.conv2(h), training)))
        h = relu(max_pool(self.norm3(self.conv3(h), training)))
        h = reshape(h, (x.shape[0], 6 * 6 * 64))
        h = relu(self.fc_norm1(self.fc1(self.drop1(h, training, rng)), training))
        h = relu(self.fc_norm2(self.fc2(self.drop2(h, training, rng)), training))
        return h


class LocEncoder(Module):
    """Location encoder: normalized 10x2 sequence through a 128-cell Bi-LSTM,
    final states concatenated with the five scalar features (261-d), then
    three 256-wide dense blocks."""

    def __init__(self, rng: np.random.Generator, n_cells: int = 128):
        super().__init__()
        self.input_norm = BatchNorm(2)
        self.lstm = BiLSTM(2, n_cells, rng)
        width = 2 * n_cells + N_LOC_SCALARS
        self.fc1 = Dense(width, EMBED_DIM, rng)
        self.norm1 = BatchNorm(EMBED_DIM)
        self.fc2 = Dense(EMBED_DIM, EMBED_DIM, rng)
        self.norm2 = BatchNorm(EMBED_DIM)
        self.fc3 = Dense(EMBED_DIM, EMBED_DIM, rng)
        self.norm3 = BatchNorm(EMBED_DIM)

    def __call__(self, seq: Tensor, scalars: Tensor, training: bool) -> Tensor:
        if seq.shape[1:] != LOC_SEQ_SHAPE:
            raise ValueError(f"expected (batch, {LOC_SEQ_SHAPE}) sequence, got {seq.shape}")
        training = training and not self._frozen
        h = self.lstm(self.input_norm(seq, training))
        h = concat([h, scalars], axis=1)
        h = relu(self.norm1(self.fc1(h), training))
        h = relu(self.norm2(self.fc2(h), training))
        h = relu(self.norm3(self.fc3(h), training))
        return h


def attention_weights(embeddings: Tensor, v_proj: Tensor, u_proj: Tensor, score: Tensor) -> Tensor:
    """Gated attention weights over instances.

    ``embeddings`` is (batch, n, d). Each instance is scored as
    score_vec . (tanh(embedding @ v_proj) * sigmoid(embedding @ u_proj)) and
    the scores are softmax-normalized over the instance axis, so the weights
    are strictly positive and sum to one per bag.
    """
    gate = tanh(embeddings @ v_proj) * sigmoid(embeddings @ u_proj)
    scores = reshape(gate @ score, embeddings.shape[:2])
    return softmax(scores, axis=1)


def fuse(embeddings: Tensor, weights: Tensor) -> Tensor:
    """Weighted sum of instance embeddings: (batch, n, d) x (batch, n) -> (batch, d)."""
    return (reshape(weights, weights.shape + (1,)) * embeddings).sum(axis=1)


class AttentionPool(Module):
    """Gated attention MIL pool mapping (batch, n, d) bags to (batch, d)."""

    def __init__(self, rng: np.random.Generator, d: int = EMBED_DIM, inner: int = ATTENTION_DIM):
        super().__init__()
        self.v_proj = Tensor(glorot_uniform(rng, (d, inner), d, inner), requires_grad=True)
        self.u_proj = Tensor(glorot_uniform(rng, (d, inner), d, inner), requires_grad=True)
        self.score = Tensor(glorot_uniform(rng, (inner, 1), inner, 1), requires_grad=True)

    def weights(self, embeddings: Tensor) -> Tensor:
        return attention_weights(embeddings, self.v_proj, self.u_proj, self.score)

    def __call__(self, embeddings: Tensor) -> tuple[Tensor, Tensor]:
        a = self.weights(embeddings)
        return fuse(embeddings, a), a


class ClassifierHead(Module):
    """Dense block (to 128, batch norm, ReLU) then a dense layer to 8 logits."""

    def __init__(self, rng: np.random.Generator, n_in: int = EMBED_DIM, hidden: int = 128):
        super().__init__()
        self.fc1 = Dense(n_in, hidden, rng)
        self.norm = BatchNorm(hidden)
        self.fc2 = Dense(hidden, N_MODES, rng)

    def __call__(self, z: Tensor, training: bool) -> Tensor:
        training = training and not self._frozen
        return self.fc2(relu(self.norm(self.fc1(z), training)))


class LinearHead(Module):
    """Single dense layer to 8 logits (the heads of the single-modal baselines)."""

    def __init__(self, rng: np.random.Generator, n_in: int = EMBED_DIM):
        super().__init__()
        self.fc = Dense(n_in, N_MODES, rng)

    def __call__(self, z: Tensor, training: bool) -> Tensor:
        return self.fc(z)


@dataclass
class ForwardResult:
    """Class probabilities plus attention diagnostics (detached arrays)."""

    probs: Tensor  # (batch, 8) sigmoid outputs
    attention: np.ndarray | None = None  # (batch, n_instances)
    accel_weight: np.ndarray | None = None  # (batch,) sum over acceleration instances
    loc_weight: np.ndarray | None = None  # (batch,) sum over location instances

    @property
    def predictions(self) -> np.ndarray:
        return self.probs.data.argmax(axis=1)


class TransportModeClassifier(Module):
    """The full model family; the architecture name picks the wiring."""

    def __init__(
        self,
        arch: str = "fusion_mil",
        n_accel_instances: int = 3,
        seed: int = 0,
        dropout_rate: float = 0.3,
    ):
        super().__init__()
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}; choose from {ARCHITECTURES}")
        self.arch = arch
        self.n_accel_instances = n_accel_instances if arch not in ("acc_cnn", "fusion_concat") else 1
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.uses_accel = arch != "loc_lstm"
        self.uses_loc = arch in ("fusion_mil", "loc_lstm", "fusion_concat", "fusion_concat_pp")
        self.uses_attention = arch in ("fusion_mil", "acc_mil", "fusion_concat_pp")

        if self.uses_accel:
            self.accel_encoder = AccelEncoder(rng, dropout_rate)
        if self.uses_loc:
            self.loc_encoder = LocEncoder(rng)
        if self.uses_attention:
            self.attention = AttentionPool(rng)
        if arch == "fusion_mil":
            self.head = ClassifierHead(rng, EMBED_DIM)
        elif arch in ("fusion_concat", "fusion_concat_pp"):
            self.head = ClassifierHead(rng, 2 * EMBED_DIM)
        else:
            self.head = LinearHead(rng, EMBED_DIM)

    # -- forward -----------------------------------------------------------------

    def _embed_accel(self, acc: np.ndarray, training: bool, rng) -> Tensor:
        batch, n_inst = acc.shape[:2]
        flat = Tensor(acc.reshape((batch * n_inst,) + SPEC_SHAPE))
        embedded = self.accel_encoder(flat, training, rng)
        return reshape(embedded, (batch, n_inst, EMBED_DIM))

    def forward(
        self,
        acc: np.ndarray | None = None,
        loc_seq: np.ndarray | None = None,
        loc_scalars: np.ndarray | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> ForwardResult:
        """Run one batch.

        ``acc`` is (batch, n_instances, 51, 51, 2); ``loc_seq`` is
        (batch, 10, 2) with ``loc_scalars`` (batch, 5). Architectures ignore
        the inputs they do not use. Instances are ordered oldest-first with
        the location instance last.
        """
        if self.uses_accel:
            if acc is None:
                raise ValueError(f"{self.arch} needs acceleration input")
            if acc.shape[1] != self.n_accel_instances:
                raise ValueError(f"expected {self.n_accel_instances} acceleration instances, got {acc.shape[1]}")
        if self.uses_loc and (loc_seq is None or loc_scalars is None):
            raise ValueError(f"{self.arch} needs location input")

        attention = accel_w = loc_w = None
        if self.arch == "fusion_mil":
            h_acc = self._embed_accel(acc, training, rng)
            h_loc = self.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
            bag = concat([h_acc, reshape(h_loc, (h_loc.shape[0], 1, EMBED_DIM))], axis=1)
            z, a = self.attention(bag)
            logits = self.head(z, training)
            attention = a.data.copy()
            accel_w = attention[:, : self.n_accel_instances].sum(axis=1)
            loc_w = attention[:, self.n_accel_instances :].sum(axis=1)
        elif self.arch == "acc_mil":
            h_acc = self._embed_accel(acc, training, rng)
            z, a = self.attention(h_acc)
            logits = self.head(z, training)
            attention = a.data.copy()
            accel_w = attention.sum(axis=1)
        elif self.arch == "acc_cnn":
            batch = acc.shape[0]
            z = self.accel_encoder(Tensor(acc.reshape((batch,) + SPEC_SHAPE)), training, rng)
            logits = self.head(z, training)
        elif self.arch == "loc_lstm":
            z = self.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
            logits = self.head(z, training)
        elif self.arch == "fusion_concat":
            batch = acc.shape[0]
            h_a = self.accel_encoder(Tensor(acc.reshape((batch,) + SPEC_SHAPE)), training, rng)
            h_l = self.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
            logits = self.head(concat([h_a, h_l], axis=1), training)
        else:  # fusion_concat_pp
            h_acc = self._embed_accel(acc, training, rng)
            z_a, a = self.attention(h_acc)
            h_l = self.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
            logits = self.head(concat([z_a, h_l], axis=1), training)
            attention = a.data.copy()
        return ForwardResult(probs=sigmoid(logits), attention=attention, accel_weight=accel_w, loc_weight=loc_w)

    def predict(self, acc=None, loc_seq=None, loc_scalars=None) -> ForwardResult:
        """Inference forward pass without graph construction."""
        with no_grad():
            return self.forward(acc=acc, loc_seq=loc_seq, loc_scalars=loc_scalars, training=False)


def parameter_count(module: Module) -> int:
    return int(sum(p.size for p in module.parameters()))
