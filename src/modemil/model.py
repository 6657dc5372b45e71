"""Modality encoders, gated attention pooling, and the classifier variants.

Both encoders project into a shared 256-dimensional space. A bag holds three
one-minute acceleration spectrograms plus one 12-minute location window; the
attention pool scores each embedded instance with a tanh/sigmoid gate,
normalizes the scores with a softmax, and fuses the bag as the weighted sum.
An eight-way head with per-class sigmoid outputs makes the prediction.

Architectures (selected by name; every one is a row of ``WIRING``, and
``forward`` runs the same path for all of them):

    arch               accel pooling  location  fusion  head
    fusion_mil         attention      yes       bag     two-layer, 256-d in
    acc_mil            attention      no        -       linear
    acc_cnn            single         no        -       linear
    loc_lstm           -              yes       -       linear
    fusion_concat      single         yes       concat  two-layer, 512-d in
    fusion_concat_pp   attention      yes       concat  two-layer, 512-d in

"bag" fusion makes the location embedding the attention bag's last instance;
"concat" appends it to the (pooled) acceleration embedding. Every attending
architecture reports ``accel_weight``, ``fusion_concat_pp`` included;
``loc_weight`` exists only where location is a bag instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import N_MODES
from .accel import SPEC_SHAPE
from .geo import LOC_SEQ_SHAPE, N_SCALARS
from .nn import BatchNorm, BiLSTM, Conv2D, Dense, Dropout, Module, Tensor, conv_block, no_grad
from .nn.layers import glorot_uniform
from .nn.tensor import concat, recording, relu, reshape, sigmoid, softmax, tanh

__all__ = [
    "EMBED_DIM",
    "ARCHITECTURES",
    "WIRING",
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
LSTM_CELLS = 128
HEAD_HIDDEN = 128
CONV_FEATURES = 6 * 6 * 64  # the flattened conv3 map: 51 -> 25 -> 12 -> 6, 64 channels
# OpenBLAS sums a gemm of fewer rows in another order than the same rows in a larger
# call, so inference pads its batch and its distinct windows to at least this many rows.
MIN_GEMM_ROWS = 4

# arch -> (acceleration pooling, uses location, fusion)
WIRING = {
    "fusion_mil": ("attention", True, "bag"),
    "acc_mil": ("attention", False, None),
    "acc_cnn": ("single", False, None),
    "loc_lstm": (None, True, None),
    "fusion_concat": ("single", True, "concat"),
    "fusion_concat_pp": ("attention", True, "concat"),
}
ARCHITECTURES = tuple(WIRING)


class AccelEncoder(Module):
    """Spectrogram encoder: input norm, three conv blocks, two dense blocks.

    Each conv block is a same-padded 3x3 convolution (16/32/64 filters, no
    bias: the batch norm after it would cancel one), batch normalization, 2x2
    max pooling and ReLU, shrinking 51 -> 25 -> 12 -> 6. That is conv -> BN
    -> ReLU -> pool with ReLU on a quarter of the elements: max commutes with
    ``max(x, 0)``, and the gradient routed to a block's first maximum is
    zeroed exactly when that maximum is <= 0. ``conv_block`` runs each block
    16 images at a time with no full-size normalized map, one node with a
    hand-written backward under a graph. The input norm runs inside conv1's
    block, which standardizes the spectrogram into its conv buffer and gives
    the input no gradient. The blocks compute in float32 inside, on the
    float64 maps they take and return; in their float64 mode (gradient
    checks) they have the chain's bits on running statistics. The flattened
    6*6*64 map passes a 128-wide bottleneck block and a 256-wide block, both
    with dropout in front.
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
        self.fc1 = Dense(CONV_FEATURES, 128, rng)
        self.fc_norm1 = BatchNorm(128)
        self.drop2 = Dropout(dropout_rate)
        self.fc2 = Dense(128, EMBED_DIM, rng)
        self.fc_norm2 = BatchNorm(EMBED_DIM)

    def __call__(self, x: Tensor, training: bool, rng: np.random.Generator | None = None) -> Tensor:
        if x.shape[1:] != SPEC_SHAPE:
            raise ValueError(f"expected (batch, {SPEC_SHAPE}) input, got {x.shape}")
        h = conv_block(x, self.conv1, self.norm1, training, self.input_norm)
        h = conv_block(h, self.conv2, self.norm2, training)
        h = conv_block(h, self.conv3, self.norm3, training)
        h = reshape(h, (x.shape[0], CONV_FEATURES))
        h = relu(self.fc_norm1(self.fc1(self.drop1(h, training, rng)), training))
        h = relu(self.fc_norm2(self.fc2(self.drop2(h, training, rng)), training))
        return h


class LocEncoder(Module):
    """Location encoder: normalized 10x2 sequence through a 128-cell Bi-LSTM,
    final states concatenated with the five scalar features (261-d), then
    three 256-wide dense blocks."""

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self.input_norm = BatchNorm(2)
        self.lstm = BiLSTM(2, LSTM_CELLS, rng)
        self.fc1 = Dense(2 * LSTM_CELLS + N_SCALARS, EMBED_DIM, rng)
        self.norm1 = BatchNorm(EMBED_DIM)
        self.fc2 = Dense(EMBED_DIM, EMBED_DIM, rng)
        self.norm2 = BatchNorm(EMBED_DIM)
        self.fc3 = Dense(EMBED_DIM, EMBED_DIM, rng)
        self.norm3 = BatchNorm(EMBED_DIM)

    def __call__(self, seq: Tensor, scalars: Tensor, training: bool) -> Tensor:
        if seq.shape[1:] != LOC_SEQ_SHAPE:
            raise ValueError(f"expected (batch, {LOC_SEQ_SHAPE}) sequence, got {seq.shape}")
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
    """Gated attention MIL pool mapping (batch, n, ``EMBED_DIM``) bags to (batch,
    ``EMBED_DIM``) through ``ATTENTION_DIM``-wide gates."""

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        d, inner = EMBED_DIM, ATTENTION_DIM
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

    def __init__(self, rng: np.random.Generator, n_in: int = EMBED_DIM):
        super().__init__()
        self.fc1 = Dense(n_in, HEAD_HIDDEN, rng)
        self.norm = BatchNorm(HEAD_HIDDEN)
        self.fc2 = Dense(HEAD_HIDDEN, N_MODES, rng)

    def __call__(self, z: Tensor, training: bool) -> Tensor:
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
    """The full model family; the architecture's ``WIRING`` row picks the wiring."""

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
        pooling, self.uses_loc, self.fusion = WIRING[arch]
        self.arch = arch
        self.n_accel_instances = n_accel_instances if pooling != "single" else 1
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.uses_accel = pooling is not None
        self.uses_attention = pooling == "attention"

        if self.uses_accel:
            self.accel_encoder = AccelEncoder(rng, dropout_rate)
        if self.uses_loc:
            self.loc_encoder = LocEncoder(rng)
        if self.uses_attention:
            self.attention = AttentionPool(rng)
        if self.fusion is None:
            self.head = LinearHead(rng, EMBED_DIM)
        else:
            self.head = ClassifierHead(rng, EMBED_DIM if self.fusion == "bag" else 2 * EMBED_DIM)

    # -- forward -----------------------------------------------------------------

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

        In eval mode with no graph recorded (``predict``) each byte-distinct
        window of the batch goes through the acceleration encoder once, and the
        bags that hold it share its embedding: the bags of a stream slide by one
        minute, so a window sits in up to three of them. That keeps every bit,
        as eval batch norm uses running statistics and a row of a conv or dense
        gemm gets the same bits whatever other rows share the call, as long as
        the call has ``MIN_GEMM_ROWS`` rows. So this path also pads the distinct
        windows, and a batch of fewer bags, to that many rows by repeating the
        last one, and drops the extra rows: a bag gets the same bits in any
        chunk. Training, and any pass that records a graph, encodes every window.
        """
        if self.uses_accel:
            if acc is None:
                raise ValueError(f"{self.arch} needs acceleration input")
            if acc.shape[1] != self.n_accel_instances:
                raise ValueError(f"expected {self.n_accel_instances} acceleration instances, got {acc.shape[1]}")
        if self.uses_loc and (loc_seq is None or loc_scalars is None):
            raise ValueError(f"{self.arch} needs location input")

        inference = not training and not recording(self.parameters())
        n_bags = len(acc) if self.uses_accel else len(loc_seq)
        if inference and 0 < n_bags < MIN_GEMM_ROWS:
            padded = self.forward(*(None if x is None else _pad_rows(x) for x in (acc, loc_seq, loc_scalars)))
            probs, *diagnostics = vars(padded).values()
            return ForwardResult(Tensor(probs.data[:n_bags]), *(None if x is None else x[:n_bags] for x in diagnostics))

        if self.uses_accel and inference:
            h_acc = self._embed_distinct_windows(acc)
        elif self.uses_accel:
            flat = self.accel_encoder(Tensor(acc.reshape((-1,) + SPEC_SHAPE)), training, rng)
            h_acc = reshape(flat, acc.shape[:2] + (EMBED_DIM,))
        if self.uses_loc:
            h_loc = self.loc_encoder(Tensor(loc_seq), Tensor(loc_scalars), training)
        attention = accel_w = loc_w = None
        if self.uses_attention:
            bag = h_acc
            if self.fusion == "bag":
                bag = concat([h_acc, reshape(h_loc, (h_loc.shape[0], 1, EMBED_DIM))], axis=1)
            z, a = self.attention(bag)
            attention = a.data.copy()
            accel_w = attention[:, : self.n_accel_instances].sum(axis=1)
            loc_w = attention[:, self.n_accel_instances :].sum(axis=1) if self.fusion == "bag" else None
        elif self.uses_accel:
            z = reshape(h_acc, (h_acc.shape[0], EMBED_DIM))
        else:
            z = h_loc
        if self.fusion == "concat":
            z = concat([z, h_loc], axis=1)
        logits = self.head(z, training)
        return ForwardResult(probs=sigmoid(logits), attention=attention, accel_weight=accel_w, loc_weight=loc_w)

    def _embed_distinct_windows(self, acc: np.ndarray) -> Tensor:
        """Eval-mode (batch, n_instances, ``EMBED_DIM``) embeddings of ``acc`` that encode each
        byte-distinct window once."""
        windows = acc.reshape((-1,) + SPEC_SHAPE)
        first, inverse = _distinct_rows(windows)
        distinct = self.accel_encoder(Tensor(_pad_rows(windows[first])), False).data
        return Tensor(distinct[inverse].reshape(acc.shape[:2] + (EMBED_DIM,)))

    def predict(self, acc=None, loc_seq=None, loc_scalars=None) -> ForwardResult:
        """Inference forward pass without graph construction. It encodes each distinct
        acceleration window of the batch once, with the bits of encoding them all (see
        ``forward``)."""
        with no_grad():
            return self.forward(acc=acc, loc_seq=loc_seq, loc_scalars=loc_scalars, training=False)


def _pad_rows(x: np.ndarray) -> np.ndarray:
    """``x`` with its last row repeated up to ``MIN_GEMM_ROWS`` rows."""
    if len(x) >= MIN_GEMM_ROWS:
        return x
    return np.concatenate([x, np.repeat(x[-1:], MIN_GEMM_ROWS - len(x), axis=0)])


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the byte-distinct rows of ``x`` in first-occurrence order, and for each
    row the position of its copy among them."""
    seen: dict[bytes, int] = {}
    inverse = np.array([seen.setdefault(row.tobytes(), len(seen)) for row in x])
    return np.unique(inverse, return_index=True)[1], inverse


def parameter_count(module: Module) -> int:
    return int(sum(p.size for p in module.parameters()))
