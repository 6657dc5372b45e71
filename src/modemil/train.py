"""Training loops: Adam on batch cross-entropy with early stopping, plus the
two-stage pre-training protocol (uni-modal encoders first, then the fused
model with the pre-trained weights frozen)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import N_MODES, check_field_types
from .bags import BagDataset, SessionFeatures, build_bags, build_windows
from .geo import WINDOW_MINUTES
from .model import ARCHITECTURES, TransportModeClassifier
from .nn import Adam, cce_loss
from .splits import SplitSpec, split_bags

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingDiverged",
    "build_model",
    "train_model",
    "run_training",
    "run_pretraining",
    "train_fold",
    "predict_chunks",
    "predict_dataset",
]

PRETRAIN_MODES = ("none", "loc", "accel", "both")
PREDICT_BATCH = 128  # bags per inference chunk


@dataclass
class TrainConfig:
    arch: str = "fusion_mil"
    lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 80
    patience: int = 10
    seed: int = 0
    augment: bool = True
    pretrain: str = "none"
    freeze_pretrained: bool = True
    dropout: float = 0.3
    n_accel_instances: int = 3  # ablation knob: windows per bag
    stop_accuracy: float | None = None  # optional early exit once reached
    resample_placement: bool = False  # one placement per bag per epoch

    def __post_init__(self):
        check_field_types(self)
        for broken, message in (
            (self.arch not in ARCHITECTURES, f"arch must be one of {ARCHITECTURES}"),
            (self.pretrain not in PRETRAIN_MODES, f"pretrain must be one of {PRETRAIN_MODES}"),
            (self.patience < 1, "patience must be >= 1"),
            (self.n_accel_instances < 1, "n_accel_instances must be >= 1"),
            (self.n_accel_instances > WINDOW_MINUTES, f"n_accel_instances must be <= {WINDOW_MINUTES}"),
            (self.batch_size < 2, "batch_size must be >= 2"),  # batch norm needs two examples
            (self.max_epochs < 0, "max_epochs must be >= 0"),
            (not 0.0 <= self.dropout < 1.0, "dropout must lie in [0, 1)"),
            (not self.lr > 0, "lr must be > 0"),
        ):
            if broken:
                raise ValueError(message)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


def build_model(config: TrainConfig) -> TransportModeClassifier:
    """The untrained model a config describes (architecture, windows per bag, seed, dropout)."""
    return TransportModeClassifier(config.arch, config.n_accel_instances, config.seed, config.dropout)


def _model_inputs(model: TransportModeClassifier, batch: dict) -> dict:
    acc = None
    if model.uses_accel:
        acc = batch["acc"]
        if acc.shape[1] < model.n_accel_instances:
            raise ValueError(f"bags carry {acc.shape[1]} windows, model wants {model.n_accel_instances}")
        if acc.shape[1] > model.n_accel_instances:
            acc = acc[:, -model.n_accel_instances :]  # most recent windows
    return {
        "acc": acc,
        "loc_seq": batch["loc_seq"] if model.uses_loc else None,
        "loc_scalars": batch["loc_scalars"] if model.uses_loc else None,
    }


def predict_chunks(model: TransportModeClassifier, dataset: BagDataset, indices, batch_size: int = PREDICT_BATCH):
    """Inference on the bags ``indices``, ``batch_size`` at a time: yields each chunk's slice of
    ``indices``, its batch and the model's result. ``predict`` encodes each distinct window of
    a chunk once (a sliding bag shares two windows with its neighbour) and pads a chunk of
    fewer than 4 bags, so a bag gets the same bits in any chunk (see ``model.forward``)."""
    for lo in range(0, len(indices), batch_size):
        span = slice(lo, lo + batch_size)
        batch = dataset.batch(indices[span])
        yield span, batch, model.predict(**_model_inputs(model, batch))


def predict_dataset(
    model: TransportModeClassifier,
    dataset: BagDataset,
    indices: np.ndarray,
    batch_size: int = PREDICT_BATCH,
) -> tuple[np.ndarray, np.ndarray]:
    """Inference probabilities and labels for the given bag indices."""
    probs = np.empty((len(indices), N_MODES))
    labels = np.empty(len(indices), dtype=np.int64)
    for span, batch, result in predict_chunks(model, dataset, indices, batch_size):
        probs[span] = result.probs.data
        labels[span] = batch["labels"]
    return probs, labels


def _validate(model, dataset, indices, batch_size) -> tuple[float, float]:
    """Mean loss and accuracy; the loss is averaged per inference chunk, then weighted by chunk size."""
    loss, correct = 0.0, 0
    for _, batch, result in predict_chunks(model, dataset, indices, batch_size):
        probs, labels = result.probs.data, batch["labels"]
        loss += float(cce_loss(probs, labels).data) * len(labels)
        correct += int((probs.argmax(axis=1) == labels).sum())
    return loss / len(indices), correct / len(indices)


def train_model(
    model: TransportModeClassifier,
    dataset: BagDataset,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    config: TrainConfig,
) -> TrainHistory:
    """Minimize mean cross-entropy with Adam; restore the best-validation weights.

    Deterministic for a fixed config seed: batch order, dropout masks,
    augmentation stripes and placement resampling all derive from it. A
    non-finite loss aborts with ``TrainingDiverged``.
    """
    if len(train_idx) < 2 or len(val_idx) == 0:
        raise ValueError("training needs at least 2 training bags and a non-empty validation set")
    history = TrainHistory()
    if config.max_epochs == 0:
        return history
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])
    augment_rng = np.random.default_rng(seeds[2]) if config.augment and model.uses_accel else None
    placement_rng = np.random.default_rng(seeds[3]) if config.resample_placement else None

    optimizer = Adam(dict(model.named_parameters()), lr=config.lr)
    best_state: dict | None = None
    best_loss = np.inf
    since_best = 0
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(train_idx)
        epoch_losses = []
        for lo in range(0, len(order), config.batch_size):
            chunk = order[lo : lo + config.batch_size]
            if len(chunk) < 2:
                continue  # batch statistics are undefined on a single example
            batch = dataset.batch(chunk, augment_rng=augment_rng, placement_rng=placement_rng)
            result = model.forward(**_model_inputs(model, batch), training=True, rng=dropout_rng)
            loss = cce_loss(result.probs, batch["labels"])
            if not np.isfinite(loss.data):
                raise TrainingDiverged(f"non-finite training loss at epoch {epoch}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(float(loss.data))
        val_loss, val_acc = _validate(model, dataset, val_idx, batch_size=max(config.batch_size, PREDICT_BATCH))
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)
        if val_loss < best_loss:
            best_loss = val_loss
            best_state = model.state_dict()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
        if config.stop_accuracy is not None and val_acc >= config.stop_accuracy:
            break
        if since_best >= config.patience:
            break
    if best_state is not None:
        model.load_state_dict(best_state)
    return history


def run_training(
    config: TrainConfig,
    dataset: BagDataset,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    model: TransportModeClassifier | None = None,
) -> tuple[TransportModeClassifier, TrainHistory]:
    """Build a model from the config (unless given) and train it."""
    model = build_model(config) if model is None else model
    history = train_model(model, dataset, train_idx, val_idx, config)
    return model, history


def run_pretraining(
    config: TrainConfig,
    features: list[SessionFeatures],
    fold: SplitSpec,
) -> tuple[TransportModeClassifier, dict[str, TrainHistory]]:
    """Two-stage protocol: uni-modal encoder training, then the fused model.

    Stage 1 trains the selected encoders through their single-modal baseline
    heads (single one-minute windows from every placement for the
    acceleration encoder; location windows for the location encoder) on all
    development data. Stage 2 builds the configured multi-modal model, loads
    the pre-trained encoder weights, freezes them, and trains the remaining
    layers on bags with one placement drawn per bag per epoch.
    """
    if config.pretrain == "none":
        raise ValueError("run_pretraining needs pretrain in {loc, accel, both}")
    histories: dict[str, TrainHistory] = {}
    encoder_states: dict[str, dict] = {}

    if config.pretrain in ("accel", "both"):
        windows = build_windows(features)
        tr, va, _ = split_bags(windows, fold, span_minutes=1)
        stage_cfg = _stage_config(config, arch="acc_cnn")
        acc_model, histories["accel"] = run_training(stage_cfg, windows, tr, va)
        encoder_states["accel_encoder"] = acc_model.accel_encoder.state_dict()
    # One bag per target minute on the first placement, for the location stage
    # and the fused stage; each fused epoch redraws which placement's
    # acceleration stream fills a bag (validation keeps the fixed placement).
    bags = build_bags(features, placement=features[0].placements[0], n_instances=config.n_accel_instances)
    tr, va, _ = split_bags(bags, fold)
    if config.pretrain in ("loc", "both"):
        stage_cfg = _stage_config(config, arch="loc_lstm")
        loc_model, histories["loc"] = run_training(stage_cfg, bags, tr, va)
        encoder_states["loc_encoder"] = loc_model.loc_encoder.state_dict()

    model = build_model(config)
    for name, state in encoder_states.items():
        encoder = getattr(model, name)
        encoder.load_state_dict(state)
        if config.freeze_pretrained:
            encoder.freeze()
    stage2_cfg = _stage_config(config, arch=config.arch, resample_placement=True)
    model, histories["fused"] = run_training(stage2_cfg, bags, tr, va, model=model)
    return model, histories


def train_fold(
    config: TrainConfig,
    features: list[SessionFeatures],
    fold: SplitSpec,
    dataset: BagDataset,
) -> tuple[TransportModeClassifier, TrainHistory]:
    """Train on one leave-one-user-out fold: the two-stage protocol when the
    config pre-trains (its bags come from ``features``), else ``dataset``'s
    train and validation bags."""
    if config.pretrain != "none":
        model, histories = run_pretraining(config, features, fold)
        return model, histories["fused"]
    train_idx, val_idx, _ = split_bags(dataset, fold)
    return run_training(config, dataset, train_idx, val_idx)


def _stage_config(config: TrainConfig, arch: str, resample_placement: bool = False) -> TrainConfig:
    return replace(config, arch=arch, pretrain="none", resample_placement=resample_placement)
