"""Training and prediction replayed through modemil's public calls, with spans.

``train_model`` and ``predict_dataset`` are single calls, so a span around
them says nothing about steps. The traced run instead replays them with the
same public pieces they use (``BagDataset.batch``, ``model.forward``,
``cce_loss``, ``Tensor.backward``, ``Adam.step``, ``model.state_dict``) in
the same order and with the same random streams, so the replay's history is
bit-identical to ``train_model``'s. The benchmark's tests and every traced
run check that.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from modemil.bags import BagDataset, SessionFeatures, build_bags, build_windows
from modemil.model import TransportModeClassifier
from modemil.nn import Adam, cce_loss, no_grad
from modemil.splits import SplitSpec, split_bags
from modemil.train import TrainConfig, TrainHistory, TrainingDiverged

from tracing import Tracer


@dataclasses.dataclass
class TrainCounts:
    steps: int = 0
    bags: int = 0
    skipped: int = 0
    epochs: int = 0


def model_inputs(model: TransportModeClassifier, batch: dict) -> dict:
    """The inputs ``train_model`` and ``predict_dataset`` pass to the model."""
    acc = None
    if model.uses_accel:
        acc = batch["acc"]
        if acc.shape[1] < model.n_accel_instances:
            raise ValueError(f"bags carry {acc.shape[1]} windows, model wants {model.n_accel_instances}")
        acc = acc[:, acc.shape[1] - model.n_accel_instances :]
    return {
        "acc": acc,
        "loc_seq": batch["loc_seq"] if model.uses_loc else None,
        "loc_scalars": batch["loc_scalars"] if model.uses_loc else None,
    }


def build_model(config: TrainConfig) -> TransportModeClassifier:
    return TransportModeClassifier(
        arch=config.arch, n_accel_instances=config.n_accel_instances, seed=config.seed, dropout_rate=config.dropout
    )


def _validate(model, dataset, indices, batch_size, tracer: Tracer) -> tuple[float, float]:
    losses = []
    correct = 0
    for lo in range(0, len(indices), batch_size):
        chunk = indices[lo : lo + batch_size]
        with tracer.span("bags.batch"):
            batch = dataset.batch(chunk)
        with no_grad():
            with tracer.span("model.forward"):
                result = model.forward(**model_inputs(model, batch), training=False)
            loss = cce_loss(result.probs, batch["labels"])
        losses.append(float(loss.data) * len(chunk))
        correct += int((result.predictions == batch["labels"]).sum())
    return sum(losses) / len(indices), correct / len(indices)


def train_model(
    model: TransportModeClassifier,
    dataset: BagDataset,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    config: TrainConfig,
    tracer: Tracer,
    counts: TrainCounts,
) -> TrainHistory:
    """``modemil.train.train_model`` with a span around every step's parts."""
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("training needs non-empty train and validation sets")
    history = TrainHistory()
    if config.max_epochs == 0:
        return history
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])
    augment_rng = np.random.default_rng(seeds[2]) if config.augment and model.uses_accel else None
    placement_rng = np.random.default_rng(seeds[3]) if config.resample_placement else None

    optimizer = Adam(model.parameters(), lr=config.lr)
    best_state = None
    best_loss = np.inf
    since_best = 0
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(train_idx)
        epoch_losses = []
        for lo in range(0, len(order), config.batch_size):
            chunk = order[lo : lo + config.batch_size]
            if len(chunk) < 2:
                counts.skipped += 1
                continue
            with tracer.span("train.step"):
                with tracer.span("bags.batch"):
                    batch = dataset.batch(chunk, augment_rng=augment_rng, placement_rng=placement_rng)
                with tracer.span("model.forward"):
                    result = model.forward(**model_inputs(model, batch), training=True, rng=dropout_rng)
                with tracer.span("nn.cce_loss"):
                    loss = cce_loss(result.probs, batch["labels"])
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(f"non-finite training loss at epoch {epoch}")
                optimizer.zero_grad()
                with tracer.span("nn.backward"):
                    loss.backward()
                with tracer.span("nn.adam_step"):
                    optimizer.step()
            epoch_losses.append(float(loss.data))
            counts.steps += 1
            counts.bags += len(chunk)
        with tracer.span("train.validate"):
            val_loss, val_acc = _validate(model, dataset, val_idx, max(config.batch_size, 128), tracer)
        counts.epochs += 1
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


def run_training(config, dataset, train_idx, val_idx, tracer, counts, model=None):
    """``modemil.train.run_training`` over the replayed loop."""
    model = model or build_model(config)
    return model, train_model(model, dataset, train_idx, val_idx, config, tracer, counts)


def _split(tracer: Tracer, dataset: BagDataset, fold: SplitSpec, **kwargs):
    with tracer.span("splits.split_bags"):
        return split_bags(dataset, fold, **kwargs)


def run_pretraining(
    config: TrainConfig, features: list[SessionFeatures], fold: SplitSpec, tracer: Tracer, counts: TrainCounts
) -> tuple[TransportModeClassifier, dict[str, TrainHistory]]:
    """``modemil.train.run_pretraining`` stage by stage."""
    histories: dict[str, TrainHistory] = {}
    encoder_states: dict[str, dict] = {}
    if config.pretrain in ("accel", "both"):
        with tracer.span("train.stage.accel"):
            windows = build_windows(features)
            tr, va, _ = _split(tracer, windows, fold, span_minutes=1)
            stage = dataclasses.replace(config, arch="acc_cnn", pretrain="none", resample_placement=False)
            acc_model, histories["accel"] = run_training(stage, windows, tr, va, tracer, counts)
            encoder_states["accel_encoder"] = acc_model.accel_encoder.state_dict()
    if config.pretrain in ("loc", "both"):
        with tracer.span("train.stage.loc"):
            bags = build_bags(features, placement=features[0].placements[0])
            tr, va, _ = _split(tracer, bags, fold)
            stage = dataclasses.replace(config, arch="loc_lstm", pretrain="none", resample_placement=False)
            loc_model, histories["loc"] = run_training(stage, bags, tr, va, tracer, counts)
            encoder_states["loc_encoder"] = loc_model.loc_encoder.state_dict()
    with tracer.span("train.stage.fused"):
        model = build_model(config)
        for name, state in encoder_states.items():
            encoder = getattr(model, name)
            encoder.load_state_dict(state)
            if config.freeze_pretrained:
                encoder.freeze()
        bags = build_bags(features, placement=features[0].placements[0])
        tr, va, _ = _split(tracer, bags, fold)
        stage = dataclasses.replace(config, pretrain="none", resample_placement=True)
        model, histories["fused"] = run_training(stage, bags, tr, va, tracer, counts, model=model)
    return model, histories


def same_state(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def predict_dataset(model, dataset, indices, tracer: Tracer, batch_size: int = 128):
    """``modemil.train.predict_dataset`` with a span per chunk."""
    probs = np.empty((len(indices), 8))
    labels = np.empty(len(indices), dtype=np.int64)
    for lo in range(0, len(indices), batch_size):
        chunk = indices[lo : lo + batch_size]
        with tracer.span("predict.chunk"):
            with tracer.span("bags.batch"):
                batch = dataset.batch(chunk)
            with tracer.span("model.predict"):
                result = model.predict(**model_inputs(model, batch))
        probs[lo : lo + len(chunk)] = result.probs.data
        labels[lo : lo + len(chunk)] = batch["labels"]
    return probs, labels
