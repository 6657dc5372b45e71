"""Experiment harness: placement studies, HMM-smoothed evaluation, repeats,
and the attention interpretability tables."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import MODES, N_MODES, PLACEMENTS
from .bags import BagDataset, SessionFeatures, UNLABELED, build_bags, mixed_streams
from .hmm import estimate_transitions, viterbi_streams
from .metrics import ClassificationMetrics, classification_metrics, roc_curve
from .model import TransportModeClassifier
from .splits import loso_folds, split_bags
from .train import TrainConfig, TrainHistory, predict_chunks, predict_dataset, train_fold

__all__ = [
    "EXPERIMENT_KINDS",
    "FoldResult",
    "EvalReport",
    "dev_label_sequences",
    "smooth_test_predictions",
    "evaluate_split",
    "run_experiment",
    "attention_report",
]

EXPERIMENT_KINDS = ("per-placement", "all-placements", "mixed-one", "mixed-multiple")


def dev_label_sequences(features: list[SessionFeatures], test_user: str) -> list[np.ndarray]:
    """Per-session label sequences of the development users (train + validation)."""
    sequences = []
    for feat in features:
        if feat.user == test_user:
            continue
        labels = feat.labels[feat.labels != UNLABELED]
        if len(labels):
            sequences.append(labels)
    return sequences


def smooth_test_predictions(
    dataset: BagDataset,
    indices: np.ndarray,
    probs: np.ndarray,
    transitions: np.ndarray,
) -> np.ndarray:
    """Viterbi-decode per recording stream; returns labels aligned with ``indices``.

    Streams are the (session, stream) groups of the test bags, ordered by
    target minute; sessions never share a decode, so smoothing one session
    cannot influence another.
    """
    refs = [dataset.refs[i] for i in indices]
    return viterbi_streams(
        probs, [r.session for r in refs], [r.stream for r in refs], [r.target for r in refs], transitions
    )


@dataclass
class FoldResult:
    test_user: str
    run_index: int
    placement: str  # placement evaluated, or "mixed"
    pre: ClassificationMetrics
    post: ClassificationMetrics
    history: TrainHistory


@dataclass
class EvalReport:
    kind: str
    config: TrainConfig
    n_runs: int
    folds: list[FoldResult] = field(default_factory=list)
    attention: dict | None = None
    roc_points: dict[str, np.ndarray] | None = None  # per mode: (fpr, tpr, threshold) rows

    def aggregate(self) -> dict:
        """Mean and standard deviation over folds/runs/placements, pre and post HMM."""
        out = {}
        for stage in ("pre", "post"):
            metrics = [getattr(f, stage) for f in self.folds]
            for name in ("accuracy", "macro_f1", "macro_precision", "macro_recall"):
                values = np.array([getattr(m, name) for m in metrics])
                out[f"{stage}_{name}_mean"] = float(values.mean()) if len(values) else float("nan")
                out[f"{stage}_{name}_std"] = float(values.std()) if len(values) else float("nan")
        return out

    def per_placement(self, stage: str = "post") -> dict[str, float]:
        scores: dict[str, list[float]] = {}
        for fold in self.folds:
            scores.setdefault(fold.placement, []).append(getattr(fold, stage).accuracy)
        return {p: float(np.mean(v)) for p, v in scores.items()}


def evaluate_split(
    model: TransportModeClassifier,
    dataset: BagDataset,
    test_idx: np.ndarray,
    transitions: np.ndarray,
) -> tuple[ClassificationMetrics, ClassificationMetrics, np.ndarray, np.ndarray]:
    """Metrics before and after HMM smoothing on the test bags."""
    probs, labels = predict_dataset(model, dataset, test_idx)
    raw = probs.argmax(axis=1)
    smoothed = smooth_test_predictions(dataset, test_idx, probs, transitions)
    return classification_metrics(labels, raw), classification_metrics(labels, smoothed), probs, labels


def roc_tables(probs: np.ndarray, labels: np.ndarray) -> dict[str, np.ndarray]:
    """One-vs-rest ROC point table per mode present in the labels."""
    tables = {}
    for c, mode in enumerate(MODES):
        positive = labels == c
        if positive.any() and not positive.all():
            fpr, tpr, thresholds = roc_curve(positive, probs[:, c])
            tables[mode] = np.column_stack([fpr, tpr, thresholds])
    return tables


def run_experiment(
    kind: str,
    features: list[SessionFeatures],
    config: TrainConfig,
    n_runs: int = 15,
    collect_attention: bool = False,
) -> EvalReport:
    """One of the placement studies, repeated ``n_runs`` times over LOSO folds.

    - per-placement: one model per placement, trained and tested on it
    - all-placements: one model on every placement's bags, tested per placement
    - mixed-one / mixed-multiple: one or four virtual placement-hopping
      streams for training, a freshly drawn virtual stream for testing

    Each run re-seeds model initialization and the train/validation split.
    Encoder pre-training draws one placement per bag, so it pairs with the
    all-placements structure only.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}")
    if config.pretrain != "none" and kind != "all-placements":
        raise ValueError("encoder pre-training follows the all-placements protocol")
    report = EvalReport(kind=kind, config=config, n_runs=n_runs)
    n_inst = config.n_accel_instances

    def record(fold, run, placement, model, dataset, idx, transitions, history):
        pre, post, probs, labels = evaluate_split(model, dataset, idx, transitions)
        report.folds.append(FoldResult(fold.test_user, run, placement, pre, post, history))
        if report.roc_points is None:
            report.roc_points = roc_tables(probs, labels)

    for run in range(n_runs):
        run_seed = config.seed + 1009 * run
        folds = loso_folds(features, seed=run_seed)
        for fold in folds:
            transitions = estimate_transitions(dev_label_sequences(features, fold.test_user))
            run_config = replace(config, seed=run_seed)
            if kind == "per-placement":
                for placement in features[0].placements:
                    dataset = build_bags(features, placement=placement, n_instances=n_inst)
                    model, history = train_fold(run_config, features, fold, dataset)
                    _, _, test_idx = split_bags(dataset, fold)
                    record(fold, run, placement, model, dataset, test_idx, transitions, history)
            elif kind == "all-placements":
                dataset = build_bags(features, placement=None, n_instances=n_inst)
                model, history = train_fold(run_config, features, fold, dataset)
                _, _, test_idx = split_bags(dataset, fold)
                names = np.array([dataset.placement_names(dataset.refs[i])[0] for i in test_idx], dtype=str)
                for name in np.unique(names):  # each bag holds one placement's windows
                    record(fold, run, str(name), model, dataset, test_idx[names == name], transitions, history)
            else:
                n_streams = 1 if kind == "mixed-one" else 4
                mix_rng = np.random.default_rng(run_seed + 17)
                dataset = mixed_streams(features, n_streams, mix_rng, n_instances=n_inst)
                model, history = train_fold(run_config, features, fold, dataset)
                test_set = mixed_streams(features, 1, np.random.default_rng(run_seed + 31), n_instances=n_inst)
                _, _, test_idx = split_bags(test_set, fold)
                record(fold, run, "mixed", model, test_set, test_idx, transitions, history)
                if collect_attention and run == 0:
                    report.attention = attention_report(model, test_set, test_idx)
    return report


def attention_report(model: TransportModeClassifier, dataset: BagDataset, indices: np.ndarray) -> dict:
    """Attention interpretability tables.

    Returns per-class rows (one per mode, in mode order):

    - ``weight_std``: mean within-bag standard deviation of the acceleration
      instance weights
    - ``modality``: mean (location, acceleration) attention mass
    - ``placement``: mean share of the within-bag acceleration attention per
      placement (meaningful on mixed streams, where bags mix placements)

    The tables reduce one (bags, instances) weight matrix in a bag-by-bag
    loop's order and have its bytes (``tests/test_experiments.py`` keeps it).
    """
    if not model.uses_attention:
        raise ValueError("attention tables need an attention-pooling architecture")
    n_acc = model.n_accel_instances
    indices = np.asarray(indices, dtype=np.int64)
    chunks = [result.attention for _, _, result in predict_chunks(model, dataset, indices)]
    weights = np.concatenate(chunks or [np.empty((0, n_acc))])  # (bags, instances)
    refs = [dataset.refs[i] for i in indices]
    labels = np.array([ref.label for ref in refs], dtype=np.int64)
    names = np.array([dataset.placement_names(ref)[-n_acc:] for ref in refs], dtype=str).reshape(-1, n_acc)
    placements = sorted({p for feat in dataset.features for p in feat.placements}) or list(PLACEMENTS)
    acc_w = weights[:, :n_acc]
    spread = (acc_w - acc_w[:, :1]).std(axis=1)  # about w[0]: equal weights give 0
    pairs = np.column_stack([weights[:, n_acc:].sum(axis=1), acc_w.sum(axis=1)])  # (location, acceleration)
    share = np.divide(acc_w, pairs[:, 1:], out=np.full_like(acc_w, 1.0 / n_acc), where=pairs[:, 1:] > 0)
    shares = np.zeros((len(placements), len(refs)))  # per placement, summed over a bag's windows in order
    for k in range(n_acc):  # the windows the model saw
        shares += np.where(names[:, k] == np.array(placements)[:, None], share[:, k], 0.0)
    table_std = np.full(N_MODES, np.nan)
    table_modality = np.full((N_MODES, 2), np.nan)
    table_placement = np.full((N_MODES, len(placements)), np.nan)
    for c in np.unique(labels):
        rows = labels == c
        table_std[c] = spread[rows].mean()
        table_placement[c] = [placement[rows].mean() for placement in shares]
        if model.uses_loc:
            table_modality[c] = pairs[rows].mean(axis=0)
    return {
        "modes": list(MODES),
        "weight_std": table_std,
        "modality": table_modality,  # columns: (location, acceleration)
        "placements": placements,
        "placement": table_placement,
    }
