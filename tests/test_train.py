"""Training loop, early stopping, pre-training protocol, metrics."""

import json
import re
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from modemil import load_config
from modemil.bags import build_bags, build_windows, preprocess_session
from modemil.metrics import auc, classification_metrics, confusion_matrix, roc_curve
from modemil.model import TransportModeClassifier
from modemil.nn import Adam, NonFiniteGradient, Tensor, cce_loss, no_grad
from modemil.splits import loso_folds, split_bags
from modemil.synth import SynthConfig, synth_generate
from modemil.train import (
    TrainConfig,
    TrainingDiverged,
    _model_inputs,
    _validate,
    predict_dataset,
    run_pretraining,
    run_training,
    train_model,
)


@pytest.fixture(scope="module")
def toy():
    """Two cleanly separable modes, two users, one placement."""
    cfg = SynthConfig(
        modes=("still", "run"),
        placements=("Hips",),
        n_users=2,
        sessions_per_user=1,
        minutes_per_session=240,
        dwell_mean_minutes=18.0,
    )
    sessions = synth_generate(cfg, np.random.default_rng(21))
    feats = [preprocess_session(s) for s in sessions]
    bags = build_bags(feats)
    fold = loso_folds(feats, seed=0)[0]
    train_idx, val_idx, test_idx = split_bags(bags, fold)
    labels = np.array([r.label for r in bags.refs])
    assert len(set(labels[train_idx])) == 2 and len(set(labels[val_idx])) == 2
    return feats, bags, fold, train_idx, val_idx, test_idx


class TestTrainLoop:
    def test_zero_epoch_budget_leaves_model_untouched(self, toy):
        _, bags, _, train_idx, val_idx, _ = toy
        model = TransportModeClassifier("fusion_mil", seed=1)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        history = train_model(model, bags, train_idx, val_idx, TrainConfig(max_epochs=0, seed=1))
        assert history.epochs == 0 and history.best_epoch == -1
        after = model.state_dict()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value)

    def test_same_seed_gives_bit_identical_curves(self, toy):
        _, bags, _, train_idx, val_idx, _ = toy
        config = TrainConfig(arch="fusion_mil", lr=1e-3, max_epochs=2, seed=7, augment=True)
        _, h1 = run_training(config, bags, train_idx, val_idx)
        _, h2 = run_training(config, bags, train_idx, val_idx)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss

    def test_a_step_does_not_hold_the_last_steps_graph(self, toy):
        # train_model's loop keeps result and loss bound into the next step; backward
        # released their graph, so two steps peak about as high as one
        _, bags, _, train_idx, _, _ = toy
        model = TransportModeClassifier("fusion_mil", seed=4)
        optimizer = Adam(dict(model.named_parameters()), lr=1e-3)
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            peaks = []
            for chunk in (train_idx[:8], train_idx[8:16]):
                batch = bags.batch(chunk)
                result = model.forward(**_model_inputs(model, batch), training=True, rng=rng)
                loss = cce_loss(result.probs, batch["labels"])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.3 * peaks[0], peaks

    def test_separable_toy_reaches_high_accuracy_quickly(self, toy):
        _, bags, _, train_idx, val_idx, _ = toy
        config = TrainConfig(arch="fusion_mil", lr=1e-3, max_epochs=10, patience=10, seed=3, augment=False)
        model = TransportModeClassifier("fusion_mil", seed=3)
        history = train_model(model, bags, train_idx, val_idx, config)
        assert max(history.val_accuracy) >= 0.99
        assert history.epochs <= 10

    def test_restores_best_validation_weights(self, toy):
        _, bags, _, train_idx, val_idx, _ = toy
        config = TrainConfig(arch="loc_lstm", lr=1e-3, max_epochs=4, patience=2, seed=5, augment=False)
        model, history = run_training(config, bags, train_idx, val_idx)
        val_loss, _ = _validate(model, bags, val_idx, batch_size=128)
        assert val_loss == pytest.approx(min(history.val_loss), abs=1e-9)

    def test_nan_parameters_abort_with_diagnostic(self, toy):
        _, bags, _, train_idx, val_idx, _ = toy
        model = TransportModeClassifier("loc_lstm", seed=0)
        # a poisoned encoder weight contaminates every class probability
        model.loc_encoder.fc1.weight.data[0, 0] = np.nan
        with pytest.raises(TrainingDiverged):
            train_model(model, bags, train_idx, val_idx, TrainConfig(arch="loc_lstm", max_epochs=1, seed=0))

    def test_nonfinite_gradient_names_the_parameter(self, toy, monkeypatch):
        _, bags, _, train_idx, val_idx, _ = toy
        model = TransportModeClassifier("loc_lstm", seed=0)
        backward = Tensor.backward

        def poisoned(self, grad=None):  # the loss stays finite, one gradient entry does not
            backward(self, grad)
            model.loc_encoder.fc2.bias.grad[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
        with pytest.raises(NonFiniteGradient, match=r"in loc_encoder\.fc2\.bias \(shape \(256,\)\)"):
            train_model(model, bags, train_idx, val_idx, TrainConfig(arch="loc_lstm", max_epochs=1, seed=0))

    def test_empty_sides_are_rejected(self, toy):
        _, bags, _, train_idx, _, _ = toy
        model = TransportModeClassifier("loc_lstm", seed=0)
        with pytest.raises(ValueError):
            train_model(model, bags, train_idx, np.array([], dtype=np.int64), TrainConfig(max_epochs=1))
        with pytest.raises(ValueError, match="at least 2 training bags"):
            train_model(model, bags, train_idx[:1], train_idx[1:], TrainConfig(max_epochs=1))

    def test_stop_accuracy_cuts_training_short(self, toy):
        _, bags, _, train_idx, val_idx, _ = toy
        config = TrainConfig(arch="fusion_mil", lr=1e-3, max_epochs=10, seed=3, augment=False, stop_accuracy=0.9)
        _, history = run_training(config, bags, train_idx, val_idx)
        assert history.epochs < 10

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(pretrain="everything")
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        for bad in (
            {"arch": "nope"},
            {"n_accel_instances": 0},
            {"n_accel_instances": 13},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"lr": -1.0},
            {"lr": 0.0},
            {"lr": float("nan")},
            {"batch_size": 1},
            {"max_epochs": -1},
            {"lr": "0.001"},
            {"batch_size": "32"},
            {"augment": "no"},
            {"stop_accuracy": "0.9"},
            {"max_epochs": 2.5},
            {"seed": True},
            {"dropout": None},
        ):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)
        with pytest.raises(ValueError, match="unknown TrainConfig keys: max_epoch, seeed"):
            load_config(TrainConfig, {"seeed": 1, "max_epoch": 3, "lr": 0.001})
        # the ends of the dropout and window-count ranges are valid
        assert TrainConfig(dropout=0.0, n_accel_instances=12).n_accel_instances == 12

    def test_config_json_round_trip(self):
        config = TrainConfig(arch="acc_mil", lr=2e-4, stop_accuracy=0.9)
        assert load_config(TrainConfig, json.loads(json.dumps(asdict(config)))) == config

    def test_readme_train_json_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        config = load_config(TrainConfig, json.loads(example))
        assert (config.arch, config.pretrain) == ("fusion_mil", "accel")

    def test_instance_count_sweep_trains(self, toy):
        # the duration-ablation knob: two windows per bag instead of three
        _, bags, _, train_idx, val_idx, _ = toy
        config = TrainConfig(arch="acc_mil", lr=1e-3, max_epochs=1, seed=4, augment=False, n_accel_instances=2)
        model, history = run_training(config, bags, train_idx, val_idx)
        assert model.n_accel_instances == 2
        assert history.epochs == 1


class TestPretraining:
    def test_frozen_encoder_parameters_do_not_move(self, toy):
        feats, _, fold, _, _, _ = toy
        config = TrainConfig(
            arch="fusion_mil", lr=1e-3, max_epochs=1, seed=9, augment=False, pretrain="accel"
        )
        model, histories = run_pretraining(config, feats, fold)
        assert "accel" in histories and "fused" in histories
        assert model.accel_encoder.frozen

        # stage-2 training must not have touched the pre-trained weights:
        # retrain stage 1 alone with the same seed and compare.
        windows = build_windows(feats)
        tr, va, _ = split_bags(windows, fold, span_minutes=1)
        from modemil.train import _stage_config

        stage1, _ = run_training(_stage_config(config, arch="acc_cnn"), windows, tr, va)
        for (name, after), (_, expected) in zip(
            sorted(model.accel_encoder.named_tensors()), sorted(stage1.accel_encoder.named_tensors())
        ):
            np.testing.assert_array_equal(after, expected, err_msg=name)

    def test_stage_one_uses_every_placement_window(self, toy):
        feats, _, _, _, _, _ = toy
        windows = build_windows(feats)
        per_placement = sum(int((f.labels >= 0).sum()) for f in feats)
        assert len(windows) == per_placement * len(feats[0].placements)

    def test_pretrain_none_is_rejected(self, toy):
        feats, _, fold, _, _, _ = toy
        with pytest.raises(ValueError):
            run_pretraining(TrainConfig(pretrain="none"), feats, fold)


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        m = classification_metrics(y, y)
        assert m.accuracy == 1.0 and m.macro_f1 == 1.0
        assert m.macro_precision == 1.0 and m.macro_recall == 1.0

    def test_constant_prediction_on_balanced_labels(self):
        y_true = np.repeat(np.arange(8), 10)
        y_pred = np.zeros_like(y_true)
        m = classification_metrics(y_true, y_pred)
        assert m.accuracy == pytest.approx(1.0 / 8.0)
        expected_macro_f1 = (2.0 * (1.0 / 8.0) / (1.0 + 1.0 / 8.0)) / 8.0
        assert m.macro_f1 == pytest.approx(expected_macro_f1)

    def test_three_class_confusion_oracle(self):
        y_true = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        y_pred = np.array([0, 1, 0, 1, 2, 2, 2, 0, 2])
        m = classification_metrics(y_true, y_pred, n_classes=3)
        expected_confusion = np.array([[2, 1, 0], [0, 1, 1], [1, 0, 3]])
        np.testing.assert_array_equal(m.confusion, expected_confusion)
        # manual per-class F1
        p = np.array([2 / 3, 1 / 2, 3 / 4])
        r = np.array([2 / 3, 1 / 2, 3 / 4])
        np.testing.assert_allclose(m.per_class_f1, 2 * p * r / (p + r))

    def test_absent_class_flagged_with_zero_f1(self):
        m = classification_metrics([0, 0, 1], [0, 0, 1], n_classes=4)
        assert set(m.absent_classes) == {2, 3}
        assert m.per_class_f1[2] == 0.0

    def test_macro_f1_invariant_under_relabeling(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 8, 500)
        y_pred = rng.integers(0, 8, 500)
        base = classification_metrics(y_true, y_pred).macro_f1
        perm = rng.permutation(8)
        permuted = classification_metrics(perm[y_true], perm[y_pred]).macro_f1
        assert base == pytest.approx(permuted)

    def test_misaligned_inputs_raise(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])

    def test_roc_and_auc(self):
        scores = np.array([0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
        positive = np.array([True, True, True, False, False, False])
        fpr, tpr, thresholds = roc_curve(positive, scores)
        assert auc(fpr, tpr) == pytest.approx(1.0)
        assert fpr[0] == 0.0 and tpr[-1] == 1.0
        shuffled = roc_curve(positive[::-1], scores[::-1])
        assert auc(shuffled[0], shuffled[1]) == pytest.approx(1.0)

    def test_roc_random_scores_auc_near_half(self):
        rng = np.random.default_rng(1)
        positive = rng.random(4000) < 0.5
        scores = rng.random(4000)
        fpr, tpr, _ = roc_curve(positive, scores)
        assert abs(auc(fpr, tpr) - 0.5) < 0.05

    def test_roc_needs_both_classes(self):
        with pytest.raises(ValueError):
            roc_curve(np.array([True, True]), np.array([0.1, 0.2]))


def _validate_reference(model, dataset, indices, batch_size):
    """The validation loop before it ran on ``predict_dataset``: a forward pass
    under ``no_grad`` and ``cce_loss`` per chunk."""
    losses = []
    correct = 0
    for lo in range(0, len(indices), batch_size):
        chunk = indices[lo : lo + batch_size]
        batch = dataset.batch(chunk)
        with no_grad():
            result = model.forward(**_model_inputs(model, batch), training=False)
            loss = cce_loss(result.probs, batch["labels"])
        losses.append(float(loss.data) * len(chunk))
        correct += int((result.predictions == batch["labels"]).sum())
    return sum(losses) / len(indices), correct / len(indices)


@pytest.mark.parametrize("chunking", ["one_bag_last_chunk", "one_full_chunk"])
def test_validate_matches_chunked_forward_reference(toy, chunking):
    _, bags, _, train_idx, val_idx, _ = toy
    config = TrainConfig(arch="fusion_mil", lr=1e-3, max_epochs=1, seed=6, augment=False)
    model, _ = run_training(config, bags, train_idx, val_idx)
    batch_size = len(val_idx) - 1 if chunking == "one_bag_last_chunk" else len(val_idx)
    assert len(val_idx) > 2
    assert _validate(model, bags, val_idx, batch_size) == _validate_reference(model, bags, val_idx, batch_size)


def test_predict_dataset_matches_forward(toy):
    _, bags, _, train_idx, _, _ = toy
    model = TransportModeClassifier("fusion_mil", seed=2)
    idx = train_idx[:5]
    probs, labels = predict_dataset(model, bags, idx)
    batch = bags.batch(idx)
    direct = model.predict(acc=batch["acc"], loc_seq=batch["loc_seq"], loc_scalars=batch["loc_scalars"])
    np.testing.assert_allclose(probs, direct.probs.data, atol=1e-12)
    np.testing.assert_array_equal(labels, batch["labels"])
