"""Experiment harness: placement studies, smoothing wiring, attention tables."""

import numpy as np
import pytest

from modemil import MODES, N_MODES
from modemil.bags import BagDataset, build_bags, mixed_streams, preprocess_session
from modemil.experiments import (
    EXPERIMENT_KINDS,
    attention_report,
    dev_label_sequences,
    run_experiment,
    smooth_test_predictions,
)
from modemil.hmm import estimate_transitions
from modemil.model import ForwardResult, TransportModeClassifier
from modemil.nn import Tensor
from modemil.synth import ModeTemplate, SynthConfig, synth_generate
from modemil.train import TrainConfig, predict_chunks


@pytest.fixture(scope="module")
def tiny_features():
    cfg = SynthConfig(
        modes=("still", "run"),
        placements=("Hips", "Torso"),
        n_users=2,
        sessions_per_user=1,
        minutes_per_session=120,
        dwell_mean_minutes=18.0,
    )
    sessions = synth_generate(cfg, np.random.default_rng(31))
    return [preprocess_session(s) for s in sessions]


def quick_config(**overrides):
    base = dict(arch="fusion_mil", lr=1e-3, max_epochs=1, patience=3, seed=0, augment=False)
    base.update(overrides)
    return TrainConfig(**base)


class TestRunExperiment:
    def test_all_placements_reports_per_placement(self, tiny_features):
        report = run_experiment("all-placements", tiny_features, quick_config(), n_runs=1)
        placements = {fold.placement for fold in report.folds}
        assert placements == {"Hips", "Torso"}
        assert len(report.folds) == 2 * 2  # two folds x two placements
        summary = report.aggregate()
        for key in ("pre_accuracy_mean", "post_accuracy_mean", "pre_macro_f1_mean", "post_macro_f1_mean"):
            assert 0.0 <= summary[key] <= 1.0
        assert set(report.per_placement()) == {"Hips", "Torso"}
        assert report.roc_points, "per-class ROC points expected"
        for table in report.roc_points.values():
            assert table.shape[1] == 3

    def test_per_placement_trains_one_model_each(self, tiny_features):
        report = run_experiment("per-placement", tiny_features, quick_config(arch="acc_cnn"), n_runs=1)
        assert len(report.folds) == 4  # two folds x two placements
        assert all(f.history.epochs == 1 for f in report.folds)

    def test_mixed_collects_attention_tables(self, tiny_features):
        report = run_experiment(
            "mixed-one", tiny_features, quick_config(), n_runs=1, collect_attention=True
        )
        assert all(fold.placement == "mixed" for fold in report.folds)
        assert report.attention is not None
        assert report.attention["placement"].shape == (8, 2)

    def test_unknown_kind_rejected(self, tiny_features):
        with pytest.raises(ValueError):
            run_experiment("sideways", tiny_features, quick_config())

    def test_kinds_registry(self):
        assert EXPERIMENT_KINDS == ("per-placement", "all-placements", "mixed-one", "mixed-multiple")


class TestSmoothing:
    def test_sessions_decode_independently(self, tiny_features):
        bags = build_bags(tiny_features, placement="Hips")
        indices = np.arange(len(bags))
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.01, 1.0, size=(len(bags), 8))
        transitions = estimate_transitions([f.labels[f.labels >= 0] for f in tiny_features])
        joint = smooth_test_predictions(bags, indices, probs, transitions)

        by_session = {}
        for pos, i in enumerate(indices):
            by_session.setdefault(bags.refs[i].session, []).append(pos)
        for positions in by_session.values():
            alone = smooth_test_predictions(
                BagDataset(tiny_features, [bags.refs[indices[p]] for p in positions]),
                np.arange(len(positions)),
                probs[positions],
                transitions,
            )
            np.testing.assert_array_equal(joint[positions], alone)

    def test_smoothing_preserves_length_and_alphabet(self, tiny_features):
        bags = build_bags(tiny_features, placement="Hips")
        indices = np.arange(len(bags))
        probs = np.random.default_rng(1).uniform(0.01, 1.0, size=(len(bags), 8))
        transitions = np.full((8, 8), 1.0 / 8.0)
        smoothed = smooth_test_predictions(bags, indices, probs, transitions)
        assert smoothed.shape == (len(bags),)
        assert set(np.unique(smoothed)) <= set(range(8))

    def test_dev_sequences_exclude_test_user(self, tiny_features):
        sequences = dev_label_sequences(tiny_features, "user1")
        assert len(sequences) == 1  # only user2's session remains

    def test_mixed_bags_decode_as_whole_streams(self, tiny_features):
        # every virtual stream is one decode group per session, so sticky
        # transitions actually smooth across the placement hops
        mixed = mixed_streams(tiny_features, n_streams=2, rng=np.random.default_rng(6), dwell_mean=2.0)
        keys = {(ref.session, ref.stream) for ref in mixed.refs}
        assert len(keys) == len(tiny_features) * 2

        indices = np.arange(len(mixed))
        rng = np.random.default_rng(7)
        probs = np.full((len(mixed), 8), 0.1 / 7.0)
        noisy = np.where(rng.random(len(mixed)) < 0.3, rng.integers(0, 8, len(mixed)), 2)
        probs[np.arange(len(mixed)), noisy] = 0.9
        sticky = np.full((8, 8), 0.05 / 7.0)
        np.fill_diagonal(sticky, 0.95)
        smoothed = smooth_test_predictions(mixed, indices, probs, sticky)
        assert (smoothed != probs.argmax(axis=1)).any(), "smoothing had no effect"
        assert (smoothed == 2).mean() > (probs.argmax(axis=1) == 2).mean()


def attention_tables_per_bag(model, dataset, indices):
    """``attention_report``'s tables bag by bag, through per-class lists: the reference its
    matrix form must match byte for byte."""
    n_acc = model.n_accel_instances
    std_acc = {c: [] for c in range(N_MODES)}
    modality = {c: [] for c in range(N_MODES)}
    placement_share = {c: [] for c in range(N_MODES)}
    for span, _, result in predict_chunks(model, dataset, indices):
        for b, i in enumerate(indices[span]):
            ref = dataset.refs[i]
            weights = result.attention[b]
            acc_w = weights[:n_acc]
            std_acc[ref.label].append(float((acc_w - acc_w[0]).std()))
            if model.uses_loc:
                modality[ref.label].append((float(weights[n_acc:].sum()), float(acc_w.sum())))
            share = acc_w / acc_w.sum() if acc_w.sum() > 0 else np.full(n_acc, 1.0 / n_acc)
            row = {}
            for name, w in zip(dataset.placement_names(ref)[-n_acc:], share):
                row[name] = row.get(name, 0.0) + float(w)
            placement_share[ref.label].append(row)
    placements = sorted({p for feat in dataset.features for p in feat.placements})
    table_placement = np.full((N_MODES, len(placements)), np.nan)
    for c in range(N_MODES):
        if placement_share[c]:
            for j, p in enumerate(placements):
                table_placement[c, j] = float(np.mean([row.get(p, 0.0) for row in placement_share[c]]))
    return {
        "modes": list(MODES),
        "weight_std": np.array([np.mean(std_acc[c]) if std_acc[c] else np.nan for c in range(N_MODES)]),
        "modality": np.array([np.mean(modality[c], axis=0) if modality[c] else [np.nan] * 2 for c in range(N_MODES)]),
        "placements": placements,
        "placement": table_placement,
    }


class TestAttentionReport:
    @pytest.mark.parametrize("arch", ["fusion_mil", "acc_mil", "fusion_concat_pp"])
    @pytest.mark.parametrize("bags, n_acc", [("plain", 3), ("5-window", 3), ("mixed", 3), ("mixed", 9)])
    def test_tables_have_the_bytes_of_the_per_bag_reference(self, tiny_features, arch, bags, n_acc):
        dataset = {
            "plain": lambda: build_bags(tiny_features),
            "5-window": lambda: build_bags(tiny_features, n_instances=5),
            "mixed": lambda: mixed_streams(tiny_features, 2, np.random.default_rng(8), 2.0, n_acc),
        }[bags]()
        model = TransportModeClassifier(arch, n_accel_instances=n_acc, seed=9)
        idx = np.unique(np.linspace(0, len(dataset) - 1, 70).astype(np.int64))
        got, expected = attention_report(model, dataset, idx), attention_tables_per_bag(model, dataset, idx)
        assert (got["modes"], got["placements"]) == (expected["modes"], expected["placements"])
        for key in ("weight_std", "modality", "placement"):
            assert got[key].shape == expected[key].shape
            assert got[key].tobytes() == expected[key].tobytes(), key
        assert np.isfinite(got["placement"][[MODES.index("still"), MODES.index("run")]]).all()

    def test_no_bags_give_empty_tables(self, tiny_features):
        tables = attention_report(TransportModeClassifier("fusion_mil", seed=1), build_bags(tiny_features), [])
        for key in ("weight_std", "modality", "placement"):
            assert np.isnan(tables[key]).all()

    def test_identical_instances_have_zero_weight_spread(self):
        # a perfectly constant stream: every window identical, so attention
        # cannot prefer any instance and the within-bag std collapses to 0
        cfg = SynthConfig(
            modes=("still",),
            placements=("Hips",),
            n_users=1,
            sessions_per_user=1,
            minutes_per_session=30,
            templates={"still": ModeTemplate(0.0, 0.0, 0.0, (0.0, 0.0), bearing_wobble=0.0)},
        )
        features = [preprocess_session(s) for s in synth_generate(cfg, np.random.default_rng(2))]
        bags = build_bags(features)
        model = TransportModeClassifier("fusion_mil", seed=1)
        tables = attention_report(model, bags, np.arange(len(bags)))
        assert tables["weight_std"][0] == 0.0

    def test_equal_weights_have_zero_spread(self, tiny_features, monkeypatch):
        # np.std([0.1] * 3) is 1.4e-17, as (0.1 + 0.1 + 0.1) / 3 != 0.1: equal weights
        # must read a spread of exactly 0 whatever their value
        bags = build_bags(tiny_features, placement="Hips")
        model = TransportModeClassifier("acc_mil", seed=0)

        def predict(acc, loc_seq, loc_scalars):
            return ForwardResult(Tensor(np.full((len(acc), 8), 0.125)), attention=np.full((len(acc), 3), 0.1))

        monkeypatch.setattr(model, "predict", predict)
        spread = attention_report(model, bags, np.arange(min(len(bags), 64)))["weight_std"]
        present = ~np.isnan(spread)
        assert present.any()
        assert (spread[present] == 0.0).all()

    def test_modality_weights_sum_to_one(self, tiny_features):
        bags = build_bags(tiny_features, placement="Hips")
        model = TransportModeClassifier("fusion_mil", seed=2)
        tables = attention_report(model, bags, np.arange(min(len(bags), 64)))
        present = ~np.isnan(tables["modality"][:, 0])
        sums = tables["modality"][present].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_placement_shares_cover_mixed_streams(self, tiny_features):
        mixed = mixed_streams(tiny_features, n_streams=1, rng=np.random.default_rng(3), dwell_mean=2.0)
        model = TransportModeClassifier("fusion_mil", seed=3)
        tables = attention_report(model, mixed, np.arange(min(len(mixed), 64)))
        present = ~np.isnan(tables["placement"][:, 0])
        np.testing.assert_allclose(tables["placement"][present].sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("arch", ["acc_mil", "fusion_mil"])
    def test_wider_bags_use_the_most_recent_windows(self, tiny_features, arch):
        # a 3-instance model on 5-window bags sees their 3 most recent windows,
        # as predict_dataset feeds it; the tables equal those of 3-window bags
        model = TransportModeClassifier(arch, n_accel_instances=3, seed=4)
        idx = np.arange(48)
        datasets = [
            (build_bags(tiny_features, n_instances=5), build_bags(tiny_features, n_instances=3)),
            tuple(mixed_streams(tiny_features, 2, np.random.default_rng(5), 2.0, n) for n in (5, 3)),
        ]
        for wide, narrow in datasets:
            got, expected = attention_report(model, wide, idx), attention_report(model, narrow, idx)
            for key in ("weight_std", "modality", "placement"):
                np.testing.assert_array_equal(got[key], expected[key])

    def test_requires_attention_architecture(self, tiny_features):
        bags = build_bags(tiny_features, placement="Hips")
        model = TransportModeClassifier("acc_cnn", seed=0)
        with pytest.raises(ValueError):
            attention_report(model, bags, np.arange(4))
