"""End-to-end command-line pipeline on a miniature synthetic dataset."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from modemil import MODES
from modemil.bags import load_features, save_features
from modemil.cli import main
from modemil.model import ARCHITECTURES, WIRING
from modemil.nn import load_arrays, save_arrays
from modemil.train import TrainConfig, build_model


WALK = {"accel_freq": 2.0, "accel_amp": 2.0, "accel_noise": 0.3, "speed_range": [1.2, 1.6]}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> preprocess -> train, shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = {
        "modes": ["still", "run"],
        "placements": ["Hips"],
        "n_users": 2,
        "sessions_per_user": 1,
        "minutes_per_session": 160,
        "dwell_mean_minutes": 18.0,
    }
    (root / "synth.json").write_text(json.dumps(synth_cfg))
    assert main(["synth", "--config", str(root / "synth.json"), "--seed", "3", "--out", str(root / "sessions.npz")]) == 0
    assert main(["preprocess", "--sessions", str(root / "sessions.npz"), "--out", str(root / "features.npz")]) == 0

    train_cfg = {"arch": "fusion_mil", "lr": 1e-3, "max_epochs": 2, "patience": 5, "seed": 1, "augment": False}
    (root / "train.json").write_text(json.dumps(train_cfg))
    code = main(
        [
            "train",
            "--features",
            str(root / "features.npz"),
            "--config",
            str(root / "train.json"),
            "--out",
            str(root / "run"),
        ]
    )
    assert code == 0
    return root


def test_synth_writes_sessions_and_manifest(pipeline):
    assert (pipeline / "sessions.npz").exists()
    manifest = json.loads((pipeline / "manifest.json").read_text())
    assert manifest["command"] in ("synth", "preprocess", "train")  # last writer wins in shared dir
    assert "versions" in manifest and "numpy" in manifest["versions"]


def test_train_outputs(pipeline):
    run = pipeline / "run"
    assert (run / "checkpoint.npz").exists()
    history = json.loads((run / "history.json").read_text())
    assert len(history["train_loss"]) == 2
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["seed"] == 1



def test_checkpoint_round_trip_keeps_model_config(pipeline):
    from modemil.bags import build_bags, load_features
    from modemil.cli import _load_model
    from modemil.splits import loso_folds, split_bags
    from modemil.train import TrainConfig, predict_dataset, run_training

    train_cfg = {"lr": 1e-3, "max_epochs": 1, "seed": 2, "augment": False, "n_accel_instances": 2, "dropout": 0.1}
    (pipeline / "train_two.json").write_text(json.dumps(train_cfg))
    args = ["train", "--features", str(pipeline / "features.npz"), "--config", str(pipeline / "train_two.json")]
    assert main(args + ["--out", str(pipeline / "run_two")]) == 0
    model, _ = _load_model(pipeline / "run_two" / "checkpoint.npz")
    assert model.n_accel_instances == 2
    assert model.accel_encoder.drop1.rate == 0.1

    # Training is deterministic, so the same run in process is the saved model.
    features = load_features(pipeline / "features.npz")
    config = TrainConfig(**train_cfg)
    dataset = build_bags(features)
    train_idx, val_idx, test_idx = split_bags(dataset, loso_folds(features, seed=config.seed)[0])
    trained, _ = run_training(config, dataset, train_idx, val_idx)
    expected, _ = predict_dataset(trained, dataset, test_idx)
    probs, _ = predict_dataset(model, dataset, test_idx)
    assert np.array_equal(probs, expected)


def test_four_instance_model_trains_evaluates_and_reports(pipeline):
    # Bags are built with the configured window count, not the default 3.
    train_cfg = {"lr": 1e-3, "max_epochs": 1, "seed": 2, "augment": False, "n_accel_instances": 4}
    (pipeline / "train_four.json").write_text(json.dumps(train_cfg))
    features = ["--features", str(pipeline / "features.npz")]
    run = pipeline / "run_four"
    assert main(["train", *features, "--config", str(pipeline / "train_four.json"), "--out", str(run)]) == 0
    model = str(run / "checkpoint.npz")
    assert main(["evaluate", *features, "--model", model]) == 0
    assert json.loads((run / "metrics.json").read_text())["hmm"]["accuracy"] >= 0.0
    assert main(["report", "--run", str(run), *features, "--model", model]) == 0
    assert (run / "report" / "attention.json").exists()


def test_mistyped_config_key_is_named(pipeline, capsys):
    (pipeline / "typo.json").write_text(json.dumps({"lr": 1e-3, "max_epoch": 1}))
    args = ["train", "--features", str(pipeline / "features.npz"), "--config", str(pipeline / "typo.json")]
    assert main(args + ["--out", str(pipeline / "run_typo")]) == 1
    assert "unknown TrainConfig keys: max_epoch" in capsys.readouterr().err

    # so does a value of the wrong type
    (pipeline / "typed.json").write_text(json.dumps({"lr": 1e-3, "batch_size": "32"}))
    args = ["train", "--features", str(pipeline / "features.npz"), "--config", str(pipeline / "typed.json")]
    assert main(args + ["--out", str(pipeline / "run_typed")]) == 1
    assert "batch_size must be int, got '32'" in capsys.readouterr().err

    # a checkpoint's config goes through the same check
    checkpoint = pipeline / "typo_checkpoint.npz"
    save_arrays(checkpoint, {}, meta={"kind": "model", "config": {"arch": "fusion_mil", "dropout_rate": 0.1}})
    assert main(["evaluate", "--features", str(pipeline / "features.npz"), "--model", str(checkpoint)]) == 1
    assert "unknown TrainConfig keys: dropout_rate" in capsys.readouterr().err


def _evaluate_bad_checkpoint(pipeline, capsys, data: bytes):
    bad = pipeline / "bad_checkpoint.npz"
    bad.write_bytes(data)
    assert main(["evaluate", "--features", str(pipeline / "features.npz"), "--model", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_truncated_checkpoint_names_its_file(pipeline, capsys):
    data = (pipeline / "run" / "checkpoint.npz").read_bytes()
    _evaluate_bad_checkpoint(pipeline, capsys, data[: len(data) // 2])


def test_non_archive_checkpoint_names_its_file(pipeline, capsys):
    _evaluate_bad_checkpoint(pipeline, capsys, b"not an archive\n")


def test_checkpoint_with_conv_biases_names_its_file(pipeline, capsys):
    # Checkpoints written while the convs held a bias no longer load: the error names the
    # file and the keys the model does not have.
    arrays, meta = load_arrays(pipeline / "run" / "checkpoint.npz")
    for conv, channels in (("conv1", 16), ("conv2", 32), ("conv3", 64)):
        arrays[f"accel_encoder.{conv}.bias"] = np.zeros(channels)
    old = pipeline / "old_checkpoint.npz"
    save_arrays(old, arrays, meta=meta)
    assert main(["evaluate", "--features", str(pipeline / "features.npz"), "--model", str(old)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {old}: state mismatch: missing=[], unexpected=[")
    assert "accel_encoder.conv1.bias" in err


def _one_error_line(capsys, argv, message):
    """``modemil argv`` exits 1 printing ``error: message`` and nothing else (no traceback)."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_feature_cache_missing_an_array_names_file_and_array(pipeline, capsys):
    arrays, meta = load_arrays(pipeline / "features.npz")
    del arrays["s0/loc_avail"]
    broken = pipeline / "features_without_avail.npz"
    save_arrays(broken, arrays, meta=meta)
    args = ["train", "--features", str(broken), "--out", str(pipeline / "run_broken")]
    _one_error_line(capsys, args, f"{broken}: missing array 's0/loc_avail'")
    assert not (pipeline / "run_broken").exists()


def test_feature_cache_session_without_a_field_names_file_and_field(pipeline, capsys):
    arrays, meta = load_arrays(pipeline / "features.npz")
    del meta["sessions"][0]["user"]
    broken = pipeline / "features_without_user.npz"
    save_arrays(broken, arrays, meta=meta)
    args = ["train", "--features", str(broken), "--out", str(pipeline / "run_userless")]
    _one_error_line(capsys, args, f"{broken}: missing sessions[0] field 'user'")
    assert not (pipeline / "run_userless").exists()


def test_checkpoint_without_config_names_file_and_field(pipeline, capsys):
    arrays, meta = load_arrays(pipeline / "run" / "checkpoint.npz")
    del meta["config"]
    checkpoint = pipeline / "configless_checkpoint.npz"
    save_arrays(checkpoint, arrays, meta=meta)
    args = ["evaluate", "--features", str(pipeline / "features.npz"), "--model", str(checkpoint)]
    _one_error_line(capsys, args, f"{checkpoint}: missing metadata field 'config'")


def test_checkpoint_config_without_newer_fields_reads_their_defaults(pipeline, capsys):
    arrays, meta = load_arrays(pipeline / "run" / "checkpoint.npz")
    config = {key: meta["config"][key] for key in ("arch", "seed")}
    checkpoint = pipeline / "partial_checkpoint.npz"
    save_arrays(checkpoint, arrays, meta={**meta, "config": config})
    out = pipeline / "eval_partial"
    args = ["evaluate", "--features", str(pipeline / "features.npz"), "--model", str(checkpoint), "--out", str(out)]
    assert main(args) == 0
    assert json.loads((out / "manifest.json").read_text())["config"] == asdict(TrainConfig(**config))


def test_report_rejects_an_archive_of_another_kind(pipeline, capsys):
    run = pipeline / "run_of_features"
    run.mkdir()
    (run / "predictions.npz").write_bytes((pipeline / "features.npz").read_bytes())
    _one_error_line(capsys, ["report", "--run", str(run)], f"{run / 'predictions.npz'}: not a predictions archive")


@pytest.mark.parametrize(
    "config, message",
    [
        ({"n_user": 2}, "unknown SynthConfig keys: n_user"),
        ({"modes": ["still", "plane"]}, f"unknown modes ['plane']; choose from {MODES}"),
        ({"n_users": "2"}, "n_users must be int, got '2'"),
        ({"placements": "Hips"}, "placements must be tuple[str, ...], got 'Hips'"),
        ({"placements": ["Hips", 3]}, "placements must be tuple[str, ...], got ('Hips', 3)"),
        ({"templates": {"plane": WALK}}, f"unknown templates ['plane']; choose from {MODES}"),
        (
            {"modes": ["still"], "templates": {"walk": WALK}},
            "unused templates ['walk']: their modes are not in modes ('still',)",
        ),
        (
            {"templates": {"walk": {**WALK, "speed_range": [1, "x"]}}},
            "templates.walk: speed_range must be tuple[float, float], got (1, 'x')",
        ),
        (
            {"templates": {"walk": {**WALK, "speed_range": [1, 2, 3]}}},
            "templates.walk: speed_range must be tuple[float, float], got (1, 2, 3)",
        ),
        (
            {"templates": {"walk": {k: v for k, v in WALK.items() if k != "speed_range"}}},
            "templates.walk: missing ModeTemplate keys: speed_range",
        ),
        ({"templates": {"walk": 3}}, "templates.walk: ModeTemplate must be a JSON object, got 3"),
        ([1], "SynthConfig must be a JSON object, got [1]"),
        ({"modes": "still"}, "modes must be tuple[str, ...], got 'still'"),
        ({"modes": []}, "modes must not be empty"),
        ({"templates": {"walk": {**WALK, "accel_freq": "2"}}}, "templates.walk: accel_freq must be float, got '2'"),
        ({"n_users": 0}, "n_users must be >= 1"),
        ({"sessions_per_user": -1}, "sessions_per_user must be >= 1"),
        ({"minutes_per_session": 0}, "minutes_per_session must be >= 1"),
        ({"dwell_mean_minutes": 0.5}, "dwell_mean_minutes must be >= 1"),
        ({"dwell_mean_minutes": float("nan")}, "dwell_mean_minutes must be >= 1"),  # NaN fails each range
        ({"gap_mean_minutes": 0}, "gap_mean_minutes must be >= 1"),
        ({"gap_mean_minutes": -1}, "gap_mean_minutes must be >= 1"),
        ({"corruption_rate": 2.0}, "corruption_rate must lie in [0, 1]"),
        ({"corruption_rate": -0.1}, "corruption_rate must lie in [0, 1]"),
        ({"corruption_rate": float("nan")}, "corruption_rate must lie in [0, 1]"),
        ({"loc_availability": 1.5}, "loc_availability must lie in [0, 1]"),
    ],
)
def test_synth_config_errors_name_the_file(tmp_path, capsys, config, message):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(config))
    args = ["synth", "--config", str(path), "--out", str(tmp_path / "sessions.npz")]
    _one_error_line(capsys, args, f"{path}: {message}")
    assert not (tmp_path / "sessions.npz").exists()


def test_gradcheck_compares_against_the_verification_limits(monkeypatch, capsys):
    import modemil.verification as verification

    monkeypatch.setattr(verification, "layer_checks", lambda verbose: 3.919e-08)
    monkeypatch.setattr(verification, "full_model_check", lambda verbose: 1.233e-08)
    assert main(["gradcheck"]) == 0
    assert capsys.readouterr().out == "layers max rel err 3.919e-08 (limit 1e-6); model 1.233e-08 (limit 1e-4)\nPASS\n"
    monkeypatch.setattr(verification, "MODEL_LIMIT", 1e-8)
    assert main(["gradcheck"]) == 1
    assert capsys.readouterr().out == "layers max rel err 3.919e-08 (limit 1e-6); model 1.233e-08 (limit 1e-8)\nFAIL\n"


def test_train_config_that_is_no_object_names_the_file(pipeline, capsys):
    path = pipeline / "list_train.json"
    path.write_text(json.dumps([1]))
    args = ["train", "--features", str(pipeline / "features.npz"), "--config", str(path)]
    message = f"{path}: TrainConfig must be a JSON object, got [1]"
    _one_error_line(capsys, args + ["--out", str(pipeline / "run_list")], message)
    assert not (pipeline / "run_list").exists()


def _evaluate_mismatch(capsys, features, model) -> str:
    assert main(["evaluate", "--features", str(features), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: features {features} do not fit checkpoint {model}: ")
    return err


def test_features_without_the_checkpoints_placement_name_both_files(pipeline, capsys):
    # A checkpoint trained on "Hand" bags against a features file that holds "Hips" only.
    arrays, meta = load_arrays(pipeline / "run" / "checkpoint.npz")
    hand = pipeline / "hand_checkpoint.npz"
    save_arrays(hand, arrays, meta={**meta, "placement": "Hand"})
    err = _evaluate_mismatch(capsys, pipeline / "features.npz", hand)
    assert "has placements ('Hips',), not the checkpoint's 'Hand'" in err


def test_features_of_another_spectrogram_shape_name_both_files(pipeline, capsys):
    features = load_features(pipeline / "features.npz")
    for f in features:
        f.spectrograms = f.spectrograms[:, :, :, :40]
    narrow = pipeline / "narrow_features.npz"
    save_features(narrow, features)
    model = pipeline / "run" / "checkpoint.npz"
    err = _evaluate_mismatch(capsys, narrow, model)
    assert "has spectrograms of shape (51, 40, 2), not (51, 51, 2)" in err


def test_missing_placement_is_named(pipeline, capsys):
    # the features file holds "Hips" only
    args = ["train", "--features", str(pipeline / "features.npz"), "--placement", "Hand"]
    assert main(args + ["--out", str(pipeline / "run_hand")]) == 1
    err = capsys.readouterr().err
    assert "no placement 'Hand'" in err and "('Hips',)" in err
    assert not (pipeline / "run_hand").exists()


@pytest.mark.parametrize("pretrain", ["loc", "accel", "both"])
def test_placement_with_pretraining_is_rejected(pipeline, capsys, pretrain):
    # pre-training draws its bags from every placement, so --placement would reach the
    # checkpoint and evaluation but not the training
    path = pipeline / f"train_{pretrain}.json"
    path.write_text(json.dumps({"pretrain": pretrain, "max_epochs": 1}))
    out = pipeline / f"run_{pretrain}_hips"
    args = ["train", "--features", str(pipeline / "features.npz"), "--config", str(path), "--placement", "Hips"]
    _one_error_line(capsys, args + ["--out", str(out)], f"--placement Hips: pretrain {pretrain!r} trains on every placement")
    assert not out.exists()


def test_unknown_test_user_is_a_usage_error(pipeline, capsys):
    args = ["train", "--features", str(pipeline / "features.npz"), "--test-user", "nobody"]
    assert main(args + ["--out", str(pipeline / "run_nobody")]) == 2
    assert "unknown test user 'nobody'" in capsys.readouterr().err
    assert not (pipeline / "run_nobody").exists()


@pytest.mark.parametrize(
    "arch, n_instances",
    [(a, n) for a in ARCHITECTURES for n in ((2, 4) if WIRING[a][0] == "attention" else (3,))],
)
def test_checkpoint_round_trip_per_architecture(tmp_path, arch, n_instances):
    from modemil.cli import _load_model

    config = TrainConfig(arch=arch, n_accel_instances=n_instances, seed=6, dropout=0.2)
    model = build_model(config)
    rng = np.random.default_rng(1)
    state = {name: array + rng.normal(scale=0.05, size=array.shape) for name, array in model.state_dict().items()}
    model.load_state_dict(state)  # weights and running statistics no fresh model has
    # the metadata ``modemil train`` writes beside the tensors
    meta = {
        "kind": "model",
        "arch": model.arch,
        "seed": model.seed,
        "test_user": "u0",
        "placement": None,
        "config": asdict(config),
    }
    save_arrays(tmp_path / "checkpoint.npz", dict(model.named_tensors()), meta=meta)
    loaded, loaded_meta = _load_model(tmp_path / "checkpoint.npz")
    assert loaded_meta == meta
    assert (loaded.arch, loaded.n_accel_instances) == (arch, model.n_accel_instances)
    assert not loaded.uses_accel or loaded.accel_encoder.drop1.rate == 0.2

    inputs = {
        "acc": rng.normal(size=(5, model.n_accel_instances, 51, 51, 2)) if model.uses_accel else None,
        "loc_seq": rng.normal(size=(5, 10, 2)) if model.uses_loc else None,
        "loc_scalars": rng.normal(size=(5, 5)) if model.uses_loc else None,
    }
    expected = model.predict(**inputs).probs.data
    assert loaded.predict(**inputs).probs.data.tobytes() == expected.tobytes()
    assert build_model(config).predict(**inputs).probs.data.tobytes() != expected.tobytes()


def test_evaluate_with_and_without_hmm(pipeline, capsys):
    run = pipeline / "run"
    args = ["evaluate", "--features", str(pipeline / "features.npz"), "--model", str(run / "checkpoint.npz")]
    assert main(args + ["--no-hmm"]) == 0
    out_no_hmm = capsys.readouterr().out
    assert "[no-hmm]" in out_no_hmm and "[hmm]" not in out_no_hmm

    assert main(args + ["--hmm", "--out", str(run)]) == 0
    out_hmm = capsys.readouterr().out
    assert "[no-hmm]" in out_hmm and "[hmm]" in out_hmm
    metrics = json.loads((run / "metrics.json").read_text())
    assert "no_hmm" in metrics and "hmm" in metrics
    assert 0.0 <= metrics["hmm"]["accuracy"] <= 1.0
    assert (run / "transitions.txt").exists()
    assert (run / "predictions.npz").exists()


def test_smooth_command(pipeline, capsys):
    run = pipeline / "run"
    out = run / "smoothed.npz"
    code = main(
        [
            "smooth",
            "--predictions",
            str(run / "predictions.npz"),
            "--transitions",
            str(run / "transitions.txt"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    arrays, _ = load_arrays(out)
    assert "smoothed" in arrays
    assert arrays["smoothed"].shape == arrays["labels"].shape
    assert set(np.unique(arrays["smoothed"])) <= set(range(8))


def test_report_emits_plot_data(pipeline):
    run = pipeline / "run"
    out = run / "report"
    code = main(
        [
            "report",
            "--run",
            str(run),
            "--features",
            str(pipeline / "features.npz"),
            "--model",
            str(run / "checkpoint.npz"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    confusion = np.loadtxt(out / "confusion.txt")
    assert confusion.shape == (8, 8)
    roc_files = list(out.glob("roc_*.txt"))
    assert roc_files, "per-class ROC point files expected"
    points = np.loadtxt(roc_files[0])
    assert points.shape[1] == 3  # fpr, tpr, threshold
    assert "attention" in (out / "summary.txt").read_text()
    assert (out / "attention.json").exists()


def test_unknown_command_fails():
    assert main(["frobnicate"]) != 0


def test_missing_input_reports_error(tmp_path, capsys):
    code = main(["preprocess", "--sessions", str(tmp_path / "missing.npz"), "--out", str(tmp_path / "x.npz")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_ingest_requires_root(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MODEMIL_DATA", raising=False)
    assert main(["ingest", "--out", str(tmp_path / "s.npz")]) == 2


def test_ingest_from_fabricated_tree(tmp_path):
    from test_data import write_shl_tree

    write_shl_tree(tmp_path / "data", users=("User1",), minutes=1)
    code = main(["ingest", "--root", str(tmp_path / "data"), "--out", str(tmp_path / "sessions.npz")])
    assert code == 0
    assert (tmp_path / "sessions.npz").exists()
