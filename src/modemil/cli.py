"""Command-line interface.

Subcommands: ingest, synth, preprocess, train, evaluate, smooth, report,
gradcheck. Every command that produces a run directory writes a manifest
(command line, config, seed, package and numpy versions, timestamp) so runs
are reproducible from their outputs alone. Dataset root may also come from
the MODEMIL_DATA environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import MODES, __version__, load_config
from .accel import SPEC_SHAPE
from .bags import build_bags, load_features, load_sessions, preprocess_session, save_features, save_sessions
from .experiments import attention_report, dev_label_sequences, evaluate_split, roc_tables
from .hmm import estimate_transitions, load_transitions, save_transitions, viterbi_streams
from .metrics import classification_metrics
from .model import TransportModeClassifier
from .nn import load_arrays, save_arrays
from .shl import ingest, ingest_report
from .splits import loso_folds, split_bags
from .synth import SynthConfig, synth_generate
from .train import TrainConfig, build_model, train_fold

__all__ = ["main"]


def _write_manifest(out_dir: Path, command: str, argv: list[str], config: dict | None, seed: int | None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "argv": argv,
        "config": config,
        "seed": seed,
        "versions": {"modemil": __version__, "numpy": np.__version__, "python": sys.version.split()[0]},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))


class UnknownTestUser(ValueError):
    """No leave-one-user-out fold holds out the requested user (exit code 2)."""


def _fold(features, seed: int, test_user: str | None):
    """The leave-one-user-out fold that holds out ``test_user`` (by default the first fold's)."""
    folds = loso_folds(features, seed=seed)
    users = [f.test_user for f in folds]
    test_user = test_user or users[0]
    if test_user not in users:
        raise UnknownTestUser(f"unknown test user {test_user!r}; have {users}")
    return folds[users.index(test_user)]


def _load_config(cls, path: str | None):
    """The ``cls`` config a JSON file describes (the defaults without one); an error names the file."""
    if path is None:
        return cls()
    try:
        return load_config(cls, json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_ingest(args, argv) -> int:
    root = args.root or os.environ.get("MODEMIL_DATA")
    if not root:
        print("error: pass --root or set MODEMIL_DATA", file=sys.stderr)
        return 2
    sessions = ingest(root)
    report = ingest_report(sessions)
    save_sessions(args.out, sessions)
    _write_manifest(Path(args.out).parent, "ingest", argv, None, None)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_synth(args, argv) -> int:
    config = _load_config(SynthConfig, args.config)
    sessions = synth_generate(config, np.random.default_rng(args.seed))
    save_sessions(args.out, sessions)
    _write_manifest(Path(args.out).parent, "synth", argv, asdict(config), args.seed)
    print(f"wrote {len(sessions)} sessions to {args.out}")
    return 0


def _cmd_preprocess(args, argv) -> int:
    sessions = load_sessions(args.sessions)
    features = [preprocess_session(s) for s in sessions]
    save_features(args.out, features)
    _write_manifest(Path(args.out).parent, "preprocess", argv, None, None)
    total = sum(f.n_minutes for f in features)
    print(f"cached features for {len(features)} sessions, {total} minutes")
    return 0


def _cmd_train(args, argv) -> int:
    features = load_features(args.features)
    config = _load_config(TrainConfig, args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.placement is not None and config.pretrain != "none":
        raise ValueError(f"--placement {args.placement}: pretrain {config.pretrain!r} trains on every placement")
    out_dir = Path(args.out)
    fold = _fold(features, config.seed, args.test_user)
    dataset = build_bags(features, placement=args.placement, n_instances=config.n_accel_instances)
    model, history = train_fold(config, features, fold, dataset)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_arrays(
        out_dir / "checkpoint.npz",
        dict(model.named_tensors()),
        meta={
            "kind": "model",
            "arch": model.arch,
            "seed": model.seed,
            "test_user": fold.test_user,
            "placement": args.placement,
            "config": asdict(config),
        },
    )
    (out_dir / "history.json").write_text(json.dumps(asdict(history), indent=2))
    _write_manifest(out_dir, "train", argv, asdict(config), config.seed)
    best = history.val_loss[history.best_epoch] if history.epochs else float("nan")
    print(f"trained {model.arch} for {history.epochs} epochs; best val loss {best:.4f}")
    return 0


def _load_model(path) -> tuple[TransportModeClassifier, dict]:
    """A checkpoint's model and metadata; a config or a state that does not fit names the file."""
    arrays, meta = load_arrays(path, "model")
    values = meta["config"]
    try:
        config = load_config(TrainConfig, values)
        model = build_model(config)
        model.load_state_dict(arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    meta["config"] = asdict(config)  # a config that omits fields reads as their defaults
    return model, meta


def _check_fit(features, features_path, model_path, placement: str | None) -> None:
    """A features file the checkpoint cannot read fails naming both files and the field."""
    for f in features:
        if f.spectrograms.shape[2:] != SPEC_SHAPE:
            field = f"session {f.session_id!r} has spectrograms of shape {f.spectrograms.shape[2:]}, not {SPEC_SHAPE}"
        elif placement is not None and placement not in f.placements:
            field = f"session {f.session_id!r} has placements {f.placements}, not the checkpoint's {placement!r}"
        else:
            continue
        raise ValueError(f"features {features_path} do not fit checkpoint {model_path}: {field}")


def _test_split(features, features_path, model_path):
    """A checkpoint's model and metadata, the bags it was trained on, and its held-out user's bag indices."""
    model, meta = _load_model(model_path)
    _check_fit(features, features_path, model_path, meta.get("placement"))
    config = meta["config"]
    fold = _fold(features, config["seed"], meta["test_user"])
    dataset = build_bags(features, placement=meta.get("placement"), n_instances=config["n_accel_instances"])
    _, _, test_idx = split_bags(dataset, fold)
    return model, meta, dataset, test_idx


def _metric_block(name: str, metrics) -> str:
    lines = [f"[{name}]"]
    for key, value in metrics.summary().items():
        lines.append(f"  {key:<16} {value:.4f}")
    return "\n".join(lines)


def _cmd_evaluate(args, argv) -> int:
    features = load_features(args.features)
    model, meta, dataset, test_idx = _test_split(features, args.features, args.model)
    out_dir = Path(args.out) if args.out else Path(args.model).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    transitions = estimate_transitions(dev_label_sequences(features, meta["test_user"]))
    save_transitions(out_dir / "transitions.txt", transitions)
    pre, post, probs, labels = evaluate_split(model, dataset, test_idx, transitions)
    blocks = [_metric_block("no-hmm", pre)]
    payload = {"no_hmm": pre.summary()}
    if args.hmm:
        blocks.append(_metric_block("hmm", post))
        payload["hmm"] = post.summary()

    refs = [dataset.refs[i] for i in test_idx]
    keys = {key: np.array([getattr(r, key) for r in refs], dtype=np.int64) for key in ("session", "target", "stream")}
    save_arrays(
        out_dir / "predictions.npz",
        {"probs": probs, "labels": labels, **keys},
        meta={"kind": "predictions", "test_user": meta["test_user"]},
    )
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2))
    _write_manifest(out_dir, "evaluate", argv, meta["config"], meta["config"]["seed"])
    print("\n".join(blocks))
    return 0


def _cmd_smooth(args, argv) -> int:
    arrays, meta = load_arrays(args.predictions, "predictions")
    keyed = [arrays[key] for key in ("probs", "session", "stream", "target")]
    transitions = load_transitions(args.transitions)
    try:
        smoothed = viterbi_streams(*keyed, transitions)
    except ValueError as exc:
        raise ValueError(f"{args.predictions}: {exc}") from exc
    save_arrays(Path(args.out), {**arrays, "smoothed": smoothed}, meta=meta)
    if "labels" in arrays:
        metrics = classification_metrics(arrays["labels"], smoothed)
        print(_metric_block("hmm", metrics))
    return 0


def _cmd_report(args, argv) -> int:
    run_dir = Path(args.run)
    out_dir = Path(args.out) if args.out else run_dir / "report"
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays, _ = load_arrays(run_dir / "predictions.npz", "predictions")
    probs, labels = arrays["probs"], arrays["labels"]
    metrics = classification_metrics(labels, probs.argmax(axis=1))

    header = " ".join(MODES)
    np.savetxt(out_dir / "confusion.txt", metrics.confusion, fmt="%d", header=header)
    for mode, points in roc_tables(probs, labels).items():
        np.savetxt(out_dir / f"roc_{mode}.txt", points, header="fpr tpr threshold")
    lines = [_metric_block("no-hmm", metrics)]

    if args.features and args.model:
        features = load_features(args.features)
        model, _, dataset, test_idx = _test_split(features, args.features, args.model)
        if model.uses_attention:
            tables = attention_report(model, dataset, test_idx)
            lines.append(_format_attention(tables))
            (out_dir / "attention.json").write_text(
                json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in tables.items()}, indent=2)
            )
    (out_dir / "summary.txt").write_text("\n\n".join(lines) + "\n")
    print(f"report written to {out_dir}")
    return 0


def _format_attention(tables: dict) -> str:
    lines = ["[attention]", f"  {'mode':<8} {'weight_std':>10} {'loc':>8} {'acc':>8}"]
    for c, mode in enumerate(tables["modes"]):
        std = tables["weight_std"][c]
        loc_w, acc_w = tables["modality"][c]
        lines.append(f"  {mode:<8} {std:>10.4f} {loc_w:>8.4f} {acc_w:>8.4f}")
    return "\n".join(lines)


def _cmd_gradcheck(args, argv) -> int:
    from .verification import LAYER_LIMIT, MODEL_LIMIT, full_model_check, layer_checks

    def limit(value: float) -> str:  # 1e-06 -> 1e-6
        mantissa, exponent = f"{value:.0e}".split("e")
        return f"{mantissa}e{int(exponent)}"

    worst_layer = layer_checks(verbose=True)
    worst_model = full_model_check(verbose=True)
    ok = worst_layer < LAYER_LIMIT and worst_model < MODEL_LIMIT
    print(
        f"layers max rel err {worst_layer:.3e} (limit {limit(LAYER_LIMIT)}); "
        f"model {worst_model:.3e} (limit {limit(MODEL_LIMIT)})"
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(prog="modemil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an SHL-preview directory into a session archive")
    p.add_argument("--root", help="dataset root (or MODEMIL_DATA)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate synthetic sessions")
    p.add_argument("--config", help="SynthConfig JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("preprocess", help="cache spectrograms and location windows")
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train one model on one leave-one-user-out fold")
    p.add_argument("--features", required=True)
    p.add_argument("--config", help="TrainConfig JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--test-user")
    p.add_argument("--placement", help="restrict training bags to one placement")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on its held-out user")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    hmm_group = p.add_mutually_exclusive_group()
    hmm_group.add_argument("--hmm", dest="hmm", action="store_true", default=True)
    hmm_group.add_argument("--no-hmm", dest="hmm", action="store_false")

    p = sub.add_parser("smooth", help="Viterbi-smooth a predictions file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--transitions", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="emit tables and plot-data files for a run")
    p.add_argument("--run", required=True)
    p.add_argument("--features")
    p.add_argument("--model")
    p.add_argument("--out")

    sub.add_parser("gradcheck", help="finite-difference checks of every layer and the full model")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "ingest": _cmd_ingest,
        "synth": _cmd_synth,
        "preprocess": _cmd_preprocess,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "smooth": _cmd_smooth,
        "report": _cmd_report,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args, argv)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnknownTestUser) else 1


if __name__ == "__main__":
    sys.exit(main())
