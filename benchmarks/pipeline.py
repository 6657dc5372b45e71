"""The workloads, run as a user would run modemil, with output checks.

Every timed phase mirrors a user-facing job: ``modemil synth`` (set-up),
``modemil preprocess`` (plus the feature load ``train`` starts with),
``modemil train``, the prediction half of ``modemil evaluate`` and
``modemil smooth``. The timed run calls the public functions those commands
call; the traced run replays training and prediction step by step (see
``replay.py``). Both go through ``run_pipeline``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from modemil import cli
from modemil.bags import (
    build_bags,
    load_features,
    load_sessions,
    preprocess_session,
    save_features,
    save_sessions,
)
from modemil.experiments import dev_label_sequences
from modemil.hmm import estimate_transitions, save_transitions, viterbi
from modemil.nn import load_arrays, save_arrays
from modemil.splits import loso_folds, split_bags
from modemil.synth import SynthConfig, synth_generate
from modemil.train import TrainConfig, predict_dataset, run_pretraining, run_training

import replay
from tracing import Tracer

# The criterion-6 configuration of the acceptance suite: its corpus, split
# and model all at seed 42. It is the fixed workload the roadmap reports
# against, so the workload seed does not change it. Its 0.95 accuracy bar
# holds at this seed but not at every seed (see README.md).
C6_CORPUS = SynthConfig(
    modes=("still", "walk", "run", "car"),
    placements=("Hips",),
    n_users=3,
    minutes_per_session=700,
    dwell_mean_minutes=30.0,
    corruption_rate=0.2,
)
C6_SEED = 42
C6_MIN_ACCURACY = 0.95  # the criterion-6 bars
C6_MAX_EPOCHS = 30
# preprocess_smooth's corpus, split and model are fixed too: the held-out
# accuracy of its location-only model ranged 0.24-0.42 over corpus seeds
# 401-410, wider than any bound the benchmark may set. Seed 42 gives 0.32.
PS_SEED = 42

SAMPLE_S = 0.2  # shortest timed sample; see timed()
MAX_SAMPLES = 100  # per repeated phase
PREDICT_CHUNK = 128  # bags per repeated prediction call, predict_dataset's own batch
SMOOTH_STREAMS = 36  # virtual streams per session in preprocess_smooth
SMOOTH_FLIP = 0.2  # criterion 7's label-flip rate


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    corpus: SynthConfig
    seed: int  # of corpus, split and model; the workload seed draws preprocess_smooth's smoothing noise
    test_user: str
    train: TrainConfig  # its seed is replaced by ``seed``


WORKLOADS = {
    w.name: w
    for w in (
        # The conv stack's forward and backward do most of the work: 96 images per step.
        Workload(
            "c6_fusion",
            C6_CORPUS,
            C6_SEED,
            "user3",
            TrainConfig(
                arch="fusion_mil",
                lr=1e-3,
                batch_size=32,
                max_epochs=C6_MAX_EPOCHS,
                patience=10,
                augment=False,
                stop_accuracy=0.97,
            ),
        ),
        # accel, geo, the feature cache and Viterbi do most of the work. The
        # conv-free location pre-training supplies the training and prediction
        # figures every workload must report; conv changes should not move it.
        Workload(
            "preprocess_smooth",
            SynthConfig(n_users=2, minutes_per_session=720),
            PS_SEED,
            "user2",
            TrainConfig(arch="loc_lstm", pretrain="loc", lr=1e-3, batch_size=32, max_epochs=5),
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload on a corpus small enough for a test (one or two epochs)."""
    minutes = {"c6_fusion": 60, "preprocess_smooth": 240}[workload.name]
    corpus = dataclasses.replace(workload.corpus, minutes_per_session=minutes)
    train = dataclasses.replace(workload.train, max_epochs=min(workload.train.max_epochs, 2))
    return dataclasses.replace(workload, corpus=corpus, train=train)


@dataclasses.dataclass
class Check:
    name: str
    attempted: int
    failed: int


@dataclasses.dataclass
class RunResult:
    """What one pass of the pipeline measured, and what the probes need."""

    metrics: dict[str, float]
    checks: list[Check]
    wall_s: float
    context: dict


def timed(fn, after=None, sample_s: float = 0.0):
    """One sample of ``fn``: the mean time of back-to-back calls lasting at least ``sample_s``.

    Only ``fn`` is timed; ``after`` checks the last output outside the timing.
    Returns the last output and the sample in seconds.
    """
    calls = 0
    t0 = time.perf_counter()
    while calls == 0 or time.perf_counter() - t0 < sample_s:
        out = fn()
        calls += 1
    seconds = (time.perf_counter() - t0) / calls
    if after is not None:
        after(out)
    return out, seconds


class Phase:
    """The samples of one timed phase: seconds per unit of work, and the wall time spent taking them."""

    def __init__(self, min_samples: int, after=None):
        self.min_samples = min_samples
        self.after = after  # checks the output of a sample, untimed
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, fn, work: float = 1.0, sample_s: float = 0.0):
        t0 = time.perf_counter()
        out, seconds = timed(fn, self.after, sample_s)
        self.spent += time.perf_counter() - t0
        self.samples.append(seconds / work)
        return out


def resample(phases, budget_s: float) -> None:
    """Sample each phase again, round-robin, until it has its minimum samples and has spent ``budget_s``.

    ``phases`` holds ``(phase, fn, work)``: ``fn`` does ``work`` units per
    call. Round-robin spreads every phase's samples over the whole period, so
    that each phase meets the machine's fast seconds as well as its slow ones.
    """

    def wanting(phase):
        short = phase.spent < budget_s and len(phase.samples) < MAX_SAMPLES
        return len(phase.samples) < phase.min_samples or short

    while any(wanting(phase) for phase, _, _ in phases):
        for phase, fn, work in phases:
            if wanting(phase):
                phase.sample(fn, work, SAMPLE_S)


def _features_equal(a, b) -> bool:
    fields = ("spectrograms", "loc_matrix", "loc_scalars", "loc_avail", "labels")
    return (a.user, a.session_id, a.placements) == (b.user, b.session_id, b.placements) and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in fields
    )


def _train_steps(n_train: int, batch_size: int) -> tuple[int, int]:
    """Steps and bags per epoch of ``train_model`` over ``n_train`` bags (single-bag batches are skipped)."""
    full, rest = divmod(n_train, batch_size)
    return full + (rest >= 2), n_train - (rest == 1)


def _smoothing_job(workload, features, probs, labels, dataset, test_idx, seed):
    """Rows, labels and (session, target, stream) keys of the file ``modemil smooth`` reads."""
    if workload.name != "preprocess_smooth":
        refs = [dataset.refs[i] for i in test_idx]
        keys = np.array([(r.session, r.target, r.stream) for r in refs], dtype=np.int64).reshape(-1, 3)
        return probs, labels, keys
    # Criterion 7's noise model: each virtual stream sees the session's true
    # labels with 20% of the minutes flipped to a uniform mode; the flipped
    # or kept label gets probability 0.9, the others share 0.1.
    rng = np.random.default_rng([seed, 7])
    rows, truth, keys = [], [], []
    for s, feat in enumerate(features):
        minutes = np.arange(feat.n_minutes)
        for v in range(SMOOTH_STREAMS):
            noisy = feat.labels.copy()
            flips = rng.random(feat.n_minutes) < SMOOTH_FLIP
            noisy[flips] = rng.integers(0, 8, int(flips.sum()))
            emissions = np.full((feat.n_minutes, 8), 0.1 / 7.0)
            emissions[minutes, noisy] = 0.9
            rows.append(emissions)
            truth.append(feat.labels)
            keys.append(np.column_stack([np.full(feat.n_minutes, s), minutes, np.full(feat.n_minutes, v)]))
    return np.concatenate(rows), np.concatenate(truth), np.concatenate(keys).astype(np.int64)


def run_pipeline(
    workload: Workload, seed: int, seconds: float, tracer: Tracer, workdir: Path, traced: bool
) -> RunResult:
    """One run of ``workload``; ``seed`` draws only preprocess_smooth's smoothing noise."""
    workdir.mkdir(parents=True, exist_ok=True)
    budget = seconds / 4.0  # per repeated phase: set-up, preprocess, predict, smooth
    checks: dict[str, Check] = {}
    metrics: dict[str, float] = {}
    t_start = time.perf_counter()

    def check(name: str, attempted: int, failed: int) -> None:
        """Record a check once per run; one that runs on every repeated call keeps its worst result."""
        if name in checks:
            failed = max(failed, checks[name].failed)
        checks[name] = Check(name, attempted, failed)

    # -- set-up: corpus generation and the session archive (modemil synth) --
    archive = workdir / "sessions.npz"

    def setup():
        with tracer.span("setup"):
            with tracer.span("synth.generate"):
                sessions = synth_generate(workload.corpus, np.random.default_rng(workload.seed))
            with tracer.span("bags.save_sessions"):
                save_sessions(archive, sessions)
        return sessions

    setup_phase = Phase(min_samples=5)
    sessions = setup_phase.sample(setup)
    placement_minutes = sum(s.n_minutes * len(s.accel) for s in sessions)

    # -- preprocess: modemil preprocess, then the feature load of modemil train --
    features_path = workdir / "features.npz"

    def preprocess():
        with tracer.span("preprocess"):
            with tracer.span("bags.load_sessions"):
                loaded_sessions = load_sessions(archive)
            computed = []
            for s in loaded_sessions:
                with tracer.span("bags.preprocess_session"):
                    computed.append(preprocess_session(s))
            with tracer.span("bags.save_features"):
                save_features(features_path, computed)
            with tracer.span("bags.load_features"):
                loaded = load_features(features_path)
        return computed, loaded

    def round_trip(out):
        computed, loaded = out
        wrong = sum(not _features_equal(a, b) for a, b in zip(computed, loaded)) + abs(len(computed) - len(loaded))
        check("features round-trip exactly", len(computed), wrong)

    preprocess_phase = Phase(min_samples=8, after=round_trip)
    computed, features = preprocess_phase.sample(preprocess)
    del computed

    # -- train: modemil train --
    with tracer.span("splits.loso_folds"):
        folds = loso_folds(features, seed=workload.seed)
    fold = next(f for f in folds if f.test_user == workload.test_user)
    config = dataclasses.replace(workload.train, seed=workload.seed)
    if config.pretrain not in ("none", "loc"):
        raise ValueError("the pipeline counts steps for location pre-training only")
    counts = replay.TrainCounts()
    split_sizes = []  # (built, kept) per split_bags call
    if config.pretrain == "none":
        dataset = build_bags(features)
        with tracer.span("splits.split_bags"):
            train_idx, val_idx, test_idx = split_bags(dataset, fold)
    else:
        # Both stages of location pre-training train on the first placement's
        # bags; the replay records their split_bags spans.
        dataset = build_bags(features, placement=features[0].placements[0])
        train_idx, val_idx, test_idx = split_bags(dataset, fold)

    def train():
        with tracer.span("train"):
            if config.pretrain != "none":
                if traced:
                    return replay.run_pretraining(config, features, fold, tracer, counts)
                return run_pretraining(config, features, fold)
            with tracer.span("train.stage.fused"):
                if traced:
                    model, history = replay.run_training(config, dataset, train_idx, val_idx, tracer, counts)
                else:
                    model, history = run_training(config, dataset, train_idx, val_idx)
            return model, {"fused": history}

    # Training is sampled again only while within the budget: preprocess_smooth's
    # few-second run is, c6_fusion's half-minute run is not.
    train_phase = Phase(min_samples=1)
    model, histories = train_phase.sample(train)
    split_sizes += [(len(dataset), len(train_idx) + len(val_idx) + len(test_idx))] * len(histories)
    stage_epochs = [(h.epochs, *_train_steps(len(train_idx), config.batch_size)) for h in histories.values()]
    n_steps = sum(e * s for e, s, _ in stage_epochs)
    n_bags = sum(e * b for e, _, b in stage_epochs)
    epochs = sum(e for e, _, _ in stage_epochs)

    finite = all(np.all(np.isfinite(h.train_loss + h.val_loss + h.val_accuracy)) for h in histories.values())
    check("every stage history is finite", n_steps, 0 if finite else n_steps)
    if workload.name == "c6_fusion":
        check(f"at most {C6_MAX_EPOCHS} epochs", n_steps, 0 if epochs <= C6_MAX_EPOCHS else n_steps)
    if config.pretrain != "none":
        # Stage 1 again, untimed, through the call run_pretraining makes: the
        # location encoder stage 2 froze must still hold these weights bit for bit.
        stage1 = dataclasses.replace(config, arch="loc_lstm", pretrain="none", resample_placement=False)
        reference, _ = run_training(stage1, dataset, train_idx, val_idx)
        intact = replay.same_state(model.loc_encoder.state_dict(), reference.loc_encoder.state_dict())
        stage2_steps = stage_epochs[-1][0] * stage_epochs[-1][1]
        check("stage-2 frozen weights are bit-identical", stage2_steps, 0 if intact else stage2_steps)
        del reference
    if traced and counts.steps != n_steps:
        check("replay ran the expected steps", n_steps, n_steps)

    # -- predict: the prediction half of modemil evaluate, on the held-out user --
    def predict(indices):
        with tracer.span("predict"):
            if traced:
                return replay.predict_dataset(model, dataset, indices, tracer)
            return predict_dataset(model, dataset, indices)

    predict_phase = Phase(min_samples=4)
    probs, labels = predict_phase.sample(lambda: predict(test_idx), work=len(test_idx))
    # The repetitions predict the held-out user a chunk at a time, so that
    # their samples, too, spread over the whole period.
    size = min(PREDICT_CHUNK, len(test_idx))
    chunks = itertools.cycle([test_idx[lo : lo + size] for lo in range(0, len(test_idx) - size + 1, size)])
    bad_rows = ~(np.isfinite(probs) & (probs >= 0.0) & (probs <= 1.0)).all(axis=1)
    check("probabilities are finite and in [0, 1]", len(probs), int(bad_rows.sum()))
    metrics["test_accuracy"] = float((probs.argmax(axis=1) == labels).mean())
    if workload.name == "c6_fusion":
        low = metrics["test_accuracy"] < C6_MIN_ACCURACY
        check(f"test accuracy >= {C6_MIN_ACCURACY}", len(probs), len(probs) if low else 0)

    # -- smooth: transitions as modemil evaluate writes them, then modemil smooth --
    with tracer.span("hmm.estimate_transitions"):
        transitions = estimate_transitions(dev_label_sequences(features, workload.test_user))
    transitions_path = workdir / "transitions.txt"
    save_transitions(transitions_path, transitions)
    rows, truth, keys = _smoothing_job(workload, features, probs, labels, dataset, test_idx, seed)
    order = np.lexsort((keys[:, 1], keys[:, 2], keys[:, 0]))
    groups = np.split(order, np.flatnonzero(np.diff(keys[order][:, [0, 2]], axis=0).any(axis=1)) + 1)
    if workload.name == "preprocess_smooth":
        bad_rows = ~(np.isfinite(rows) & (rows >= 0.0) & (rows <= 1.0)).all(axis=1)
        bad_groups = sum(bool(bad_rows[m].any()) for m in groups)
        check("smoothing inputs are finite and in [0, 1]", len(groups), bad_groups)
    predictions_path = workdir / "predictions.npz"
    save_arrays(
        predictions_path,
        {"probs": rows, "labels": truth, "session": keys[:, 0], "target": keys[:, 1], "stream": keys[:, 2]},
        meta={"kind": "predictions", "test_user": workload.test_user},
    )
    smoothed_path = workdir / "smoothed.npz"
    argv = ["smooth", "--predictions", str(predictions_path), "--transitions", str(transitions_path)]
    argv += ["--out", str(smoothed_path)]

    def smooth():
        with tracer.span("smooth"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"modemil smooth exited with {code}")

    # The reference: hmm.viterbi on each (session, stream) group in target order.
    reference = np.empty(len(rows), dtype=np.int64)
    for members in groups:
        with tracer.span("hmm.viterbi"):
            reference[members] = viterbi(rows[members], transitions)

    def decoded_as_reference(_):
        smoothed = load_arrays(smoothed_path)[0]["smoothed"]
        wrong = sum(not np.array_equal(smoothed[m], reference[m]) for m in groups)
        check("modemil smooth equals hmm.viterbi per (session, stream)", len(groups), wrong)

    smooth_phase = Phase(min_samples=10, after=decoded_as_reference)
    smooth_phase.sample(smooth)
    smoothed = load_arrays(smoothed_path)[0]["smoothed"]
    metrics["test_accuracy_hmm"] = float((smoothed == truth).mean())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The timing repetitions come after the single pass above. Their number
    # depends on the machine's speed, so run before training they would move
    # its memory high-water mark.
    phases = [
        (setup_phase, setup, 1),
        (preprocess_phase, preprocess, 1),
        (train_phase, train, 1),
        (predict_phase, lambda: predict(next(chunks)), size),
        (smooth_phase, smooth, 1),
    ]
    resample(phases, budget)
    # The timings other than set-up use the fastest sample. On a shared
    # machine the same work, at the same CPU time, runs up to 2x slower for
    # seconds to minutes while other tenants load the host; the fastest sample
    # is the speed of the program itself and moves least from run to run
    # (see README.md).
    metrics["setup_s"] = statistics.median(setup_phase.samples)
    metrics["preprocess_min_per_s"] = placement_minutes / min(preprocess_phase.samples)
    metrics["train_s"] = min(train_phase.samples)
    metrics["train_bags_per_s"] = n_bags / metrics["train_s"]
    metrics["predict_bags_per_s"] = 1.0 / min(predict_phase.samples)
    metrics["smooth_min_per_s"] = len(rows) / min(smooth_phase.samples)
    wall_s = time.perf_counter() - t_start

    context = {
        "sessions": sessions,
        "features": features,
        "dataset": dataset,
        "train_idx": train_idx,
        "counts": counts,
        "epochs": epochs,
        "n_steps": n_steps,
        "split_sizes": split_sizes,
        "smooth_rows": len(rows),
        "history": {k: dataclasses.asdict(h) for k, h in histories.items()},
        "probs": probs,
        "phase_times": {
            "setup": setup_phase.samples,
            "preprocess": preprocess_phase.samples,
            "train": train_phase.samples,
            "predict": predict_phase.samples,
            "smooth": smooth_phase.samples,
        },
    }
    return RunResult(metrics=metrics, checks=list(checks.values()), wall_s=wall_s, context=context)


def write_run_record(workdir: Path, result: RunResult) -> None:
    """What a traced run compares its replay against: history, predictions, wall time."""
    np.save(workdir / "probs.npy", result.context["probs"])
    (workdir / "record.json").write_text(json.dumps({"history": result.context["history"], "wall_s": result.wall_s}))
