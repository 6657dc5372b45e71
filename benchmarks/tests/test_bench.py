"""Tests of the benchmark itself: replay fidelity, the metric contract, verdicts and refusal.

    python3 -m pytest benchmarks/tests -q

The smoke tests run every workload at a seconds-long scale (``--tiny``), in
both modes, so this file takes a couple of minutes.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import replay  # noqa: E402
from compare import verdict  # noqa: E402
from modemil.bags import build_bags, preprocess_session  # noqa: E402
from modemil.splits import loso_folds, split_bags  # noqa: E402
from modemil.synth import SynthConfig, synth_generate  # noqa: E402
from modemil.train import TrainConfig, run_pretraining, train_model  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("c6_fusion", "preprocess_smooth")


@pytest.fixture(scope="module")
def corpus():
    config = SynthConfig(placements=("Bag", "Hips"), n_users=3, minutes_per_session=70)
    features = [preprocess_session(s) for s in synth_generate(config, np.random.default_rng(3))]
    fold = [f for f in loso_folds(features, seed=3) if f.test_user == "user3"][0]
    return features, fold


@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(arch="fusion_mil", lr=1e-3, batch_size=16, max_epochs=2, seed=5, augment=False),
        TrainConfig(arch="acc_mil", lr=1e-3, batch_size=16, max_epochs=2, seed=6, resample_placement=True),
    ],
    ids=["fusion_mil", "acc_mil_augment_resample"],
)
def test_replay_matches_train_model_bit_for_bit(corpus, config):
    features, fold = corpus
    bags = build_bags(features)
    train_idx, val_idx, _ = split_bags(bags, fold)
    model = replay.build_model(config)
    history = train_model(model, bags, train_idx, val_idx, config)
    counts = replay.TrainCounts()
    replayed_model = replay.build_model(config)
    replayed = replay.train_model(replayed_model, bags, train_idx, val_idx, config, Tracer("t", True), counts)
    assert replayed.train_loss == history.train_loss
    assert replayed.val_loss == history.val_loss
    assert replayed.val_accuracy == history.val_accuracy
    assert replay.same_state(model.state_dict(), replayed_model.state_dict())
    assert counts.epochs == history.epochs and counts.steps > 0


@pytest.mark.parametrize(
    "config",
    [
        TrainConfig(arch="fusion_mil", pretrain="both", lr=1e-3, batch_size=16, max_epochs=1, seed=7),
        TrainConfig(arch="loc_lstm", pretrain="loc", lr=1e-3, batch_size=16, max_epochs=2, seed=8),
    ],
    ids=["fusion_both", "loc_lstm_loc"],
)
def test_replay_matches_run_pretraining_bit_for_bit(corpus, config):
    features, fold = corpus
    model, histories = run_pretraining(config, features, fold)
    tracer = Tracer("t", True)
    counts = replay.TrainCounts()
    replayed_model, replayed = replay.run_pretraining(config, features, fold, tracer, counts)
    assert {k: dataclasses.asdict(h) for k, h in histories.items()} == {
        k: dataclasses.asdict(h) for k, h in replayed.items()
    }
    assert replay.same_state(model.state_dict(), replayed_model.state_dict())
    assert all(tracer.total(f"train.stage.{stage}") > 0 for stage in histories)


@pytest.mark.parametrize(
    "change, expected",
    [
        # Both spreads wider than the 0.25 bound, median 38% slower: a regression, not "unresolved".
        ([14.0, 11.0, 15.0, 19.0, 12.0, 13.0, 17.0, 14.0, 16.0, 18.0], "regressed"),
        # Both spreads wider than the bound, median 2% slower: "unresolved".
        ([10.5, 8.0, 11.0, 13.0, 8.5, 9.5, 12.0, 10.0, 11.5, 12.5], "unresolved"),
        # Faster in every pair by more than the parent's quartile spread.
        ([5.0, 3.5, 5.5, 7.0, 4.0, 4.5, 6.0, 4.8, 5.2, 6.5], "improved"),
    ],
)
def test_verdict(change, expected):
    parent = [10.0, 8.0, 11.0, 13.0, 8.5, 9.5, 12.0, 10.0, 11.5, 12.5]
    pairs = list(zip(parent, change))
    assert verdict(parent, change, pairs, "lower", 0.25)["verdict"] == expected


def _run(workload, trace, results, cwd=ROOT):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "2", "--seconds", "0.5"]
    cmd += ["--trace", str(trace), "--tiny", "--results", str(results)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_with_its_unit(workload, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in [w["name"] for w in spec["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace, tmp_path)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}
        assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
        record = json.loads((tmp_path / f"{workload}-seed2-trace{trace}.json").read_text())
        failed = [c["name"] for c in record["checks"] if c["failed"]]
        # The tiny corpus cannot reach the criterion-6 accuracy bar; every other check must hold.
        assert failed in ([], ["test accuracy >= 0.95"]), failed
        assert proc.returncode == (0 if not failed else 1)
        assert line["correct"] == (not failed) and line["attempted"] >= 1
        assert {"nproc", "python", "numpy", "blas", "thread_env", "git_commit", "seed"} <= set(record["provenance"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _run("c6_fusion", 0, tmp_path / "results", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
