"""modemil benchmark: one workload per run, timed (--trace 0) or traced (--trace 1).

    python3 benchmarks/run.py --workload c6_fusion --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the repository root. The timed run prints every end-to-end metric
with its unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The traced run first
runs the pipeline untraced in a child process, with each repeated phase at
its minimum count. It then runs the same pipeline with spans on, replaying
training and prediction step by step, probes the layers, and reports the
per-layer metrics. Both write a result file (with a
provenance block) under ``--results``; ``compare.py`` reads two such
directories. The exit code is 0 only when every output check passed.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("c6_fusion", "preprocess_smooth")
CHILD_TIMEOUT_S = 170
# Both halves of a traced run do each repeated phase its minimum number of
# times, so they do the same work and fit in one run's time limit.
TRACE_SECONDS = 0.0

END_TO_END = {
    "setup_s": "s",
    "preprocess_min_per_s": "placement-min/s",
    "train_s": "s",
    "train_bags_per_s": "bags/s",
    "predict_bags_per_s": "bags/s",
    "smooth_min_per_s": "min/s",
    "test_accuracy": "fraction",
    "test_accuracy_hmm": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"nn.{op}.{d}_ms": "ms" for op in ("conv2d", "batchnorm", "max_pool") for d in ("fwd", "bwd")},
    "nn.conv2d.fwd_gflops": "GFLOP/s",
    **{f"nn.{op}.{d}_ms": "ms" for op in ("bilstm", "dense", "attention") for d in ("fwd", "bwd")},
    "model.forward_ms.p50": "ms",
    "model.forward_ms.p90": "ms",
    "nn.backward_ms.p50": "ms",
    "nn.backward_ms.p90": "ms",
    "nn.adam_step_ms": "ms",
    "model.predict_ms": "ms",
    "train.validate_s": "s",
    "bags.batch_ms.p50": "ms",
    "bags.batch_ms.p90": "ms",
    "bags.data_wait_frac": "fraction",
    "accel.mask_augment_ms": "ms",
    "accel.magnitude_jerk_ms": "ms",
    "accel.spectrogram_ms": "ms",
    "geo.fill_gaps_ms": "ms",
    "geo.loc_features_ms": "ms",
    "bags.preprocess_session_s": "s",
    "bags.save_features_s": "s",
    "bags.load_features_s": "s",
    "bags.features_mb": "MB",
    "hmm.viterbi_us_per_step": "us",
    "hmm.group_s": "s",
    "hmm.estimate_transitions_ms": "ms",
    "train.epochs": "count",
    "train.steps": "count",
    "train.skipped_batches": "count",
    "train.stage_s.accel": "s",
    "train.stage_s.loc": "s",
    "train.stage_s.fused": "s",
    "splits.split_bags_ms": "ms",
    "splits.kept_frac": "fraction",
    "synth.generate_s": "s",
    "bench.trace_overhead_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0, help="time budget of the repeated phases, a quarter each")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(HERE / "results"), help="directory for result and span files")
    parser.add_argument("--workdir", help=argparse.SUPPRESS)  # kept for the traced parent to read
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)  # seconds-long corpora for tests
    return parser.parse_args(argv)


def provenance(args, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def layer_metrics(tracer, result, probe, features_bytes: int, child_wall_s: float) -> dict[str, float]:
    from tracing import median, percentile

    ctx = result.context

    def step_part(name):
        return [d for parts in tracer.children_of("train.step", name) for d in parts]

    steps = tracer.durations("train.step")
    gather = step_part("bags.batch")
    out = dict(probe)
    out.update(
        {
            "model.forward_ms.p50": 1e3 * percentile(step_part("model.forward"), 50),
            "model.forward_ms.p90": 1e3 * percentile(step_part("model.forward"), 90),
            "nn.backward_ms.p50": 1e3 * percentile(step_part("nn.backward"), 50),
            "nn.backward_ms.p90": 1e3 * percentile(step_part("nn.backward"), 90),
            "nn.adam_step_ms": 1e3 * median(step_part("nn.adam_step")),
            "model.predict_ms": 1e3 * median(tracer.durations("model.predict")),
            "train.validate_s": tracer.total("train.validate"),
            "bags.batch_ms.p50": 1e3 * percentile(gather, 50),
            "bags.batch_ms.p90": 1e3 * percentile(gather, 90),
            "bags.data_wait_frac": sum(gather) / sum(steps),
            "bags.preprocess_session_s": median(
                [sum(p) for p in tracer.children_of("preprocess", "bags.preprocess_session")]
            ),
            "bags.save_features_s": median(tracer.durations("bags.save_features")),
            "bags.load_features_s": median(tracer.durations("bags.load_features")),
            "bags.features_mb": features_bytes / 2**20,
            "hmm.viterbi_us_per_step": 1e6 * tracer.total("hmm.viterbi") / ctx["smooth_rows"],
            "hmm.group_s": median(tracer.durations("smooth")) - tracer.total("hmm.viterbi"),
            "hmm.estimate_transitions_ms": 1e3 * tracer.total("hmm.estimate_transitions"),
            "train.epochs": ctx["epochs"],
            "train.steps": ctx["counts"].steps,
            "train.skipped_batches": ctx["counts"].skipped,
            "train.stage_s.accel": tracer.total("train.stage.accel"),
            "train.stage_s.loc": tracer.total("train.stage.loc"),
            "train.stage_s.fused": tracer.total("train.stage.fused"),
            "splits.split_bags_ms": 1e3 * tracer.total("splits.split_bags"),
            "splits.kept_frac": sum(k for _, k in ctx["split_sizes"]) / sum(b for b, _ in ctx["split_sizes"]),
            "synth.generate_s": median(tracer.durations("synth.generate")),
            "bench.trace_overhead_frac": result.wall_s / child_wall_s - 1.0,
        }
    )
    return out


def probe_layers(workload, result, tracer, seed: int) -> dict[str, float]:
    """The nn probes on the shapes this workload trains on, plus the feature probes."""
    import probes

    ctx = result.context
    batch = ctx["dataset"].batch(ctx["train_idx"][: probes.BATCH])
    out = probes.probe_model(workload.train.arch, batch, tracer, seed)
    out.update(probes.probe_features(ctx["sessions"], ctx["features"], tracer, seed))
    return out


def features_nbytes(features) -> int:
    fields = ("spectrograms", "loc_matrix", "loc_scalars", "loc_avail", "labels")
    return sum(getattr(f, name).nbytes for f in features for name in fields)


def run(args) -> int:
    import numpy as np

    import pipeline
    from tracing import Tracer

    workload = pipeline.WORKLOADS[args.workload]
    if args.tiny:
        workload = pipeline.tiny(workload)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{int(time.time())}"
    work_root = HERE / ".work"
    workdir = Path(args.workdir) if args.workdir else work_root / run_id
    child_dir = work_root / f"{run_id}-child"
    results_dir = Path(args.results)
    try:
        if args.trace:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
            cmd += ["--seconds", str(TRACE_SECONDS), "--trace", "0"]
            cmd += ["--results", str(child_dir), "--workdir", str(child_dir)]
            cmd += ["--tiny"] if args.tiny else []
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            # Exit code 1 is a run whose checks failed; this run repeats and reports them.
            if child.returncode not in (0, 1) or not (child_dir / "record.json").is_file():
                sys.stderr.write(child.stdout + child.stderr)
                print(f"error: the untraced run exited with {child.returncode}", file=sys.stderr)
                return child.returncode or 1
            record = json.loads((child_dir / "record.json").read_text())
            tracer = Tracer(run_id, record=True)
            result = pipeline.run_pipeline(workload, args.seed, TRACE_SECONDS, tracer, workdir, traced=True)
            n_steps, n_probs = result.context["n_steps"], len(result.context["probs"])
            same_history = result.context["history"] == record["history"]
            same_probs = np.array_equal(result.context["probs"], np.load(child_dir / "probs.npy"))
            result.checks += [
                pipeline.Check("replayed history equals train_model's", n_steps, 0 if same_history else n_steps),
                pipeline.Check("replayed predictions equal predict_dataset's", n_probs, 0 if same_probs else n_probs),
            ]
            probe = probe_layers(workload, result, tracer, args.seed)
            values = layer_metrics(tracer, result, probe, features_nbytes(result.context["features"]), record["wall_s"])
            units = PER_LAYER
            tracer.write(results_dir / f"{args.workload}-seed{args.seed}-spans.json")
        else:
            tracer = Tracer(run_id, record=False)
            result = pipeline.run_pipeline(workload, args.seed, args.seconds, tracer, workdir, traced=False)
            if args.workdir:
                pipeline.write_run_record(workdir, result)
            values, units = result.metrics, END_TO_END
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(child_dir, ignore_errors=True)

    attempted = sum(c.attempted for c in result.checks)
    failed = sum(c.failed for c in result.checks)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "provenance": provenance(args, len(os.sched_getaffinity(0))),
        "checks": [c.__dict__ for c in result.checks],
        "phase_times_s": result.context["phase_times"],
        "failed_frac": failed / attempted,
        "result": line,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for c in result.checks:
        if c.failed:
            print(f"CHECK FAILED: {c.name}: {c.failed} of {c.attempted}", file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"]))
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<28} {record['failed_frac']:>14.6g} fraction ({failed} of {attempted} operations)")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Turn SIGTERM into SystemExit so that cleanup runs and a traced run's child is stopped and awaited.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # BLAS threads are fixed here, before numpy is first imported, and only
    # for this process and the child it starts.
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    src = ROOT / "src"
    if not (src / "modemil" / "__init__.py").is_file():
        print(f"error: {src / 'modemil'} not found; run from a checkout of the modemil repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        # Every workload in its own process, one after the other.
        codes = []
        for name in WORKLOAD_NAMES:
            argv_one = sys.argv[1:] if argv is None else list(argv)
            argv_one[argv_one.index("--workload") + 1] = name
            codes.append(subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv_one]).returncode)
        return max(codes)
    sys.path[:0] = [str(src), str(HERE)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
