"""Compare two result sets of the benchmark, per workload and end-to-end metric.

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py`` writes with ``--results``
(``<workload>-seed<n>-trace0.json``). Runs of the two sets are paired by
seed. For every workload and end-to-end metric of BENCHMARK.json the tool
prints each side's median and quartiles, how many pairs the change won
(ties count for neither side), and a verdict against the metric's bound:

- improved: the change won at least 9 of 10 pairs and the medians differ, in
  the better direction, by more than the parent's own quartile spread;
- regressed: the change's median is worse than the parent's by more than the
  bound (a share of the parent's median), whatever the spread;
- unresolved: within the bound, but the run-to-run spread of either side is
  wider than the bound and not every change run beats every parent run, so
  "no worse" cannot be told from noise;
- no worse: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from the timed (trace 0) result files."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        values = {name: m["value"] for name, m in record["result"]["metrics"].items()}
        runs.setdefault(prov["workload"], {})[prov["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], better: str, bound: float):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        text = "improved"
    elif worse_by > bound:
        text = "regressed"
    elif spread > bound and not all_better:
        text = "unresolved"
    else:
        text = "no worse"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": len(parent)},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": len(change)},
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "worse_by": worse_by,
        "spread": spread,
        "bound": bound,
        "verdict": text,
    }


def compare(parent_dir: Path, change_dir: Path, benchmark: dict) -> dict:
    parent, change = load_set(parent_dir), load_set(change_dir)
    report: dict[str, dict] = {}
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        report[workload] = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p_vals = [run[name] for run in parent[workload].values()]
            c_vals = [run[name] for run in change[workload].values()]
            pairs = [(parent[workload][s][name], change[workload][s][name]) for s in seeds]
            report[workload][name] = verdict(p_vals, c_vals, pairs, metric["better"], metric["bound"])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    report = compare(args.parent, args.change, json.loads((ROOT / "BENCHMARK.json").read_text()))
    if not report:
        print("error: the two result sets share no workload", file=sys.stderr)
        return 2
    print(
        f"{'workload':<18} {'metric':<22} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
        f" {'wins':>7} {'worse':>7}  verdict"
    )
    for workload, metrics in report.items():
        for name, r in metrics.items():
            p, c = r["parent"], r["change"]
            print(
                f"{workload:<18} {name:<22} {p['median']:>12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]".ljust(77)
                + f"{c['median']:>12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]".ljust(35)
                + f"{r['wins']:>3}/{r['pairs']:<3} {100 * r['worse_by']:>6.1f}%  {r['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
