"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record FILE`` appends, one per run.
For every workload and metric the table gives each side's sample count,
median and quartiles, the change of the median, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``beyond``     -- the change's median is worse than the base's by more
  than the bound;
* ``within``     -- it is not, and both sides' spreads (quartile distance
  over median) fit inside the bound;
* ``better``     -- a spread exceeds the bound, but every change run reads
  better than every base run;
* ``unresolved`` -- a spread exceeds the bound otherwise: the runs cannot
  tell a difference of that size from noise.

Per-layer metrics have no bound; their rows say ``same`` or ``moved``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def load_runs(path: str) -> Tuple[Dict[Tuple[str, str], List[float]], Dict[str, int]]:
    """``(workload, metric) -> values`` and failed-run counts per workload."""
    values: Dict[Tuple[str, str], List[float]] = {}
    failures: Dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if not run["correct"]:
                failures[run["workload"]] = failures.get(run["workload"], 0) + 1
                continue
            for name, entry in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(float(entry["value"]))
    return values, failures


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def spread(values: List[float]) -> float:
    low, mid, high = quartiles(values)
    return (high - low) / abs(mid) if mid else 0.0


def verdict(metric: Dict, base: List[float], change: List[float]) -> Tuple[float, str]:
    """Relative worsening of the change's median, and the verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base_mid, change_mid = statistics.median(base), statistics.median(change)
    worse = sign * (change_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    if "bound" not in metric:
        return worse, "same" if base_mid == change_mid else "moved"
    bound = metric["bound"]
    if max(spread(base), spread(change)) > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return worse, "better"
        return worse, "unresolved"
    return worse, "beyond" if worse > bound else "within"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"] + spec["per_layer"]
    base, base_failed = load_runs(argv[0])
    change, change_failed = load_runs(argv[1])
    beyond = 0
    print(f"{'workload':<15}{'metric':<24}{'n base: median [q1, q3]':<40}"
          f"{'n change: median [q1, q3]':<40}{'worse':>9}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for failed, side in ((base_failed, "base"), (change_failed, "change")):
            if failed.get(workload):
                print(f"{workload:<15}{failed[workload]} failed {side} run(s) left out")
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            worse, mark = verdict(metric, base[key], change[key])
            beyond += mark == "beyond"
            cells = []
            for values in (base[key], change[key]):
                low, mid, high = quartiles(values)
                cells.append(f"{len(values)} {mid:.6g} [{low:.6g}, {high:.6g}]".ljust(40))
            print(f"{workload:<15}{metric['name']:<24}{cells[0]}{cells[1]}{worse:>+9.2%}  {mark}")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
