"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the reports ``run.py --out DIR`` wrote (several
seeds per workload).  For every workload × end-to-end metric it prints
each side's median and quartiles, the ratio of the medians with its
base, and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — the quartile spread of either side exceeds the
  bound, so a difference of that size cannot be told from noise;
* ``worse`` / ``better`` — the new median differs from the base median
  by more than the bound, in that direction;
* ``unchanged`` — otherwise.

Exits non-zero when any metric is ``worse``.  Comparing a directory
with itself prints the run-to-run spread of one commit.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of the untraced runs."""
    runs: dict[str, dict[str, list[float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
        if report.get("trace"):
            continue
        per_metric = runs.setdefault(report["workload"], {})
        for name, entry in report["result"]["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _fmt(values: list[float]) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles(values))


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[str, float, float]:
    """``(verdict, ratio new/base, widest spread share)``."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    ratio = nm / bm
    gain = ratio - 1.0 if better == "higher" else 1.0 - ratio
    if spread > bound:
        return "unresolved", ratio, spread
    if gain < -bound:
        return "worse", ratio, spread
    if gain > bound:
        return "better", ratio, spread
    return "unchanged", ratio, spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    base_runs, new_runs = load(argv[0]), load(argv[1])
    worse = 0
    header = (f"{'workload':16s} {'metric':18s} {'base q1/med/q3':>32s} "
              f"{'new q1/med/q3':>32s} {'new/base':>9s} {'spread':>7s}  verdict")
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base_runs or workload not in new_runs:
            print(f"{workload:16s} (no runs on "
                  f"{'base' if workload not in base_runs else 'new'} side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = base_runs[workload].get(name)
            new = new_runs[workload].get(name)
            if not base or not new:
                continue
            word, ratio, spread = verdict(
                base, new, metric["better"], metric["bound"]
            )
            worse += word == "worse"
            print(
                f"{workload:16s} {name:18s} {_fmt(base):>32s} {_fmt(new):>32s} "
                f"{ratio:9.3f} {spread:7.1%}  {word} "
                f"(n={len(base)}/{len(new)}, bound {metric['bound']:.0%}, "
                f"base {statistics.median(base):.4g} {metric['unit']})"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
