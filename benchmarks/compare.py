"""Compare two sets of benchmark records, end-to-end metric by metric.

    python3 benchmarks/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*.json`` records that ``run.py`` writes to
``benchmarks/results/`` (copy them aside per commit). Untraced records
are grouped by workload; for each end-to-end metric of ``BENCHMARK.json``
the script prints both sides' median and quartiles over their runs and a
verdict:

- ``regression``: the change's median is worse than the base's by more
  than the metric's bound;
- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound, and not every change run beats every base run;
- ``better``: runs paired by seed favour the change in at least 9 of 10
  pairs (ties count for neither) and the medians differ by more than the
  base's quartile spread;
- ``unchanged``: none of the above.

Traced records are compared on their exact counts (``.calls`` and the
computed counts): any difference is listed, since a count that moves was
changed by the code, not by noise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_SUFFIXES = (".calls", "matrix_bytes", ".flops", ".points", "bytes_written")


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(metric: dict, base: dict[int, float], change: dict[int, float]) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    b_med, b_q1, b_q3 = summary(list(base.values()))
    c_med, c_q1, c_q3 = summary(list(change.values()))
    if sign * (c_med - b_med) > bound * abs(b_med):
        return "regression"
    all_better = max(sign * v for v in change.values()) < min(sign * v for v in base.values())
    wide = (b_q3 - b_q1) > bound * abs(b_med) or (c_q3 - c_q1) > bound * abs(c_med)
    if wide and not all_better:
        return "unresolved"
    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(sign * (c - b) < 0 for b, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (b_med - c_med) > b_q3 - b_q1:
        return "better"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, change = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        runs = [
            [r for r in side if r["workload"] == workload and r["trace"] == 0]
            for side in (base, change)
        ]
        if not all(runs):
            continue
        print(f"{workload}: {len(runs[0])} base runs, {len(runs[1])} change runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = (
                {r["seed"]: r["result"]["metrics"][name]["value"] for r in side}
                for side in runs
            )
            (bm, b1, b3), (cm, c1, c3) = summary(list(b.values())), summary(list(c.values()))
            print(
                f"  {name:<14} base {bm:.6g} [{b1:.6g}, {b3:.6g}]"
                f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}] {metric['unit']}"
                f"  {(cm - bm) / bm:+.1%}  {verdict(metric, b, c)}"
            )
        traced = [
            [r for r in side if r["workload"] == workload and r["trace"] == 1]
            for side in (base, change)
        ]
        if all(traced):
            bm, cm = (side[0]["result"]["metrics"] for side in traced)
            moved = [
                f"{k}: {bm[k]['value']} -> {cm[k]['value']}"
                for k in bm
                if k.endswith(EXACT_SUFFIXES) and k in cm and bm[k]["value"] != cm[k]["value"]
            ]
            print(f"  exact counts: {'; '.join(moved) if moved else 'identical'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
