#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records that ``perfbench/run.py`` writes to
``.perfbench_out/runs/``; only untraced runs count.  For every end-to-end
metric in BENCHMARK.json a row gives each side's median and quartiles, the
share of pairs the new side won (runs paired in the order they started, ties
counting for neither) and a verdict.  Make the runs of the two sides
alternately, base first in one pair and new first in the next: machine speed
drifts by more than a tenth over minutes on a shared host, and only
alternation spreads that drift over both sides.  The verdicts, checked in
this order:

* ``unresolved``: the quartile distance of either side, as a share of its
  median, is wider than the bound, and not every new run beats every base
  run;
* ``improved``: the new side won at least nine tenths of the pairs and the
  medians differ by more than the distance between the base's quartiles;
* ``no worse``: the new median is worse than the base median by at most the
  metric's bound;
* ``worse``: none of these.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    won = sum(sign * (b - n) > 0 for b, n in pairs) / len(pairs)
    spread = max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed))
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if spread > bound and not all_better:
        return "unresolved", won
    if won >= 0.9 and sign * (bmed - nmed) > bq3 - bq1:
        return "improved", won
    if sign * (nmed - bmed) <= bound * abs(bmed):
        return "no worse", won
    return "worse", won


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    base, new = (load_runs(Path(d)) for d in argv)
    print(f"{'workload':<15} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'won':>5}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        if min(len(b_runs), len(n_runs)) < 2:
            print(f"{workload:<15} needs at least two runs per side")
            continue
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            n = [r["metrics"][m["name"]]["value"] for r in n_runs]
            word, won = verdict(b, n, m["bound"], m["better"] == "lower")
            cells = []
            for values in (b, n):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}")
            print(f"{workload:<15} {m['name']:<12} {cells[0]:>30} {cells[1]:>30} {won:>5.0%}  {word}")
        failed = [sum(r["failed"] for r in runs) for runs in (b_runs, n_runs)]
        attempted = [sum(r["attempted"] for r in runs) for runs in (b_runs, n_runs)]
        print(f"{workload:<15} {'failed':<12} {f'{failed[0]} of {attempted[0]}':>30} "
              f"{f'{failed[1]} of {attempted[1]}':>30}"
              + ("        more operations failed" if failed[1] > failed[0] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
