"""Compare two sets of benchmark results.

Usage::

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Each file holds the records ``perfbench/run.py --record FILE`` appends,
one run per line, in the order the runs were made.  With one file the
command prints, for each workload and end-to-end metric, the median, the
quartiles and the spread (quartile distance over the median) against
the metric's bound.  With two it adds, per row, the change's figures and
a verdict under the rules of the benchmark's design notes:

``better``
    the change wins at least nine tenths of the run pairs (ties count
    for neither side), its median beats the parent's by more than the
    parent's own quartile distance, and no more operations failed;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    the parent's spread is wider than the bound, so "no worse by more
    than the bound" cannot be shown, and not every change run beats
    every parent run;
``same``
    none of the above: within the bound.

A side with a run whose correctness checks failed gets ``invalid``.
Exit status: 0, or 1 when any row is ``worse`` or ``invalid``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path: str) -> Dict[str, List[dict]]:
    """Records grouped by workload, in file order."""
    groups: Dict[str, List[dict]] = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            groups.setdefault(record["provenance"]["workload"], []).append(
                record)
    return groups


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    failed: Tuple[int, int],
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, p2, p3 = quartiles(parent)
    _, c2, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c2 - p2)
    if (
        pairs and wins >= 0.9 * len(pairs)
        and gain > (p3 - p1)
        and failed[1] <= failed[0]
    ):
        return "better"
    if -gain > bound * abs(p2):
        return "worse"
    everyone_better = min(sign * c for c in change) > max(
        sign * p for p in parent
    )
    if spread(parent) > bound and not everyone_better:
        return "unresolved"
    return "same"


def rows(parent: Dict[str, List[dict]],
         change: Optional[Dict[str, List[dict]]]) -> List[List[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = []
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = parent.get(workload, [])
        other = change.get(workload, []) if change is not None else []
        if not runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            row = [workload, name, metric["unit"], str(len(values)),
                   f"{q2:.4g}", f"{q1:.4g}..{q3:.4g}",
                   f"{spread(values):.3f}/{metric['bound']}"]
            if change is not None:
                if not other:
                    row += ["-", "-", "-", "missing"]
                else:
                    theirs = [r["metrics"][name]["value"] for r in other]
                    c1, c2, c3 = quartiles(theirs)
                    if not all(r["correct"] for r in runs + other):
                        label = "invalid"
                    else:
                        label = verdict(
                            values, theirs, metric["better"], metric["bound"],
                            (sum(r["failed"] for r in runs),
                             sum(r["failed"] for r in other)),
                        )
                    row += [str(len(theirs)), f"{c2:.4g}",
                            f"{c1:.4g}..{c3:.4g}", label]
            out.append(row)
    return out


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    parent = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    header = ["workload", "metric", "unit", "n", "median", "q1..q3",
              "spread/bound"]
    if change is not None:
        header += ["n'", "median'", "q1'..q3'", "verdict"]
    table = [header] + rows(parent, change)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    verdicts = [r[-1] for r in table[1:]] if change is not None else []
    return 1 if {"worse", "invalid"} & set(verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
