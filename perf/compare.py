"""``python -m perf compare A.json B.json [more pairs...]``.

Each file holds one or more complete runs (``python -m perf run --seeds ...``);
the runs of A and B pair up in order, and further file pairs add further run
pairs.  A is the parent, B the change.  One row per workload and end-to-end
metric, no combined score.  The verdicts follow the choosing-metrics guide:

* ``unresolved``: the parent's own spread (quartile distance over median)
  is wider than the metric's bound, so nothing can be said;
* ``regressed``: the change's median is worse than the parent's by more than
  the bound;
* ``improved``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``unchanged``: none of these.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """``(verdict, ratio of medians)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p_low, p_mid, p_high = quartiles(parent)
    c_mid = quartiles(change)[1]
    ratio = c_mid / p_mid if p_mid else float("nan")
    gain = sign * (c_mid - p_mid)  # positive: the change is better
    if p_mid and (p_high - p_low) / abs(p_mid) > bound:
        return "unresolved", ratio
    if p_mid and -gain / abs(p_mid) > bound:
        return "regressed", ratio
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if wins >= 0.9 * len(parent) and gain > p_high - p_low:
        return "improved", ratio
    return "unchanged", ratio


def load_runs(path: str) -> list:
    return json.loads(Path(path).read_text())["runs"]


def compare(paths: list) -> list:
    """Rows ``(workload, metric, unit, parent quartiles, change quartiles, ratio, verdict)``."""
    if len(paths) < 2 or len(paths) % 2:
        raise SystemExit("compare needs file pairs: A.json B.json [A2.json B2.json ...]")
    parents: list = []
    changes: list = []
    for a, b in zip(paths[::2], paths[1::2]):
        runs_a, runs_b = load_runs(a), load_runs(b)
        if len(runs_a) != len(runs_b):
            raise SystemExit(f"{a} holds {len(runs_a)} runs and {b} holds {len(runs_b)}")
        parents += runs_a
        changes += runs_b
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = []
    for workload in parents[0]["workloads"]:
        for metric in declared:
            name = metric["name"]

            def values(runs):
                return [run["workloads"][workload]["end_to_end"][name]["value"] for run in runs]

            parent, change = values(parents), values(changes)
            outcome, ratio = verdict(parent, change, metric["better"], metric["bound"])
            rows.append(
                (workload, name, metric["unit"], quartiles(parent), quartiles(change), ratio, outcome)
            )
    return rows


def main(paths: list) -> int:
    rows = compare(paths)
    pairs = sum(len(load_runs(a)) for a in paths[::2])
    print(f"{pairs} pair(s); ratio = change median / parent median; quartiles as q1|median|q3")
    print(f"{'workload':20s} {'metric':22s} {'unit':5s} {'parent':32s} {'change':32s} {'ratio':>7s}  verdict")
    for workload, name, unit, parent, change, ratio, outcome in rows:
        print(
            f"{workload:20s} {name:22s} {unit:5s} "
            f"{'|'.join(f'{v:.4g}' for v in parent):32s} "
            f"{'|'.join(f'{v:.4g}' for v in change):32s} {ratio:7.3f}  {outcome}"
        )
    bad = sorted({outcome for *_, outcome in rows} & {"regressed", "unresolved"})
    print("no cell regressed or unresolved" if not bad else f"cells {' and '.join(bad)}: see above")
    return 0
