#!/usr/bin/env python3
"""Price every ``RuntimeConfig`` knob on the five ``perf`` workloads.

    python benchmarks/ablation.py            # 5 rounds at BENCHMARK.json's run_seconds
    python benchmarks/ablation.py --smoke    # 1/50 size, one round, 1 s per run

Per workload: a baseline run and one run per knob of :data:`FLIPS` flipped
alone (``n/a`` where the workload's config gives it nothing to act on), each a
fresh interpreter running ``perf.run.run()`` on the flipped spec: the oracle
checks every delivery, round 1 (seed 11) the pinned digests.  Round r runs
seed 11 + r in a rotated order; ``perf.compare.verdict`` judges each cell with
the default in the parent's place (``improved``: the flip wins).  The output
keeps its ``deleted`` list: runs of since-removed knobs, recorded on an older
tree with ``--flip``.  Exits 1 if a run failed, answered wrongly or broke a pin.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf import compare, inputs  # noqa: E402  (read-only; perf.run only in a child)

FLIPS = (("metrics", True), ("route_dispatch", False), ("executor", "serial"))
QUIET = 0.05  # deletion candidates move docs_per_s and publish_p50_ms by at most this


def applies(flip: tuple, config: tuple) -> bool:
    """Whether ``flip`` changes anything under a workload's own ``config``."""
    return flip[0] not in ("route_dispatch", "executor") or dict(config).get("shards", 1) > 1


def label(flip) -> str:
    return "default" if flip is None else f"{flip[0]}={flip[1]}"


def parse_flip(text: str) -> tuple:
    """``"metrics=True"`` -> ``("metrics", True)``, ``"shards=4"`` -> ``("shards", 4)``,
    ``"executor=serial"`` -> ``("executor", "serial")``."""
    knob, _, value = text.partition("=")
    if value.lstrip("-").isdigit():
        return knob, int(value)
    return knob, {"True": True, "False": False}.get(value, value)


def child(task: dict) -> int:
    """One run in this interpreter: ``perf.run.run()`` on the flipped spec."""
    from perf import run  # rewrites sys.path[0] on import

    env = run.hygienic_environment()
    if env is not None:  # PYTHONHASHSEED only takes effect at interpreter start-up
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if task["flip"]:
        spec = inputs.SPECS[task["workload"]]
        flipped = spec.config + (tuple(task["flip"]),)
        inputs.SPECS[spec.name] = dataclasses.replace(spec, config=flipped)
    keys = ("workload", "seed", "seconds", "smoke", "out")
    return run.run(argparse.Namespace(trace=0, spans=None, **{k: task[k] for k in keys}))


def launch(workload: str, flip, seed: int, args) -> dict | None:
    """One child run: its ``perf/run.py`` record, or ``None`` if it left none."""
    with tempfile.TemporaryDirectory() as scratch:
        task = dict(workload=workload, flip=flip, seed=seed, seconds=args.seconds,
                    smoke=args.smoke, out=f"{scratch}/record.json")
        try:
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(task)],
                           stdout=subprocess.DEVNULL, timeout=900)
            return json.loads(Path(task["out"]).read_text())
        except (subprocess.TimeoutExpired, FileNotFoundError):
            return None


def ok(record) -> bool:
    return record is not None and record["checks"]["correct"] and not record["failed"]


def cell(base: list, runs: list, metric: dict) -> dict:
    """Quartiles, ratio of medians and verdict of one metric, default vs. flipped."""
    parent, change = ([r["end_to_end"][metric["name"]]["value"] for r in rs] for rs in (base, runs))
    verdict, ratio = compare.verdict(parent, change, metric["better"], metric["bound"])
    default, flipped = ([float(f"{v:.4g}") for v in compare.quartiles(x)] for x in (parent, change))
    return {"default": default, "flipped": flipped, "ratio": round(ratio, 3), "verdict": verdict}


def rows_of(records: dict, workloads: list, flips, metrics: list) -> list:
    """One row per (workload, flip); ``records[(workload, label)]`` lists its runs."""
    rows = []
    for workload in workloads:
        base = records[(workload, "default")]
        for flip in flips:
            row = {"workload": workload, "flip": label(flip)}
            runs = records.get((workload, row["flip"]))
            if runs is None:
                row["verdict"] = "n/a"
            elif not all(map(ok, base + runs)):
                row["verdict"] = "failed"
            else:
                row["metrics"] = {m["name"]: cell(base, runs, m) for m in metrics}
            rows.append(row)
    return rows


def ranking(rows: list) -> dict:
    """Per knob its worst ``docs_per_s`` ratio; *harmful* defaults (a flip wins a
    cell); *deletion candidates* (every cell ``unchanged``, docs/s and p50 within 5%)."""
    by_knob: dict = {}
    for row in rows:
        if row.get("verdict") != "n/a":
            by_knob.setdefault(row["flip"].split("=")[0], []).append(row.get("metrics"))
    worst = sorted((min(c["docs_per_s"]["ratio"] for c in cs if c), k) for k, cs in by_knob.items() if any(cs))
    harmful = [{"flip": r["flip"], "workload": r["workload"],
                "improved": [n for n, c in r["metrics"].items() if c["verdict"] == "improved"]}
               for r in rows if "metrics" in r]

    def quiet(cells) -> bool:
        return bool(cells) and all(c["verdict"] == "unchanged" for c in cells.values()) and all(
            abs(cells[name]["ratio"] - 1) <= QUIET for name in ("docs_per_s", "publish_p50_ms"))

    return {"worst_docs_per_s_ratio": {knob: ratio for ratio, knob in worst},
            "harmful_defaults": [h for h in harmful if h["improved"]],
            "deletion_candidates": [k for k, cs in by_knob.items() if all(map(quiet, cs))]}


def commit() -> str:
    """``HEAD``, suffixed ``+changes`` when tracked files differ from it."""
    git = ["git", "-C", str(ROOT)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    dirty = head and subprocess.run(git + ["diff", "--quiet", "HEAD", "--"]).returncode
    return (head or "unknown") + ("+changes" if dirty else "")


def dump(doc: dict) -> str:
    """``doc`` as JSON with one line per row or claim, so that a diff shows which cells moved."""
    def field(key: str, value) -> str:
        if key in ("rows", "claims", "deleted"):
            return "[\n" + ",\n".join(map(dump if key == "deleted" else json.dumps, value)) + "\n]"
        return json.dumps(value, indent=1)

    return "{\n" + ",\n".join(f"{json.dumps(k)}: {field(k, v)}" for k, v in doc.items()) + "\n}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, help="default 5 (1 with --smoke)")
    parser.add_argument("--smoke", action="store_true", help="1/50 of the size, one round, 1 s per run")
    parser.add_argument("--workloads", help="comma-separated subset of the five")
    parser.add_argument("--flip", action="append", type=parse_flip, help="knob=value, in place of FLIPS")
    parser.add_argument("--out", help="default BENCH_ablation.json (ablation-smoke.json with --smoke)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(json.loads(args.child))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.rounds = args.rounds or (1 if args.smoke else 5)
    args.seconds = 1.0 if args.smoke else float(benchmark["run_seconds"])
    workloads = args.workloads.split(",") if args.workloads else list(inputs.SPECS)
    flips = args.flip or FLIPS
    out = Path(args.out or ROOT / ("ablation-smoke.json" if args.smoke else "BENCH_ablation.json"))

    begun = time.perf_counter()
    records: dict = {}
    for round_ in range(args.rounds):
        for workload in workloads:
            runs = [None] + [f for f in flips if applies(f, inputs.SPECS[workload].config)]
            shift = round_ % len(runs)
            for flip in runs[shift:] + runs[:shift]:
                record = launch(workload, flip, 11 + round_, args)
                records.setdefault((workload, label(flip)), []).append(record)
                docs = record["end_to_end"]["docs_per_s"]["value"] if record else float("nan")
                print(f"round {round_ + 1}/{args.rounds} {workload:19s} {label(flip):22s}"
                      f" {docs:8.1f} docs/s  {'ok' if ok(record) else 'FAILED'}", flush=True)

    rows = rows_of(records, workloads, flips, benchmark["end_to_end"])
    env = next((r["env"] for runs in records.values() for r in runs if r), {})
    meta = {"commit": commit(), "nproc": len(os.sched_getaffinity(0)), "numpy": env.get("numpy"),
            "python": env.get("python"), "seconds": args.seconds, "rounds": args.rounds,
            "smoke": args.smoke, "wall_s": round(time.perf_counter() - begun, 1)}
    deleted = json.loads(out.read_text()).get("deleted") if out.exists() else None
    doc = {"meta": meta, "ranking": ranking(rows), "rows": rows, **({"deleted": deleted} if deleted else {})}
    out.write_text(dump(doc) + "\n")
    failed = [f"{r['workload']} {r['flip']}" for r in rows if r.get("verdict") == "failed"]
    print(f"wrote {out}" + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
