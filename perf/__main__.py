"""``python -m perf run | trace | compare`` - the benchmark's command line.

``run`` measures every workload (each in a fresh interpreter, through
``perf/run.py``, exactly as the driver does), prints every end-to-end metric
with its unit, checks the outputs and writes one results file; ``trace``
repeats the workloads with the timing wrappers on and reports the per-layer
metrics; ``compare`` sets two results files side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from perf import compare, inputs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"


def seeds_of(text: str) -> list:
    """``"11"`` -> [11]; ``"1-10"`` -> [1, ..., 10]; ``"3,5"`` -> [3, 5]."""
    seeds: list = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def measure(args, traced: bool) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds
    if seconds is None:
        seconds = 1 if args.smoke else json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else list(inputs.SPECS)
    runs = []
    status = 0
    for seed in seeds_of(args.seeds):
        run = {"seed": seed, "workloads": {}}
        for workload in workloads:
            record = OUT / f"record-{workload}.json"
            record.unlink(missing_ok=True)
            command = [
                sys.executable, str(ROOT / "perf" / "run.py"),
                "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(traced)), "--out", str(record),
            ]
            if args.smoke:
                command.append("--smoke")
            if traced:
                command += ["--spans", str(OUT / f"trace-{workload}.json")]
            code = subprocess.run(command).returncode
            if code or not record.exists():
                print(f"{workload}: no result (exit code {code})")
                status = 1
                continue
            run["workloads"][workload] = json.loads(record.read_text())
            record.unlink()
            if not run["workloads"][workload]["checks"]["correct"]:
                status = 1
        runs.append(run)
    kind = "trace" if traced else "results"
    target = Path(args.out) if args.out else OUT / f"{kind}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    target.write_text(json.dumps({"runs": runs}, indent=1))
    print(f"wrote {target}" + ("" if status == 0 else "  (some workload failed or was incorrect)"))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        sub = commands.add_parser(name)
        sub.add_argument("--seeds", default="11", help="e.g. 11, 1-10 or 3,5 (default 11)")
        sub.add_argument("--seconds", type=float, help="timed seconds (default: BENCHMARK.json)")
        sub.add_argument("--smoke", action="store_true", help="about 1/50 of the size, 1 s each")
        sub.add_argument("--workloads", help="comma-separated subset")
        sub.add_argument("--out", help="results file (default perf/out/<kind>-<time>.json)")
    sub = commands.add_parser("compare")
    sub.add_argument("files", nargs="+", help="A.json B.json [more pairs...]")
    args = parser.parse_args()
    if args.command == "compare":
        return compare.main(args.files)
    return measure(args, traced=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
