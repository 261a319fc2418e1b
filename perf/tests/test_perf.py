"""Checks of the benchmark itself, at smoke scale.

Run with ``python -m pytest perf/tests -q`` from the repository root; not part
of tier-1 (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import compare, inputs, oracle, trace  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NPROC = len(os.sched_getaffinity(0))
RUNNABLE = [w for w in WORKLOADS if NPROC >= 2 or w != "topic_fanout_proc2"]


def perf_cli(*args: str) -> float:
    """Run ``python -m perf ...`` from the repository root; returns its wall seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "perf", *args], cwd=ROOT, check=True)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("perf")
    results, traced = out / "results.json", out / "trace.json"
    workloads = ",".join(RUNNABLE)
    seconds = perf_cli("run", "--smoke", "--workloads", workloads, "--out", str(results))
    perf_cli("trace", "--smoke", "--workloads", workloads, "--out", str(traced))
    return {
        "seconds": seconds,
        "results_path": results,
        "results": json.loads(results.read_text())["runs"][0]["workloads"],
        "traced": json.loads(traced.read_text())["runs"][0]["workloads"],
    }


def test_benchmark_json_matches_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert WORKLOADS == list(inputs.SPECS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25


def test_smoke_command_is_quick(smoke):
    assert smoke["seconds"] < 30


@pytest.mark.parametrize("workload", RUNNABLE)
def test_every_declared_metric_is_emitted_and_no_other(smoke, workload):
    for kind, record in (("end_to_end", smoke["results"]), ("per_layer", smoke["traced"])):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        emitted = record[workload][kind]
        assert set(emitted) == set(declared)
        for name, metric in emitted.items():
            assert metric["unit"] == declared[name]
            assert math.isfinite(metric["value"])
            # -1 declares "could not be measured here"; nothing else is negative
            # but the overhead, which is a difference of two noisy rates.
            assert metric["value"] >= 0 or metric["value"] == trace.UNMEASURED or name == "trace.overhead_share"


@pytest.mark.parametrize("workload", RUNNABLE)
def test_outputs_are_checked_and_correct(smoke, workload):
    for record in (smoke["results"][workload], smoke["traced"][workload]):
        assert record["checks"]["correct"] is True
        assert record["checks"]["mismatched_publishes"] == 0
        assert record["failed"] == 0 < record["attempted"]
    assert smoke["traced"][workload]["missing_targets"] == []


def test_fan_out_workloads_share_inputs_and_deliveries(smoke):
    if "topic_fanout_proc2" not in RUNNABLE:
        pytest.skip("needs 2 processors")
    one, two = (smoke["results"][w]["checks"] for w in ("topic_fanout", "topic_fanout_proc2"))
    assert one["input_sha256"] == two["input_sha256"]
    assert (one["setup_delivered"], one["setup_digest"]) == (
        two["setup_delivered"], two["setup_digest"]
    )
    assert one["setup_delivered"] > 0


def test_driver_line_has_exactly_the_contract_keys():
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "ingest_cites", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_self_times_of_a_root_add_up_to_its_duration(smoke):
    spans = json.loads((ROOT / "perf" / "out" / f"trace-{RUNNABLE[0]}.json").read_text())
    self_time = [s["end"] - s["start"] for s in spans]
    root_of = []
    for index, span in enumerate(spans):
        if span["parent"] < 0:
            root_of.append(index)
        else:
            self_time[span["parent"]] -= span["end"] - span["start"]
            root_of.append(root_of[span["parent"]])
            assert span["op"] == spans[span["parent"]]["op"]
    subtree = Counter()
    for index, root in enumerate(root_of):
        subtree[root] += self_time[index]
    assert len(subtree) > 10
    for root, total in subtree.items():
        assert total == pytest.approx(spans[root]["end"] - spans[root]["start"], abs=1e-9)
        assert min(self_time) > -1e-9


def test_compare_of_a_file_with_itself_is_all_unchanged(smoke):
    rows = compare.compare([str(smoke["results_path"])] * 2)
    assert len(rows) == len(RUNNABLE) * len(BENCHMARK["end_to_end"])
    assert {row[-1] for row in rows} == {"unchanged"}


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.verdict(steady, [v * 1.2 for v in steady], "higher", 0.08)[0] == "improved"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.08)[0] == "regressed"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.08)[0] == "regressed"
    assert compare.verdict(steady, [v * 1.01 for v in steady[::-1]], "higher", 0.08)[0] == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, noisy, "higher", 0.08)[0] == "unresolved"


def test_inputs_come_from_the_seed_alone_and_match_their_pins():
    pins = json.loads((ROOT / "perf" / "pins.json").read_text())
    for name, spec in inputs.SPECS.items():
        digest = inputs.input_digest(inputs.generate(spec, 11))
        assert digest == inputs.input_digest(inputs.generate(spec, 11))
        assert digest != inputs.input_digest(inputs.generate(spec, 12))
        assert digest == pins[name]["input_sha256"]


@pytest.mark.parametrize("workload", ["dblp_steady", "topic_fanout"])
def test_oracle_agrees_with_the_sequential_engine_under_ablation(workload):
    """The paper's baseline - no templates, indexes, plans or deltas - is the only
    independent path the program has; the oracle that checks every run is itself
    checked against it here, where the sizes make that affordable."""
    import repro

    spec = inputs.smoke(inputs.SPECS[workload])
    data = inputs.generate(spec, 11)
    delivered: Counter = Counter()
    config = repro.RuntimeConfig.ablation(
        engine="sequential", construct_outputs=False, store_documents=False
    )
    model = oracle.Oracle(spec.window)
    expected: Counter = Counter()
    with repro.open_broker(config) as broker:
        for index, sub in enumerate(data.subscriptions):
            broker.subscribe(
                sub.text,
                subscription_id=f"q{index}",
                callback=lambda r: delivered.update(
                    [(r.subscription_id, int(r.match.lhs_timestamp), int(r.match.rhs_timestamp))]
                ),
            )
            model.subscribe(f"q{index}", sub)
        for doc in (data.warmup + data.documents)[:120]:
            broker.publish(doc.text, stream=doc.stream)
            expected.update(model.publish(doc))
    assert sum(expected.values()) > 0
    assert delivered == expected


def test_a_target_that_no_longer_resolves_degrades_to_unmeasured():
    script = (
        "import sys; sys.path[:0] = ['src', '.']\n"
        "from perf import trace\n"
        "trace.TARGETS += (('core.process', 'repro.core.processor.Renamed.process'),\n"
        "                  ('gone', 'repro.no_such_module.f'))\n"
        "trace.install()\n"
        "assert trace.missing == ['repro.core.processor.Renamed.process', 'repro.no_such_module.f']\n"
        "summary = trace.Summary(0.0, 1.0)\n"
        "assert summary.ms_per(10, 'core.process') == trace.UNMEASURED\n"
        "assert summary.us_per_call('gone') == trace.UNMEASURED\n"
        "assert summary.ms_per(10, 'core.relevance') == 0.0\n"
    )
    subprocess.run([sys.executable, "-c", script], cwd=ROOT, check=True)
