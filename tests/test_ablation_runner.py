"""The knob-ablation runner's pure parts, on fabricated run records.

No workload runs here: ``benchmarks.ablation.launch`` (one child interpreter
per run) is replaced by a function returning records shaped like
``perf/run.py``'s.  Only ``perf.inputs`` and ``perf.compare`` are imported;
``perf.run`` rewrites ``sys.path[0]`` on import and lives in the children.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import ablation
from perf import inputs

METRICS = [
    {"name": "docs_per_s", "better": "higher", "bound": 0.25},
    {"name": "publish_p50_ms", "better": "lower", "bound": 0.25},
]
BASE_DOCS = [100.0, 101.0, 99.0, 100.5, 99.5]


def record(docs: float, p50: float, correct: bool = True, failed: int = 0) -> dict:
    return {
        "checks": {"correct": correct},
        "failed": failed,
        "env": {"numpy": True, "python": "3"},
        "end_to_end": {
            "setup_s": {"value": 1.0, "unit": "s"},
            "docs_per_s": {"value": docs, "unit": "1/s"},
            "publish_p50_ms": {"value": p50, "unit": "ms"},
            "subscribe_iqm_ms": {"value": 0.2, "unit": "ms"},
            "setup_mem_mb": {"value": 80.0, "unit": "MB"},
        },
    }


def runs(docs: list) -> list:
    return [record(d, 1000.0 / d) for d in docs]


def test_flips_apply_only_where_the_spec_config_lets_them_act():
    universal = ["metrics"]
    for name, spec in inputs.SPECS.items():
        applied = {flip[0] for flip in ablation.FLIPS if ablation.applies(flip, spec.config)}
        expected = set(universal)
        if name == "topic_fanout_proc2":
            expected |= {"route_dispatch", "executor"}
        assert applied == expected, name
    assert ("executor", "serial") in ablation.FLIPS
    assert ablation.applies(("executor", "serial"), (("shards", 2),))
    assert not ablation.applies(("executor", "serial"), (("shards", 1),))
    assert ablation.parse_flip("auto_prune=False") == ("auto_prune", False)
    assert ablation.parse_flip("executor=serial") == ("executor", "serial")
    assert ablation.label(("executor", "serial")) == "executor=serial"
    # integer knobs parse as integers, not as the strings a config rejects
    assert ablation.parse_flip("shards=4") == ("shards", 4)
    assert ablation.parse_flip("stream_history=0") == ("stream_history", 0)


def test_verdicts_and_ranking_from_fabricated_records():
    flips = [("route_dispatch", False), ("auto_prune", False), ("metrics", True), ("executor", "serial")]
    records = {}
    for workload in ("w1", "w2"):
        records[(workload, "default")] = runs(BASE_DOCS)
        # the default pays for itself on w1 only
        records[(workload, "route_dispatch=False")] = runs(
            [d / 2 for d in BASE_DOCS] if workload == "w1" else BASE_DOCS[::-1]
        )
        # a harmful default: turning it off wins every pair on w1
        records[(workload, "auto_prune=False")] = runs(
            [d * 1.3 for d in BASE_DOCS] if workload == "w1" else BASE_DOCS[1:] + BASE_DOCS[:1]
        )
        # priced at zero everywhere: the same values, in another order
        records[(workload, "metrics=True")] = runs(BASE_DOCS[2:] + BASE_DOCS[:2])
        # executor=serial applies to neither: no runs, so n/a

    rows = ablation.rows_of(records, ["w1", "w2"], flips, METRICS)
    cells = {(row["workload"], row["flip"]): row for row in rows}
    assert len(rows) == 8
    assert cells[("w1", "executor=serial")] == {
        "workload": "w1", "flip": "executor=serial", "verdict": "n/a"
    }
    slow = cells[("w1", "route_dispatch=False")]["metrics"]
    assert slow["docs_per_s"]["verdict"] == "regressed"
    assert slow["docs_per_s"]["ratio"] == 0.5
    assert slow["publish_p50_ms"]["verdict"] == "regressed"
    assert cells[("w2", "route_dispatch=False")]["metrics"]["docs_per_s"]["verdict"] == "unchanged"

    ranking = ablation.ranking(rows)
    assert list(ranking["worst_docs_per_s_ratio"]) == ["route_dispatch", "auto_prune", "metrics"]
    assert ranking["worst_docs_per_s_ratio"]["route_dispatch"] == 0.5
    assert ranking["harmful_defaults"] == [
        {"flip": "auto_prune=False", "workload": "w1", "improved": ["docs_per_s", "publish_p50_ms"]}
    ]
    assert ranking["deletion_candidates"] == ["metrics"]


@pytest.mark.parametrize("broken", [None, record(100.0, 10.0, correct=False)], ids=["no-record", "incorrect"])
def test_a_failed_or_incorrect_child_fails_its_cell_and_the_run(broken, monkeypatch, tmp_path, capsys):
    def launch(workload, flip, seed, args):
        return broken if flip == ("auto_prune", False) else record(100.0, 10.0)

    monkeypatch.setattr(ablation, "launch", launch)
    out = tmp_path / "ablation.json"
    argv = ["--rounds", "2", "--workloads", "ingest_cites",
            "--flip", "metrics=True", "--flip", "auto_prune=False", "--out", str(out)]
    assert ablation.main(argv) == 1
    written = json.loads(out.read_text())
    verdicts = {row["flip"]: row.get("verdict") for row in written["rows"]}
    assert verdicts == {"metrics=True": None, "auto_prune=False": "failed"}
    assert written["meta"]["rounds"] == 2
    assert "failed: ingest_cites auto_prune=False" in capsys.readouterr().out
    assert ablation.main(argv[:-4] + ["--out", str(out)]) == 0  # metrics alone
    assert "deleted" not in json.loads(out.read_text())


def test_a_rewrite_keeps_the_deleted_knobs_rows(monkeypatch, tmp_path):
    monkeypatch.setattr(ablation, "launch", lambda *args: record(100.0, 10.0))
    out = tmp_path / "ablation.json"
    old = {"meta": {"commit": "parent"}, "rows": [], "ranking": {}}
    out.write_text(json.dumps({"rows": [], "deleted": [old]}))
    argv = ["--rounds", "1", "--workloads", "dblp_steady", "--flip", "metrics=True", "--out", str(out)]
    assert ablation.main(argv) == 0
    assert json.loads(out.read_text())["deleted"] == [old]
