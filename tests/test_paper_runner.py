"""The paper-evaluation runner: claims on made-up rows, smoke-size experiments,
and the exit status when an exact claim fails.

``benchmarks/paper.py`` regenerates Table 3, figures 8-16 and the ablations;
here only tiny sizes run, and :func:`paper.main` is driven with experiments
replaced by functions returning made-up rows.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import paper


def rows(point: dict, mmqjp_ms: float, sequential_ms: float, matches=(3, 3)) -> list:
    """A technical-benchmark point: one MMQJP and one Sequential row."""
    return [{**point, "approach": "mmqjp", "num_templates": 2, "ms": mmqjp_ms, "num_matches": matches[0]},
            {**point, "approach": "sequential", "num_templates": None, "ms": sequential_ms,
             "num_matches": matches[1]}]


def timing(experiment: str) -> paper.Claim:
    return next(c for c in paper.CLAIMS if c.experiments[0] == experiment and not c.exact)


def verdict(claim: paper.Claim, smoke: bool = False, **results) -> str:
    return paper.evaluate(claim, results, smoke)["verdict"]


def sweep(key: str, points: dict) -> list:
    """``points`` maps a value of ``key`` to (MMQJP ms, Sequential ms)."""
    return [r for value, (m, s) in points.items() for r in rows({key: value, "num_queries": 1000}, m, s)]


def test_timing_claims_on_made_up_rows():
    fig08 = [*rows({"num_queries": 10}, 1.0, 1.5), *rows({"num_queries": 5000}, 2.0, 40.0)]
    evaluated = paper.evaluate(timing("fig08"), {"fig08": fig08}, smoke=False)
    assert evaluated["verdict"] == "holds" and evaluated["kind"] == "timing"
    assert evaluated["measured"] == {"sequential/mmqjp at 10": 1.5, "sequential/mmqjp at 5000": 20.0}
    fig08[-1]["ms"] = 19.0  # only 9.5x at the top of the sweep
    assert verdict(timing("fig08"), fig08=fig08) == "fails"
    assert verdict(timing("fig08"), smoke=True, fig08=fig08) == "not evaluated"

    assert verdict(timing("fig09"), fig09=sweep("num_leaves", {4: (1, 2), 12: (2, 4)})) == "holds"
    assert verdict(timing("fig09"), fig09=sweep("num_leaves", {4: (1, 2), 12: (1.2, 4)})) == "fails"
    assert verdict(timing("fig10"), fig10=sweep("zipf", {0.0: (1, 4), 1.6: (1.5, 2)})) == "holds"
    assert verdict(timing("fig13"), fig13=sweep("zipf", {0.0: (1, 4), 1.6: (2.5, 2)})) == "fails"
    fig12 = sweep("max_value_joins", {2: (1, 10), 5: (4, 20)})
    assert verdict(timing("fig12"), fig12=fig12) == "holds"
    assert paper.evaluate(timing("fig12"), {"fig12": fig12}, False)["measured"]["templates_by_K"] == {2: 2, 5: 2}

    def vm(mmqjp_ms, vm_ms):
        return [{"approach": "mmqjp", "ms": mmqjp_ms}, {"approach": "mmqjp-vm", "ms": vm_ms}]

    assert verdict(timing("fig14"), fig14=vm(10, 9)) == "holds"
    by_more = next(c for c in paper.CLAIMS if c.experiments == ("fig15", "fig14"))
    assert verdict(by_more, fig15=vm(10, 8), fig14=vm(10, 9)) == "holds"
    assert verdict(by_more, fig15=vm(10, 9.5), fig14=vm(10, 9)) == "fails"
    assert verdict(by_more, fig15=vm(10, 8)) == "not evaluated"  # fig14 did not run

    fig16 = [{"num_queries": 1000, "approach": a, "events_per_s": e}
             for a, e in (("mmqjp-vm", 500.0), ("mmqjp", 400.0), ("sequential", 30.0))]
    assert verdict(timing("fig16"), fig16=fig16) == "holds"
    fig16.append({"num_queries": 5000, "approach": "mmqjp", "events_per_s": 100.0})  # no Sequential there
    assert verdict(timing("fig16"), fig16=fig16) == "holds"
    fig16[1]["events_per_s"] = 200.0
    assert verdict(timing("fig16"), fig16=fig16) == "fails"


def test_exact_claims_on_made_up_rows():
    agree = next(c for c in paper.CLAIMS if c.exact and c.experiments == ("fig08",))
    assert verdict(agree, fig08=rows({"num_queries": 10}, 1, 1)) == "holds"
    evaluated = paper.evaluate(agree, {"fig08": rows({"num_queries": 10}, 1, 1, matches=(3, 4))}, smoke=True)
    assert evaluated["verdict"] == "fails" and evaluated["measured"] == {"10": [3, 4]}

    table3 = next(c for c in paper.CLAIMS if c.experiments == ("table3",))
    assert verdict(table3, smoke=True, table3=paper.TABLE3) == "holds"
    assert verdict(table3, table3=paper.TABLE3[:3]) == "fails"

    minor = next(c for c in paper.CLAIMS if c.exact and c.experiments == ("ablation_graph_minor",))
    minor_rows = [{"graph_minor": True, "num_templates": 13, "num_matches": 1, "approach": "mmqjp", "ms": 2.0},
                  {"graph_minor": False, "num_templates": 14, "num_matches": 1, "approach": "mmqjp", "ms": 1.0}]
    assert verdict(minor, smoke=True, ablation_graph_minor=minor_rows) == "holds"
    assert verdict(timing("ablation_graph_minor"), ablation_graph_minor=minor_rows) == "fails"
    minor_rows[1]["num_matches"] = 2
    assert verdict(minor, ablation_graph_minor=minor_rows) == "fails"

    window = next(c for c in paper.CLAIMS if c.exact and c.experiments == ("ablation_window",))
    windows = [{"window": w, "num_matches": m, "events_per_s": e} for w, m, e in ((5.0, 1, 90.0), (None, 4, 80.0))]
    assert verdict(window, ablation_window=windows) == "holds"
    assert verdict(timing("ablation_window"), ablation_window=windows) == "holds"
    windows[0]["num_matches"] = 5
    assert verdict(window, ablation_window=windows) == "fails"


@pytest.mark.parametrize("name", [name for name in paper.EXPERIMENTS if name != "table3"])
def test_each_experiment_at_smoke_size_holds_its_exact_claims(name):
    results = {name: paper.EXPERIMENTS[name](**paper.SMOKE[name])}
    claims = [paper.evaluate(c, results, smoke=True) for c in paper.CLAIMS if c.experiments == (name,)]
    assert [c["verdict"] for c in claims if c["kind"] == "exact"] in (["holds"], ["holds", "holds"])
    assert all(c["verdict"] == "not evaluated" for c in claims if c["kind"] == "timing")
    assert all(row.get("ms", 1) > 0 for row in results[name])


def test_smoke_size_rows():
    assert paper.table3(max_value_joins=2) == paper.TABLE3[:2]

    fig14 = paper.fig14(num_queries=50)
    assert [r["approach"] for r in fig14] == ["mmqjp", "mmqjp-vm"]
    assert all(r["num_templates"] for r in fig14)
    assert {"rvj_ms", "rl_ms", "rr_ms", "conjunctive_query_ms"} <= set(fig14[1])

    fig16 = paper.fig16(num_queries_list=(5, 20), num_items=12, max_sequential_queries=5)
    assert [(r["num_queries"], r["approach"]) for r in fig16] == [
        (5, "mmqjp-vm"), (5, "mmqjp"), (5, "sequential"), (20, "mmqjp-vm"), (20, "mmqjp")]
    assert all(r["events_per_s"] > 0 for r in fig16)

    witness = paper.ablation_witness(num_queries_list=(10, 50))
    assert witness[0]["shared_rows"] == witness[1]["shared_rows"] < witness[1]["flat_rows"]


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
def test_a_failing_exact_claim_fails_the_run_and_a_failing_timing_claim_does_not(smoke, monkeypatch, tmp_path):
    out = tmp_path / "paper.json"
    flags = ["--out", str(out)] + (["--smoke"] if smoke else [])
    argv = ["--only", "fig08", *flags]
    slow = [*rows({"num_queries": 10}, 1.0, 1.0), *rows({"num_queries": 5000}, 1.0, 2.0)]  # MMQJP only 2x
    monkeypatch.setitem(paper.EXPERIMENTS, "fig08", lambda **sizes: slow)
    assert paper.main(argv) == 0
    written = json.loads(out.read_text())
    verdicts = {(c["kind"], c["experiments"][0]): c["verdict"] for c in written["claims"]}
    assert verdicts[("exact", "fig08")] == "holds"
    assert verdicts[("timing", "fig08")] == ("not evaluated" if smoke else "fails")
    assert verdicts[("exact", "table3")] == "not evaluated"  # did not run
    assert written["rows"][0] == {"experiment": "fig08", **slow[0]}
    assert written["meta"]["smoke"] is smoke

    disagreeing = rows({"num_queries": 10}, 1.0, 1.0, matches=(3, 4))
    monkeypatch.setitem(paper.EXPERIMENTS, "fig08", lambda **sizes: disagreeing)
    assert paper.main(argv) == 1

    wrong = [dict(row) for row in paper.TABLE3]
    wrong[3]["templates_complex"] = 145
    monkeypatch.setitem(paper.EXPERIMENTS, "table3", lambda **sizes: wrong)
    assert paper.main(["--only", "table3", *flags]) == 1
    table3 = next(c for c in json.loads(out.read_text())["claims"] if c["experiments"] == ["table3"])
    assert table3["verdict"] == "fails"
