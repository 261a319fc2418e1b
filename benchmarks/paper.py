#!/usr/bin/env python3
"""Regenerate the paper's evaluation (Section 6) and check each figure's shape.

    python benchmarks/paper.py                  # everything, writes BENCH_paper.json
    python benchmarks/paper.py --smoke          # tiny sizes, timing claims not evaluated
    python benchmarks/paper.py --only fig08,table3

Table 3, figures 8-16 and the graph-minor, witness and window ablations,
one function each; every function returns plain row dicts.

* The technical benchmark (Section 6.1: figures 8-15, graph-minor ablation)
  times Stage 2 only.  The witness relations of the two fixed documents are
  built directly and every query is registered; one untimed ``process`` call
  compiles every template's plan; the time is the median of the next
  :data:`CALLS` calls.  ``process`` does not fold the document into the
  state, so the calls are identical.  The per-phase ``*_ms`` columns are
  means over the timed calls.
* The RSS benchmark (Section 6.3: figure 16 and the window ablation)
  streams feed items through a full two-stage engine.  The items are
  serialized and the queries registered before the clock starts.

Each experiment's shape is stated as claims over its rows (:data:`CLAIMS`),
each threshold in the claim's text.  An exact claim (Table 3's counts, the
approaches agreeing on every match count, ...) that fails makes the run exit
1.  A timing claim that fails is recorded and does not; at ``--smoke`` size
timing claims are ``not evaluated``.  The output holds the rows, each
claim's verdict and measured values, and ``meta``.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from benchmarks.ablation import commit, dump  # noqa: E402
from repro.config import RuntimeConfig  # noqa: E402
from repro.core.engine import make_engine  # noqa: E402
from repro.core.processor import MMQJPJoinProcessor, SequentialJoinProcessor  # noqa: E402
from repro.templates.enumerate import template_count_table  # noqa: E402
from repro.templates.join_graph import JoinGraph  # noqa: E402
from repro.templates.registry import TemplateRegistry  # noqa: E402
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries  # noqa: E402
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream  # noqa: E402
from repro.workloads.synthetic import build_technical_benchmark_data  # noqa: E402
from repro.xmlmodel.schema import three_level_schema, two_level_schema  # noqa: E402
from repro.xmlmodel.serialize import to_xml  # noqa: E402

CALLS = 5  # timed process calls per technical measurement
ZIPF = 0.8  # Table 5's default Zipf parameter
TABLE3 = [{"value_joins": 1, "templates_flat": 1, "templates_complex": 1},
          {"value_joins": 2, "templates_flat": 3, "templates_complex": 3},
          {"value_joins": 3, "templates_flat": 6, "templates_complex": 16},
          {"value_joins": 4, "templates_flat": 16, "templates_complex": 146}]


# --------------------------------------------------------------------------- #
# the two benchmarks
# --------------------------------------------------------------------------- #
def registered(approach: str, queries, state, graph_minor: bool = True):
    """A Stage-2 processor for ``approach`` over ``state``, queries ``q0, q1, ...`` added."""
    if approach == "sequential":
        processor = SequentialJoinProcessor(state=state)
    else:
        processor = MMQJPJoinProcessor(TemplateRegistry(use_graph_minor=graph_minor), state=state,
                                       use_view_materialization=approach == "mmqjp-vm")
    for i, query in enumerate(queries):
        processor.add_query(f"q{i}", query)
    return processor


def technical(point: dict, schema, num_queries: int, zipf: float = ZIPF, max_value_joins=None,
              approaches=("mmqjp", "sequential"), graph_minor: bool = True) -> list[dict]:
    """One row per approach: Stage 2 joining the benchmark's current document."""
    queries = generate_queries(QueryWorkloadConfig(schema=schema, num_queries=num_queries, zipf_theta=zipf,
                                                   max_value_joins=max_value_joins, seed=7))
    data = build_technical_benchmark_data(schema)
    rows = []
    for approach in approaches:
        processor = registered(approach, queries, data.fresh_state(), graph_minor)
        processor.process(data.witness)  # compiles every template's plan
        processor.costs.reset()
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            matches = processor.process(data.witness)
            times.append((time.perf_counter() - start) * 1000.0)
        phases = {f"{phase}_ms": round(total / CALLS, 3)
                  for phase, total in processor.costs.as_milliseconds().items()}
        rows.append({**point, "approach": approach, "num_queries": num_queries,
                     "num_templates": processor.num_templates, "ms": round(statistics.median(times), 3),
                     "num_matches": len(matches), **phases})
    return rows


def feed(num_items: int) -> list[tuple]:
    """The simulated RSS stream as ``(text, timestamp, stream)`` arguments of ``process_text``."""
    return [(to_xml(doc, pretty=False), doc.timestamp, doc.stream)
            for doc in generate_rss_stream(RssStreamConfig(num_items=num_items))]


def rss(point: dict, approach: str, queries, items: list) -> dict:
    """One row: ``items`` streamed through a two-stage engine with ``queries`` registered."""
    engine = make_engine(config=RuntimeConfig(engine=approach, store_documents=False, auto_timestamp=False))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    start = time.perf_counter()
    matches = sum(len(engine.process_text(*item)) for item in items)
    elapsed = time.perf_counter() - start
    return {**point, "approach": approach, "num_queries": len(queries), "num_templates": engine.num_templates,
            "ms": round(elapsed * 1000.0, 3), "events_per_s": round(len(items) / elapsed, 1),
            "num_matches": matches}


# --------------------------------------------------------------------------- #
# the experiments (default sizes are the full run's; SMOKE holds --smoke's)
# --------------------------------------------------------------------------- #
def simple_schema(num_leaves: int = 6):
    return two_level_schema(num_leaves)


def complex_schema():
    return three_level_schema(branching=4)


def table3(max_value_joins: int = 4) -> list[dict]:
    """Table 3: number of query templates vs. number of value joins."""
    return template_count_table(max_value_joins)


def fig08(num_queries_list=(10, 100, 1000, 5000)) -> list[dict]:
    """Figure 8: simple schema, time vs. number of queries."""
    return [r for n in num_queries_list for r in technical({}, simple_schema(), n)]


def fig09(num_leaves_list=(4, 6, 8, 10, 12), num_queries: int = 1000) -> list[dict]:
    """Figure 9: simple schema, time vs. number of leaves in the schema."""
    return [r for k in num_leaves_list for r in technical({"num_leaves": k}, simple_schema(k), num_queries)]


def fig10(zipf_list=(0.0, 0.4, 0.8, 1.2, 1.6), num_queries: int = 1000) -> list[dict]:
    """Figure 10: simple schema, time vs. the Zipf parameter."""
    return [r for z in zipf_list for r in technical({"zipf": z}, simple_schema(), num_queries, zipf=z)]


def fig11(num_queries_list=(10, 100, 1000, 5000)) -> list[dict]:
    """Figure 11: complex schema, time vs. number of queries."""
    return [r for n in num_queries_list for r in technical({}, complex_schema(), n, max_value_joins=4)]


def fig12(max_value_joins_list=(2, 3, 4, 5), num_queries: int = 1000) -> list[dict]:
    """Figure 12: complex schema, time vs. the maximum number of value joins per query."""
    return [r for k in max_value_joins_list
            for r in technical({"max_value_joins": k}, complex_schema(), num_queries, max_value_joins=k)]


def fig13(zipf_list=(0.0, 0.4, 0.8, 1.2, 1.6), num_queries: int = 1000) -> list[dict]:
    """Figure 13: complex schema, time vs. the Zipf parameter."""
    return [r for z in zipf_list
            for r in technical({"zipf": z}, complex_schema(), num_queries, zipf=z, max_value_joins=4)]


def fig14(num_queries: int = 20000) -> list[dict]:
    """Figure 14: MMQJP without and with view materialization (Section 5), simple schema."""
    return technical({}, simple_schema(), num_queries, approaches=("mmqjp", "mmqjp-vm"))


def fig15(num_queries: int = 20000) -> list[dict]:
    """Figure 15: MMQJP without and with view materialization, complex schema."""
    return technical({}, complex_schema(), num_queries, max_value_joins=4, approaches=("mmqjp", "mmqjp-vm"))


def fig16(num_queries_list=(10, 100, 1000, 5000), num_items: int = 300,
          max_sequential_queries: int = 1000) -> list[dict]:
    """Figure 16: throughput on the simulated RSS stream; Sequential only up to
    ``max_sequential_queries`` subscriptions (it is the slow side)."""
    items = feed(num_items)
    return [rss({}, approach, generate_rss_queries(n, zipf_theta=ZIPF), items)
            for n in num_queries_list for approach in ("mmqjp-vm", "mmqjp", "sequential")
            if approach != "sequential" or n <= max_sequential_queries]


def ablation_graph_minor(num_queries: int = 2000) -> list[dict]:
    """Template sharing with and without the graph-minor reduction (Section 4.2)."""
    return [r for minor in (True, False)
            for r in technical({"graph_minor": minor}, complex_schema(), num_queries, max_value_joins=4,
                               approaches=("mmqjp",), graph_minor=minor)]


def ablation_witness(num_queries_list=(10, 100, 1000, 5000)) -> list[dict]:
    """Witness rows shared by every query (binary edges of the document) vs. one
    flat tuple per query per bound variable."""
    schema = simple_schema()
    data = build_technical_benchmark_data(schema)
    shared = len(data.rbin_rows) + len(data.rvar_rows)
    rows = []
    for n in num_queries_list:
        queries = generate_queries(QueryWorkloadConfig(schema=schema, num_queries=n, zipf_theta=ZIPF))
        flat = sum(len(JoinGraph.from_query(query).nodes) for query in queries)
        rows.append({"num_queries": n, "shared_rows": shared, "flat_rows": flat})
    return rows


def ablation_window(windows=(5.0, 20.0, 80.0, None), num_queries: int = 500, num_items: int = 200) -> list[dict]:
    """Window length sweep on the RSS stream (``None``: the paper's infinite window)."""
    items = feed(num_items)
    return [rss({"window": w}, "mmqjp", generate_rss_queries(num_queries, window=w or float("inf")), items)
            for w in windows]


EXPERIMENTS = {f.__name__: f for f in (
    table3, fig08, fig09, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
    ablation_graph_minor, ablation_witness, ablation_window)}
SMOKE = {
    "fig08": dict(num_queries_list=(5, 20)), "fig09": dict(num_leaves_list=(4, 6), num_queries=20),
    "fig10": dict(zipf_list=(0.0, 1.6), num_queries=20), "fig11": dict(num_queries_list=(5, 20)),
    "fig12": dict(max_value_joins_list=(2, 3), num_queries=20), "fig13": dict(zipf_list=(0.0, 1.6), num_queries=20),
    "fig14": dict(num_queries=50), "fig15": dict(num_queries=50),
    "fig16": dict(num_queries_list=(5, 20), num_items=12), "ablation_graph_minor": dict(num_queries=40),
    "ablation_witness": dict(num_queries_list=(10, 50)),
    "ablation_window": dict(windows=(2.0, None), num_queries=10, num_items=12),
}


# --------------------------------------------------------------------------- #
# claims: each figure's shape as a predicate over its rows
# --------------------------------------------------------------------------- #
class Claim(NamedTuple):
    experiments: tuple  # whose rows ``check`` takes, in order
    text: str  # the claim, with its threshold
    exact: bool  # a failing exact claim fails the run; a timing claim is recorded only
    check: Callable  # rows, ... -> (holds, measured values)


def ms(rows: list, key, approach: str) -> dict:
    """``{row[key]: row["ms"]}`` over ``approach``'s rows."""
    return {r[key]: r["ms"] for r in rows if r["approach"] == approach}


def ratio(a: float, b: float) -> float:
    return round(a / b, 2)


def agreement(key=None) -> Callable:
    """Every row at one value of ``key`` (at all, with ``None``) counts the same matches."""
    def check(rows):
        counts: dict = {}
        for r in rows:
            counts.setdefault(str(r.get(key)) if key else "all", set()).add(r["num_matches"])
        return all(len(c) == 1 for c in counts.values()), {p: sorted(c) for p, c in counts.items()}
    return check


def sharing_wins(rows):
    m, s = ms(rows, "num_queries", "mmqjp"), ms(rows, "num_queries", "sequential")
    low, top = min(m), max(m)
    at_low, at_top = ratio(s[low], m[low]), ratio(s[top], m[top])
    return 1 / 3 <= at_low <= 3 and at_top >= 10, {f"sequential/mmqjp at {low}": at_low,
                                                     f"sequential/mmqjp at {top}": at_top}


def leaves_slow_both(rows):
    m, s = ms(rows, "num_leaves", "mmqjp"), ms(rows, "num_leaves", "sequential")
    growth = {a: ratio(t[max(t)], t[min(t)]) for a, t in (("mmqjp", m), ("sequential", s))}
    below = all(m[k] < s[k] for k in m)
    return min(growth.values()) >= 1.5 and below, {"growth_over_sweep": growth, "mmqjp_below_everywhere": below}


def skew_helps_sequential(rows):
    m, s = ms(rows, "zipf", "mmqjp"), ms(rows, "zipf", "sequential")
    speedup, spread = ratio(s[min(s)], s[max(s)]), ratio(max(m.values()), min(m.values()))
    return speedup >= 1.5 and spread <= 2, {"sequential_speedup_over_sweep": speedup, "mmqjp_max/min": spread}


def joins_grow_mmqjp(rows):
    m, s = ms(rows, "max_value_joins", "mmqjp"), ms(rows, "max_value_joins", "sequential")
    lo, hi = min(m), max(m)
    growth = {"mmqjp": ratio(m[hi], m[lo]), "sequential": ratio(s[hi], s[lo])}
    templates = {r["max_value_joins"]: r["num_templates"] for r in rows if r["approach"] == "mmqjp"}
    below = all(m[k] < s[k] for k in m)
    return growth["mmqjp"] > growth["sequential"] and below, {
        "growth_over_sweep": growth, "mmqjp_below_everywhere": below, "templates_by_K": templates}


def vm_share(rows) -> float:
    """MMQJP-VM's time over MMQJP's."""
    total = {r["approach"]: r["ms"] for r in rows}
    return ratio(total["mmqjp-vm"], total["mmqjp"])


def vm_lower(rows):
    share = vm_share(rows)
    return share < 1, {"vm/mmqjp": share}


def vm_lower_by_more(complex_rows, simple_rows):
    share, simple_share = vm_share(complex_rows), vm_share(simple_rows)
    return share < min(1, simple_share), {"vm/mmqjp complex": share, "vm/mmqjp simple": simple_share}


def sharing_streams_faster(rows):
    top = max(r["num_queries"] for r in rows if r["approach"] == "sequential")
    rate = {r["approach"]: r["events_per_s"] for r in rows if r["num_queries"] == top}
    over = {a: ratio(rate[a], rate["sequential"]) for a in ("mmqjp", "mmqjp-vm")}
    return min(over.values()) >= 10, {f"events/s over sequential at {top}": over}


def minor_shares_more(rows):
    by = {r["graph_minor"]: r for r in rows}
    templates = {str(k): r["num_templates"] for k, r in by.items()}
    same = by[True]["num_matches"] == by[False]["num_matches"]
    return templates["True"] <= templates["False"] and same, {"templates": templates, "same_matches": same}


def minor_no_slower(rows):
    t = ms(rows, "graph_minor", "mmqjp")
    return t[True] <= t[False], {"with/without": ratio(t[True], t[False])}


def witness_shared(rows):
    shared, flat = {r["shared_rows"] for r in rows}, [r["flat_rows"] for r in rows]
    return len(shared) == 1 and flat == sorted(flat) and flat[-1] > flat[0], {"shared": sorted(shared), "flat": flat}


def window_bounds_matches(rows):
    matches = [r["num_matches"] for r in rows]
    return matches == sorted(matches), {"matches_by_window": matches}


def window_prunes_faster(rows):
    rate = {r["window"]: r["events_per_s"] for r in rows}
    finite = min(w for w in rate if w is not None)
    return rate[finite] >= rate[None], {f"events/s window {finite:g} / infinite": ratio(rate[finite], rate[None])}


AGREE = "every approach finds the same number of matches at each point"
CLAIMS = [
    Claim(("table3",), "templates for 1-4 value joins are exactly 1/1, 3/3, 6/16, 16/146 (flat/complex)",
          True, lambda rows: (rows == TABLE3, {"rows": rows})),
    *(Claim((f,), AGREE, True, agreement(key)) for f, key in (
        ("fig08", "num_queries"), ("fig09", "num_leaves"), ("fig10", "zipf"), ("fig11", "num_queries"),
        ("fig12", "max_value_joins"), ("fig13", "zipf"), ("fig14", None), ("fig15", None),
        ("fig16", "num_queries"))),
    *(Claim((f,), "MMQJP and Sequential are within 3x of each other at the smallest query count, "
              "and MMQJP is at least 10x faster at the top of the sweep", False, sharing_wins)
      for f in ("fig08", "fig11")),
    Claim(("fig09",), "each approach takes at least 1.5x longer at the most leaves than at the fewest, "
          "and MMQJP is faster than Sequential at every leaf count", False, leaves_slow_both),
    *(Claim((f,), "Sequential is at least 1.5x faster at the highest Zipf parameter than at the lowest, "
              "and MMQJP's slowest point is within 2x of its fastest", False, skew_helps_sequential)
      for f in ("fig10", "fig13")),
    Claim(("fig12",), "MMQJP's time grows by a larger factor than Sequential's from the fewest to the most "
          "value joins, and MMQJP is faster than Sequential at every K", False, joins_grow_mmqjp),
    Claim(("fig14",), "view materialization lowers MMQJP's total time", False, vm_lower),
    Claim(("fig15", "fig14"), "view materialization lowers MMQJP's total time, by a larger share than on "
          "the simple schema", False, vm_lower_by_more),
    Claim(("fig16",), "at the most subscriptions Sequential runs, MMQJP and MMQJP-VM each process at least "
          "10x its events per second", False, sharing_streams_faster),
    Claim(("ablation_graph_minor",), "the graph-minor reduction gives no more templates, and the same "
          "matches", True, minor_shares_more),
    Claim(("ablation_graph_minor",), "with the graph-minor reduction Stage 2 takes no longer than without",
          False, minor_no_slower),
    Claim(("ablation_witness",), "the shared witness rows do not grow with the query count; the flat "
          "tuples do", True, witness_shared),
    Claim(("ablation_window",), "a longer window never finds fewer matches", True, window_bounds_matches),
    Claim(("ablation_window",), "the shortest window streams at least as many events per second as the "
          "infinite one", False, window_prunes_faster),
]


def evaluate(claim: Claim, results: dict, smoke: bool) -> dict:
    """``claim``'s verdict (``holds``, ``fails`` or ``not evaluated``) and measured values."""
    out = {"experiments": list(claim.experiments), "claim": claim.text, "kind": "exact" if claim.exact else "timing"}
    if any(name not in results for name in claim.experiments) or (smoke and not claim.exact):
        return {**out, "verdict": "not evaluated"}
    holds, measured = claim.check(*(results[name] for name in claim.experiments))
    return {**out, "verdict": "holds" if holds else "fails", "measured": measured}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; timing claims not evaluated")
    parser.add_argument("--only", help=f"comma-separated subset of {', '.join(EXPERIMENTS)}")
    parser.add_argument("--out", help="default BENCH_paper.json for a full run, else paper-local.json")
    args = parser.parse_args(argv)
    names = args.only.split(",") if args.only else list(EXPERIMENTS)
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    out = Path(args.out or ROOT / ("paper-local.json" if args.smoke or args.only else "BENCH_paper.json"))

    begun = time.perf_counter()
    results, rows = {}, []
    for name in names:
        start = time.perf_counter()
        results[name] = EXPERIMENTS[name](**(SMOKE.get(name, {}) if args.smoke else {}))
        print(f"== {name} ({time.perf_counter() - start:.1f} s)", flush=True)
        for row in results[name]:
            print("   " + "  ".join(f"{k}={v}" for k, v in row.items()))
            rows.append({"experiment": name, **row})
    claims = [evaluate(claim, results, args.smoke) for claim in CLAIMS]
    for c in claims:
        print(f"{c['verdict']:>13}  {'/'.join(c['experiments'])}: {c['claim']}  {c.get('measured', '')}")

    meta = {"commit": commit(), "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "wall_s": round(time.perf_counter() - begun, 1), "smoke": args.smoke}
    out.write_text(dump({"meta": meta, "claims": claims, "rows": rows}) + "\n")
    failed = [f"{'/'.join(c['experiments'])}: {c['claim']}" for c in claims
              if c["kind"] == "exact" and c["verdict"] == "fails"]
    print(f"wrote {out}" + "".join(f"\nFAILED {f}" for f in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
