"""Sharded-runtime throughput and parallel scaling.

Two experiments share this file:

* ``bench_sharded_throughput`` — events/second vs. shard count on the RSS
  stream (the original sharded-runtime measurement; the unsharded engine in
  ``bench_fig16_rss_throughput.py`` is its baseline).
* ``bench_parallel_scaling`` — the process-parallel runtime and the
  relevance-aware fan-out router, swept over executors (serial / threads /
  processes) × shard counts × routing on/off on the topic-sharded document
  workload (:func:`repro.workloads.synthetic.build_topic_documents`): each
  topic owns a template shape no other topic produces, so templates spread
  across shards and a document is relevant to ≈ ``1 / num_topics`` of them
  — the regime where routing skips most shards and process shards divide
  the CPU work.

Asserted acceptance criteria (CI gates):

* exact match-set equivalence across every executor × shards × routing
  cell (the serial replicate-everywhere cell is the reference);
* with routing on and templates on ≥ 2 shards, the router must actually
  skip dispatches (``pct_shards_skipped > 0``);
* on a multi-core machine (≥ 4 CPUs reported by ``os.cpu_count()``), the
  process executor must beat the serial one at 4 shards.  The speedup is
  *recorded* on every machine, but only *gated* where the hardware can
  deliver it — a single-CPU container pays the IPC overhead with no
  parallelism to buy back.

Results are also written to ``BENCH_parallel_scaling.json`` (repo root, or
``$REPRO_BENCH_JSON_DIR``) through :func:`repro.bench.reporting.rows_to_json`,
with ``meta.cpus`` recording the machine the numbers came from.  There is one
broker class, and with ``shards=1`` and an in-process executor it *is* what
used to be the separate unsharded broker (no partitioner, no router), so the
file's 1-shard serial/threads rows are the unsharded baseline: ROADMAP's "add
an unsharded row beside the 1-shard row" has nothing left to add.

Set ``REPRO_BENCH_TINY=1`` to run the whole file at smoke scale (CI).
"""

import functools
import os

import pytest

from repro.bench.harness import run_parallel_topic_throughput, run_sharded_rss_throughput
from repro.bench.reporting import rows_to_json
from repro.workloads.querygen import generate_topic_queries
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream
from repro.workloads.synthetic import build_topic_documents, topic_schemas

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

NUM_ITEMS = 150
NUM_QUERIES = 400
SHARD_SWEEP = (1, 2, 4)

NUM_TOPICS = 8
PARALLEL_NUM_QUERIES = 16 if TINY else 64
PARALLEL_NUM_DOCS = 64 if TINY else 240
PARALLEL_SHARD_SWEEP = (1, 2, 4) if TINY else (1, 2, 4, 8, 16)
PARALLEL_WINDOW = 1000.0

_ROWS: list[dict] = []
_SERIAL_MS: dict[tuple[int, bool], float] = {}


@pytest.fixture(scope="session", autouse=True)
def _emit_json():
    """Write the collected rows as BENCH_parallel_scaling.json after the run."""
    yield
    if not _ROWS:
        return
    out_dir = os.environ.get(
        "REPRO_BENCH_JSON_DIR", os.path.dirname(os.path.dirname(__file__))
    )
    rows_to_json(
        _ROWS,
        path=os.path.join(out_dir, "BENCH_parallel_scaling.json"),
        meta={
            "experiment": "parallel_scaling",
            "tiny": TINY,
            "cpus": os.cpu_count(),
            "num_topics": NUM_TOPICS,
            "num_queries": PARALLEL_NUM_QUERIES,
            "num_documents": PARALLEL_NUM_DOCS,
            "shard_sweep": list(PARALLEL_SHARD_SWEEP),
            "wire_format": (
                "process shards return match batches as a shared interned "
                "value table plus packed id rows (one encode per batch, one "
                "table entry per distinct value) instead of per-match pickled "
                "tuples; numbers before this change paid per-match "
                "serialization of repeated qids/docids/bindings on the pipe"
            ),
        },
    )


@pytest.mark.parametrize("shards", SHARD_SWEEP)
@pytest.mark.parametrize("executor", ["serial", "threads"])
def bench_sharded_throughput(benchmark, executor, shards):
    documents = list(generate_rss_stream(RssStreamConfig(num_items=NUM_ITEMS)))
    queries = generate_rss_queries(NUM_QUERIES)

    def run_once():
        return run_sharded_rss_throughput(
            queries, documents, shards=shards, partitioner="hash", executor=executor
        )

    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    benchmark.extra_info["figure"] = "sharded_throughput"
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["executor"] = executor
    benchmark.extra_info["num_queries"] = NUM_QUERIES
    benchmark.extra_info["num_events"] = NUM_ITEMS
    benchmark.extra_info["events_per_second"] = result.extra["events_per_second"]
    benchmark.extra_info["num_matches"] = result.num_matches


@functools.lru_cache(maxsize=None)
def _topic_workload():
    schemas = topic_schemas(NUM_TOPICS)
    queries = tuple(
        generate_topic_queries(schemas, PARALLEL_NUM_QUERIES, window=PARALLEL_WINDOW)
    )
    documents = tuple(build_topic_documents(schemas, PARALLEL_NUM_DOCS))
    return queries, documents


@functools.lru_cache(maxsize=None)
def _parallel_reference():
    """The serial replicate-to-every-shard run: the match-key oracle."""
    queries, documents = _topic_workload()
    _, keys = run_parallel_topic_throughput(
        queries, documents, shards=2, executor="serial", route_dispatch=False
    )
    assert keys, "the topic workload must produce matches"
    return keys


@pytest.mark.parametrize("shards", PARALLEL_SHARD_SWEEP)
@pytest.mark.parametrize("routing", [True, False], ids=["routed", "replicated"])
@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
def bench_parallel_scaling(benchmark, executor, routing, shards):
    queries, documents = _topic_workload()

    def run_once():
        return run_parallel_topic_throughput(
            queries,
            documents,
            shards=shards,
            executor=executor,
            route_dispatch=routing,
        )

    result, keys = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert keys == _parallel_reference(), (
        f"match-set mismatch for executor={executor!r} shards={shards} "
        f"routing={routing}"
    )
    if routing and result.extra["num_active_shards"] > 1:
        assert result.extra["pct_shards_skipped"] > 0, (
            f"templates on {result.extra['num_active_shards']} shards but the "
            f"router skipped nothing (shards={shards})"
        )

    ms_per_doc = result.extra["ms_per_doc"]
    if executor == "serial":
        _SERIAL_MS[(shards, routing)] = ms_per_doc
    serial_ms = _SERIAL_MS.get((shards, routing))
    speedup = round(serial_ms / ms_per_doc, 3) if serial_ms and ms_per_doc else None
    if (
        executor == "processes"
        and shards == 4
        and routing
        and speedup is not None
        and (os.cpu_count() or 1) >= 4
    ):
        assert speedup >= 1.0, (
            f"processes ran {speedup}x vs serial at 4 shards on a "
            f"{os.cpu_count()}-CPU machine"
        )

    row = result.as_row()
    row["figure"] = "parallel_scaling"
    row["speedup_vs_serial"] = speedup
    _ROWS.append(row)
    benchmark.extra_info.update(
        {
            "figure": "parallel_scaling",
            "executor": executor,
            "shards": shards,
            "routing": routing,
            "ms_per_doc": ms_per_doc,
            "pct_shards_skipped": result.extra.get("pct_shards_skipped"),
            "speedup_vs_serial": speedup,
            "num_matches": result.num_matches,
        }
    )
