#!/usr/bin/env python3
"""One workload in one process: set up, measure for ``--seconds``, check, report.

This is ``BENCHMARK.json``'s command.  ``python -m perf run`` starts it once
per workload, each time in a fresh interpreter.

The session API this file depends on, all of it:

* ``repro.RuntimeConfig(construct_outputs=False, store_documents=False)`` plus
  ``shards``/``executor`` (``topic_fanout_proc2``) or ``storage``/``storage_path``
  (``durable_churn``); ``metrics=True`` only in the traced ``topic_fanout_proc2``
* ``repro.open_broker(config)`` and ``repro.open_broker(resume_from=path)``
* ``broker.subscribe(text, callback=)`` -> handle with ``.subscription_id``
* ``broker.publish(text, stream=)``, ``broker.publish_many(texts, stream=)``
* ``broker.cancel(sid)``, ``broker.close()``
* ``broker.subscription(sid).attach_sink(repro.CallbackSink(fn))``
* delivered ``result.subscription_id``, ``result.match.lhs_timestamp`` and
  ``.rhs_timestamp`` (auto-assigned: the n-th published document has timestamp n)
* traced run only: ``broker.stats()``, ``broker.metrics_snapshot()``
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)  # in place of perf/ itself, whose trace.py would shadow the stdlib's
sys.path.insert(0, str(ROOT / "src"))

from perf import inputs, layers, oracle, trace  # noqa: E402

OUT = ROOT / "perf" / "out"
PINS = ROOT / "perf" / "pins.json"
PIN_SEED = 11
SETUP_REPEATS = 3
SCRUBBED = (
    "REPRO_COLUMNAR", "REPRO_EXECUTOR", "REPRO_INGEST", "REPRO_METRICS",
    "REPRO_STORAGE", "REPRO_NO_NUMPY",
)


def hygienic_environment():
    """The environment this run must start in, or ``None`` if it already has it."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in SCRUBBED and not key.startswith("REPRO_BENCH_")
    }
    env["PYTHONHASHSEED"] = "0"
    return None if env == dict(os.environ) else env


class Session:
    """One broker, the benchmark's sink, and the log the oracle replays."""

    def __init__(self, spec: inputs.Spec, traced: bool):
        import repro  # not at the top: the re-exec parent in main() has no use for it

        self.spec = spec
        config = dict(spec.config, construct_outputs=False, store_documents=False)
        if traced and config.get("executor") == "processes":
            config["metrics"] = True  # worker-side stage timers, traced run only
        self.storage_path = None
        if config.get("storage") == "sqlite":
            OUT.mkdir(parents=True, exist_ok=True)
            self.storage_path = tempfile.mkdtemp(prefix="store-", dir=OUT)
            config["storage_path"] = self.storage_path
        self.results: list = []
        self.stamps: list = []
        # ("s", sid, Sub) | ("c", sid) | ("p", docs, start, end, lo, hi):
        # lo..hi index the deliveries of that publish in results/stamps
        self.log: list = []
        self.live: list = []  # subscription ids, anchors first
        self.attempted = 0
        self.failed = 0
        self.subscribe_s: list = []
        self.cancel_s: list = []

        def sink(result, keep=self.results.append, stamp=self.stamps.append):
            keep(result)
            stamp(perf_counter())

        self.sink = sink
        self.broker = repro.open_broker(repro.RuntimeConfig(**config))

    # -- operations: each counts as attempted, and as failed if it raises ---- #
    def _failure(self) -> None:
        self.failed += 1
        if self.failed == 1:
            traceback.print_exc()

    def subscribe(self, sub: inputs.Sub):
        self.attempted += 1
        start = perf_counter()
        try:
            sid = self.broker.subscribe(sub.text, callback=self.sink).subscription_id
        except Exception:
            self._failure()
            return None
        self.subscribe_s.append(perf_counter() - start)
        self.log.append(("s", sid, sub))
        return sid

    def cancel(self, sid: str) -> None:
        self.attempted += 1
        start = perf_counter()
        try:
            self.broker.cancel(sid)
        except Exception:
            self._failure()
            return
        self.cancel_s.append(perf_counter() - start)
        self.log.append(("c", sid))

    def publish(self, docs: list, texts: list) -> None:
        self.attempted += 1
        first = len(self.stamps)
        start = perf_counter()
        try:
            if len(docs) == 1:
                self.broker.publish(texts[0], stream=docs[0].stream)
            else:
                self.broker.publish_many(texts, stream=docs[0].stream)
        except Exception:
            self._failure()
            return
        self.log.append(("p", docs, start, perf_counter(), first, len(self.stamps)))

    def churn(self, rng: random.Random, fresh) -> None:
        """Cancel one random live subscription (never an anchor), add a new one."""
        slot = rng.randrange(self.spec.anchors, len(self.live))
        self.cancel(self.live[slot])
        sid = self.subscribe(next(fresh))
        if sid is not None:
            self.live[slot] = sid

    def close(self) -> None:
        self.attempted += 1
        try:
            self.broker.close()
        except Exception:
            self._failure()

    def resume(self) -> float:
        """Close, reopen from the store, re-attach the sink; returns recovery seconds."""
        import repro

        self.close()
        self.attempted += 1
        start = perf_counter()
        self.broker = repro.open_broker(resume_from=self.storage_path)
        seconds = perf_counter() - start
        for sid in self.live:
            self.broker.subscription(sid).attach_sink(repro.CallbackSink(self.sink))
        return seconds

    def discard(self) -> None:
        self.broker.close()
        if self.storage_path is not None:
            shutil.rmtree(self.storage_path, ignore_errors=True)


def batches(documents: list, size: int):
    """Endless ``(docs, texts)`` pairs cycling through ``documents``."""
    return itertools.cycle(
        (documents[i : i + size], [doc.text for doc in documents[i : i + size]])
        for i in range(0, len(documents) - size + 1, size)
    )


def set_up(spec: inputs.Spec, data: inputs.Inputs, traced: bool):
    """Open a broker, register the population, fill the window; timed as ``setup_s``."""
    start = perf_counter()
    session = Session(spec, traced)
    for sub in data.subscriptions:
        session.live.append(session.subscribe(sub))
    feed = batches(data.warmup, spec.batch)
    for _ in range(spec.warmup // spec.batch):
        session.publish(*next(feed))
    return session, perf_counter() - start


def timed_section(session: Session, spec, seconds: float, feed, rng, fresh) -> tuple:
    """Closed loop, one client: publish (after ``churn_per_publish`` cycles) until time is up."""
    first = len(session.log)
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        for _ in range(spec.churn_per_publish):
            session.churn(rng, fresh)
        session.publish(*next(feed))
    return first, start, perf_counter()


def check_outputs(session: Session, spec, timed_from: int) -> dict:
    """Replay the log through the oracle; every publish must have delivered exactly that.

    Also counts and digests what the set-up phase (the log before
    ``timed_from``) delivered, which is pinned for ``PIN_SEED``.
    """
    model = oracle.Oracle(spec.window)
    delivered: Counter = Counter()
    set_up: Counter = Counter()
    mismatches = 0
    first_mismatch = None
    for position, entry in enumerate(session.log):
        if entry[0] == "s":
            model.subscribe(entry[1], entry[2])
        elif entry[0] == "c":
            model.cancel(entry[1])
        else:
            docs, lo, hi = entry[1], entry[4], entry[5]
            expected: Counter = Counter()
            for doc in docs:
                expected.update(model.publish(doc))
            observed = Counter(
                (r.subscription_id, int(r.match.lhs_timestamp), int(r.match.rhs_timestamp))
                for r in session.results[lo:hi]
            )
            if observed != expected:
                mismatches += 1
                if first_mismatch is None:
                    first_mismatch = {
                        "log_position": position,
                        "missing": [list(k) for k in (expected - observed)][:5],
                        "unexpected": [list(k) for k in (observed - expected)][:5],
                    }
            (set_up if position < timed_from else delivered).update(observed)
    delivered.update(set_up)
    return {
        "mismatched_publishes": mismatches,
        "first_mismatch": first_mismatch,
        "delivered": sum(delivered.values()),
        "digest": oracle.digest(delivered),
        "setup_delivered": sum(set_up.values()),
        "setup_digest": oracle.digest(set_up),
    }


class TimedSection:
    """What the timed section did: its publishes, their latencies and delivery lags."""

    def __init__(self, session: Session, first: int, start: float, end: float):
        self.start, self.end = start, end
        self.publishes = [e for e in session.log[first:] if e[0] == "p" and e[3] <= end]
        self.documents = sum(len(e[1]) for e in self.publishes)
        self.latency = sorted(e[3] - e[2] for e in self.publishes)
        self.lag = sorted(
            stamp - e[2] for e in self.publishes for stamp in session.stamps[e[4] : e[5]]
        )


def end_to_end(session, spec, setups, subscribe_s, memory_mb, section) -> tuple:
    """The metrics a user of ``open_broker`` sees, from the untraced clocks."""
    latency, lag = section.latency, section.lag
    return {
        "setup_s": (statistics.median(setups), "s"),
        "docs_per_s": (section.documents / (section.end - section.start), "1/s"),
        "publish_p50_ms": (layers.percentile(latency, 50) * 1e3, "ms"),
        "subscribe_iqm_ms": (layers.midmean(subscribe_s) * 1e3, "ms"),
        "setup_mem_mb": (memory_mb, "MB"),
    }, {
        "timed_documents": section.documents,
        "publish_calls": len(latency),
        "publish_tail_ms": layers.percentile(latency, spec.tail_percentile) * 1e3,
        "publish_tail_percentile": spec.tail_percentile,
        "deliveries_timed": len(lag),
        "delivery_lag_p50_ms": layers.percentile(lag, 50) * 1e3,
        "delivery_lag_p99_ms": layers.percentile(lag, 99) * 1e3,
        "subscribe_calls": len(subscribe_s),
        "cancel_calls": len(session.cancel_s),
        "cancel_iqm_ms": layers.midmean(session.cancel_s) * 1e3,
    }


def resident_mb() -> float:
    """Proportional resident memory (PSS) of this process and its workers, in MB.

    PSS, not RSS: forked shard workers share the parent's pages, and RSS
    would count those once per process.
    """
    import multiprocessing

    total_kb = 0
    for pid in [os.getpid()] + [child.pid for child in multiprocessing.active_children()]:
        for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def environment(seed: int) -> dict:
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": has_numpy,
        "commit": commit,
        "seed": seed,
    }


def run(args) -> int:
    import repro  # noqa: F401 - now, so that the first timed set-up does not pay for it

    spec = inputs.SPECS[args.workload]
    if args.smoke:
        spec = inputs.smoke(spec)
    nproc = len(os.sched_getaffinity(0))
    if dict(spec.config).get("executor") == "processes" and nproc < 2:
        print(
            f"{spec.name} needs 2 processors and this machine offers {nproc}: "
            "a run here would record IPC overhead, not the workload; refusing."
        )
        return 2
    begun = perf_counter()
    data = inputs.generate(spec, args.seed)
    checks = {"input_sha256": inputs.input_digest(data)}
    traced = bool(args.trace)
    if traced:
        trace.install()

    setups = []
    subscribe_s = []  # pooled over the set-ups: three windows of time, not one
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        trace.recording = traced and last
        session, seconds = set_up(spec, data, traced)
        setups.append(seconds)
        if repeat == 0:
            # In a fresh process, at a point fixed by counts and not by the
            # clock: the population is registered and the window is full.
            gc.collect()
            memory_mb = resident_mb()
        if not last:
            subscribe_s += session.subscribe_s
            session.discard()
            del session
            gc.collect()
    timed_from = len(session.log)
    try:
        feed = batches(data.documents, spec.batch)
        fresh = itertools.cycle(data.fresh)
        rng = random.Random(f"{args.seed}:{spec.name}:churn")
        gc.collect()
        busy_s = -layers.stage_seconds(session.broker) if traced else 0.0
        timed = timed_section(session, spec, args.seconds, feed, rng, fresh)
        if traced:
            busy_s += layers.stage_seconds(session.broker)
            seen = layers.introspect(session)
        for _ in range(spec.tail_cycles):
            session.churn(rng, fresh)
        recovery = 0.0
        if spec.recovery_publishes:
            recovery = session.resume()
            for _, pair in zip(range(spec.recovery_publishes), feed):
                session.publish(*pair)
    finally:
        session.close()
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0

    checks.update(check_outputs(session, spec, timed_from))
    correct = checks["mismatched_publishes"] == 0 and session.failed == 0
    if args.seed == PIN_SEED and not args.smoke:
        pinned = json.loads(PINS.read_text()).get(spec.name, {})
        for key, value in pinned.items():
            if checks[key] != value:
                correct = False
                checks.setdefault("pin_mismatch", []).append(key)
    checks["correct"] = correct

    subscribe_s += session.subscribe_s
    section = TimedSection(session, *timed)
    metrics, samples = end_to_end(session, spec, setups, subscribe_s, memory_mb, section)
    samples.update(recovery_s=recovery, setup_s_all=setups, peak_rss_mb=peak_rss_mb)
    record = {
        "workload": spec.name,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "env": dict(environment(args.seed), wall_s=perf_counter() - begun),
        "checks": checks,
        "attempted": session.attempted,
        "failed": session.failed,
        "samples": samples,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if traced:
        summary = trace.Summary(section.start, section.end)
        values = layers.per_layer(section, spec, summary, seen, busy_s, recovery)
        record["layer_shares"] = summary.shares()
        record["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        record["missing_targets"] = trace.missing
        if args.spans:
            OUT.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(json.dumps(trace.span_records()))
        metrics = values
    if session.storage_path is not None:
        shutil.rmtree(session.storage_path, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))

    print(f"# {spec.name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    for key, value in {**samples, **checks}.items():
        print(f"#   {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SPECS))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="about 1/50 of the size")
    parser.add_argument("--out", help="also write this run's full record as JSON here")
    parser.add_argument("--spans", help="traced run: also write every span as JSON here")
    args = parser.parse_args()
    env = hygienic_environment()
    if env is not None:
        # PYTHONHASHSEED only takes effect at interpreter start-up.
        return subprocess.run(
            [sys.executable, __file__, *sys.argv[1:]], env=env, timeout=170
        ).returncode
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
