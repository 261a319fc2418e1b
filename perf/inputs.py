"""Workload inputs: XSCL subscription strings and XML document texts.

Everything here is a pure function of ``random.Random(seed)`` and the sizes in
:data:`SPECS`; nothing is imported from ``repro`` (later PRs may edit
``repro.workloads``, and a benchmark whose inputs move with the program under
test measures nothing).  :func:`input_digest` pins the generated strings so
that a silent change of inputs fails a check instead of moving a metric.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, replace
from typing import NamedTuple


@dataclass(frozen=True)
class Spec:
    """Sizes and broker configuration of one workload."""

    name: str
    family: str  # "dblp" or "topic": which generator makes the strings
    subscriptions: int  # live population built during set-up
    warmup: int  # documents published during set-up (fills the join window)
    pool: int  # distinct timed documents; the timed loop cycles through them
    window: int
    tail_percentile: int  # of publish_tail_ms: the highest with >=10 samples beyond it
    config: tuple = ()  # RuntimeConfig fields beyond the benchmark's two
    batch: int = 1  # documents per publish call (>1: publish_many)
    churn_per_publish: int = 0  # timed cancel+subscribe cycles before each publish
    tail_cycles: int = 1000  # untimed cancel+subscribe cycles after the timed section
    anchors: int = 0  # leading subscriptions that churn never cancels
    fresh: int = 1000  # subscriptions generated for churn to draw from
    citations: int = 0
    subscribed_venues: int = 0  # >0: one coauthor alert per venue, nothing else
    recovery_publishes: int = 0  # >0: close, resume_from, publish this many more


NUM_VENUES = 50
NUM_AUTHORS = 5000
NUM_TITLES = 2000
NUM_TOPICS = 8
TOPIC_VALUE_POOL = 8

#: Full-scale sizes.  They are about a third of what ISSUE 11 sketched: the
#: driver's cap (114 runs in 3420 s) leaves ~20 s per run for three set-ups,
#: the timed section, the churn tail and the output check.
SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "dblp_steady", "dblp", subscriptions=5000, warmup=200, pool=4000,
            window=200, tail_percentile=99,
        ),
        Spec(
            "ingest_cites", "dblp", subscriptions=40, warmup=200, pool=1500,
            window=100, tail_percentile=99, citations=400, subscribed_venues=40,
        ),
        Spec(
            "topic_fanout", "topic", subscriptions=800, warmup=100, pool=1000,
            window=100, tail_percentile=95,
        ),
        Spec(
            "topic_fanout_proc2", "topic", subscriptions=800, warmup=100, pool=1000,
            window=100, tail_percentile=90,
            config=(("shards", 2), ("executor", "processes")), batch=10, tail_cycles=300,
        ),
        Spec(
            "durable_churn", "dblp", subscriptions=3000, warmup=200, pool=1000,
            window=200, tail_percentile=95, config=(("storage", "sqlite"),),
            churn_per_publish=30, tail_cycles=0, anchors=NUM_VENUES, fresh=20000,
            recovery_publishes=20,
        ),
    )
}


def smoke(spec: Spec) -> Spec:
    """The same workload at about 1/50 of its size (tests and quick checks)."""
    return replace(
        spec,
        subscriptions=max(spec.subscriptions // 50, 2 * NUM_VENUES if spec.anchors else 40),
        warmup=max(spec.warmup // 5, 20),
        pool=max(spec.pool // 20, 60),
        window=max(spec.window // 5, 20),
        tail_cycles=min(spec.tail_cycles, 10),
        fresh=min(spec.fresh, 400),
        recovery_publishes=min(spec.recovery_publishes, 5),
    )


class Sub(NamedTuple):
    """One subscription: the XSCL text the program gets, and what it means.

    ``kind`` and the two groups are for :mod:`perf.oracle` only: ``co`` fires
    when two documents of ``group_a`` share a value, ``echo`` when a title of
    ``group_a`` recurs in ``group_b``, ``tracker`` when both hold in one group.
    """

    text: str
    kind: str
    group_a: str
    group_b: str


class Doc(NamedTuple):
    """One document: stream and XML text for the program, facts for the oracle."""

    stream: str
    text: str
    group: str
    values: frozenset
    title: str


@dataclass(frozen=True)
class Inputs:
    """Everything one workload feeds the program."""

    subscriptions: list  # initial population
    warmup: list  # documents published during set-up
    documents: list  # the timed pool, cycled
    fresh: list  # subscriptions churn registers, cycled


class _Zipf:
    """Integers ``0..n-1`` with probability proportional to ``1/(k+1)**theta``."""

    def __init__(self, n: int, theta: float, rng: random.Random):
        weights = [1.0 / (k ** theta) for k in range(1, n + 1)]
        total = sum(weights)
        acc = 0.0
        self._cumulative = []
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0
        self._rng = rng

    def sample(self) -> int:
        return bisect.bisect_left(self._cumulative, self._rng.random())


# --------------------------------------------------------------------------- #
# DBLP-style articles and the three subscription shapes (two templates)
# --------------------------------------------------------------------------- #
def _coauthor(venue: str, window: int) -> Sub:
    text = (
        f"{venue}//article->x1[.//author->x2] "
        f"FOLLOWED BY{{x2=x4, {window}}} "
        f"{venue}//article->x3[.//author->x4]"
    )
    return Sub(text, "co", venue, venue)


def _title_echo(venue: str, other: str, window: int) -> Sub:
    text = (
        f"{venue}//article->x1[.//title->x2] "
        f"FOLLOWED BY{{x2=x4, {window}}} "
        f"{other}//article->x3[.//title->x4]"
    )
    return Sub(text, "echo", venue, other)


def _tracker(venue: str, window: int) -> Sub:
    text = (
        f"{venue}//article->x1[.//author->x2][.//title->x3] "
        f"FOLLOWED BY{{x2=x5 AND x3=x6, {window}}} "
        f"{venue}//article->x4[.//author->x5][.//title->x6]"
    )
    return Sub(text, "tracker", venue, venue)


def _dblp_subscription(index: int, window: int, venues: _Zipf) -> Sub:
    venue = f"venue{venues.sample()}"
    shape = index % 3
    if shape == 0:
        return _coauthor(venue, window)
    if shape == 1:
        return _title_echo(venue, f"venue{venues.sample()}", window)
    return _tracker(venue, window)


def _dblp_article(
    sequence: int, rng: random.Random, venues: _Zipf, authors: _Zipf, citations: int
) -> Doc:
    venue = f"venue{venues.sample()}"
    names = sorted({authors.sample() for _ in range(rng.randint(1, 4))})
    title = rng.randrange(NUM_TITLES)
    parts = [
        f"<article><key>dblp/article{sequence}</key><authors>",
        "".join(f"<author>Author {a}</author>" for a in names),
        f"</authors><title>Title {title}: advances in stream joins</title>"
        f"<venue>{venue}</venue><year>{2000 + sequence % 26}</year>",
    ]
    if citations:
        parts.append("<citations>")
        parts.extend(
            f"<cite>dblp/article{rng.randrange(10**6)}</cite>" for _ in range(citations)
        )
        parts.append("</citations>")
    parts.append("</article>")
    return Doc(venue, "".join(parts), venue, frozenset(names), str(title))


# --------------------------------------------------------------------------- #
# topic documents: 8 disjoint schemas on stream S, topic t has t+1 leaves that
# all carry one value, so a topic subscription (a value join on every leaf)
# behaves as a coauthor alert on the group "topic t"
# --------------------------------------------------------------------------- #
def _topic_subscription(index: int, window: int, rng: random.Random) -> Sub:
    topic = index % NUM_TOPICS
    left = rng.sample(range(topic + 1), topic + 1)
    right = rng.sample(range(topic + 1), topic + 1)

    def block(order) -> str:
        steps = "".join(
            f"[.//topic{topic}_leaf{i}->v_topic{topic}_leaf{i}]" for i in order
        )
        return f"S//topic{topic}_root->v_topic{topic}_root{steps}"

    joins = " AND ".join(
        f"v_topic{topic}_leaf{l}=v_topic{topic}_leaf{r}" for l, r in zip(left, right)
    )
    text = f"{block(left)} FOLLOWED BY{{{joins}, {window}}} {block(right)}"
    return Sub(text, "co", f"topic{topic}", f"topic{topic}")


def _topic_document(sequence: int, rng: random.Random) -> Doc:
    topic = sequence % NUM_TOPICS
    value = f"t{topic}val{rng.randrange(TOPIC_VALUE_POOL)}"
    leaves = "".join(
        f"<topic{topic}_leaf{i}>{value}</topic{topic}_leaf{i}>" for i in range(topic + 1)
    )
    text = f"<topic{topic}_root>td{sequence}{leaves}</topic{topic}_root>"
    return Doc("S", text, f"topic{topic}", frozenset((value,)), "")


def generate(spec: Spec, seed: int) -> Inputs:
    """All strings of one workload, from ``seed`` and ``spec`` alone.

    The two fan-out workloads share one random stream, so their inputs are
    byte-identical; every other workload draws from a stream of its own.
    """
    rng = random.Random(f"{seed}:{'topic' if spec.family == 'topic' else spec.name}")
    num_subscriptions = spec.subscriptions + spec.fresh
    num_documents = spec.warmup + spec.pool
    if spec.family == "topic":
        subscriptions = [
            _topic_subscription(i, spec.window, rng) for i in range(num_subscriptions)
        ]
        documents = [_topic_document(i, rng) for i in range(num_documents)]
    else:
        sub_venues = _Zipf(NUM_VENUES, 0.7, rng)
        doc_venues = _Zipf(NUM_VENUES, 0.7, rng)
        authors = _Zipf(NUM_AUTHORS, 0.8, rng)
        if spec.subscribed_venues:
            # Stage 2 has almost nothing to do, and documents of the
            # unsubscribed venues take the validate-only path.
            subscriptions = [
                _coauthor(f"venue{i % spec.subscribed_venues}", spec.window)
                for i in range(num_subscriptions)
            ]
        else:
            # One tracker per venue first: it binds every path of its venue,
            # so while these anchors live, a document's witnesses do not
            # depend on which other subscriptions churn has left alive.
            subscriptions = [
                _tracker(f"venue{i}", spec.window) for i in range(spec.anchors)
            ] + [
                _dblp_subscription(i, spec.window, sub_venues)
                for i in range(spec.anchors, num_subscriptions)
            ]
        documents = [
            _dblp_article(i, rng, doc_venues, authors, spec.citations)
            for i in range(num_documents)
        ]
    return Inputs(
        subscriptions=subscriptions[: spec.subscriptions],
        warmup=documents[: spec.warmup],
        documents=documents[spec.warmup :],
        fresh=subscriptions[spec.subscriptions :],
    )


def input_digest(inputs: Inputs) -> str:
    """SHA-256 over every generated string, in order."""
    sha = hashlib.sha256()
    for sub in inputs.subscriptions + inputs.fresh:
        sha.update(sub.text.encode())
        sha.update(b"\n")
    for doc in inputs.warmup + inputs.documents:
        sha.update(f"{doc.stream}\t{doc.text}\n".encode())
    return sha.hexdigest()
