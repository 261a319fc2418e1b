"""A DBLP-style publication stream with a large subscription population.

DBLP is the classic bibliography corpus: articles carrying authors, a
title and a venue.  This module generates a synthetic stand-in with the
statistical properties a many-subscriber workload depends on:

* **venues as streams** — each article is published on its venue's stream
  (``venue0``, ``venue1``, ...), and subscriptions name venue streams in
  their query blocks, so the broker's relevance index and fan-out router
  prune by venue exactly as a real deployment would;
* **Zipf entity reuse** — venues and authors are drawn from Zipf
  distributions (a few mega-venues and prolific authors dominate, with a
  long tail), so join-value collision rates are realistic;
* **bounded title pool** — titles repeat at a controllable rate, giving
  the title-join query shapes real matches.

Subscriptions come in a small number of *shapes* (structural classes) —
coauthor alerts, cross-venue title echoes, author+title trackers — so the
template registry collapses the whole population onto a handful of
templates no matter how many subscriptions are live, which is precisely
the paper's scaling claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.workloads.zipf import ZipfSampler
from repro.xmlmodel.builder import element
from repro.xmlmodel.document import XmlDocument


@dataclass
class DblpWorkloadConfig:
    """Parameters of the synthetic DBLP stream and subscription population.

    The defaults are sized for a large population: enough venues that
    per-venue routing matters, enough authors that author joins are
    selective, and Zipf skews (``theta``) matching the heavy-tailed reuse
    a real bibliography shows.
    """

    num_venues: int = 50
    num_authors: int = 5000
    title_pool_size: int = 2000
    max_authors_per_article: int = 4
    #: Number of ``<cite>`` reference elements per article (the real DBLP
    #: corpus carries citation lists; they make documents element-dense
    #: without adding join values, which is what parse-bound ingest
    #: benchmarks need).  The default keeps articles citation-free.
    citations_per_article: int = 0
    venue_theta: float = 0.7
    author_theta: float = 0.8
    window: float = 200.0
    start_timestamp: float = 1.0
    timestamp_step: float = 1.0
    seed: int = 17

    def venue_stream(self, venue: int) -> str:
        """The stream name articles of one venue are published on."""
        return f"venue{venue % self.num_venues}"


def _title(index: int) -> str:
    return f"Title {index}: advances in stream joins"


def _author(index: int) -> str:
    return f"Author {index}"


def generate_article(
    config: DblpWorkloadConfig,
    sequence: int,
    rng: random.Random,
    venue_sampler: ZipfSampler,
    author_sampler: ZipfSampler,
) -> XmlDocument:
    """Generate one article document on its venue's stream."""
    venue = venue_sampler.sample() - 1
    num_authors = rng.randint(1, config.max_authors_per_article)
    authors = {author_sampler.sample() - 1 for _ in range(num_authors)}
    timestamp = config.start_timestamp + sequence * config.timestamp_step
    extra = []
    if config.citations_per_article:
        extra.append(
            element(
                "citations",
                *[
                    element("cite", text=f"dblp/article{rng.randrange(10**6)}")
                    for _ in range(config.citations_per_article)
                ],
            )
        )
    root = element(
        "article",
        element("key", text=f"dblp/article{sequence}"),
        element(
            "authors",
            *[element("author", text=_author(a)) for a in sorted(authors)],
        ),
        element("title", text=_title(rng.randrange(config.title_pool_size))),
        element("venue", text=config.venue_stream(venue)),
        element("year", text=str(2000 + sequence % 26)),
        *extra,
    )
    return XmlDocument(
        root,
        docid=f"article{sequence}",
        timestamp=timestamp,
        stream=config.venue_stream(venue),
    )


def generate_dblp_stream(
    config: Optional[DblpWorkloadConfig] = None,
    num_articles: int = 1000,
    seed: Optional[int] = None,
) -> Iterator[XmlDocument]:
    """Yield the article stream in arrival order (Zipf venues and authors)."""
    config = config if config is not None else DblpWorkloadConfig()
    rng = random.Random(seed if seed is not None else config.seed)
    venue_sampler = ZipfSampler(config.num_venues, config.venue_theta, rng)
    author_sampler = ZipfSampler(config.num_authors, config.author_theta, rng)
    for sequence in range(num_articles):
        yield generate_article(config, sequence, rng, venue_sampler, author_sampler)


# --------------------------------------------------------------------------- #
# subscription shapes
# --------------------------------------------------------------------------- #
def _coauthor_alert(venue: str, window: float) -> str:
    """Same author publishes twice in one venue within the window."""
    return (
        f"{venue}//article->x1[.//author->x2] "
        f"FOLLOWED BY{{x2=x4, {window}}} "
        f"{venue}//article->x3[.//author->x4]"
    )


def _title_echo(venue_a: str, venue_b: str, window: float) -> str:
    """The same title appears in venue A and then venue B."""
    return (
        f"{venue_a}//article->x1[.//title->x2] "
        f"FOLLOWED BY{{x2=x4, {window}}} "
        f"{venue_b}//article->x3[.//title->x4]"
    )


def _author_title_tracker(venue: str, window: float) -> str:
    """Same author *and* same title recur in one venue within the window."""
    return (
        f"{venue}//article->x1[.//author->x2][.//title->x3] "
        f"FOLLOWED BY{{x2=x5 AND x3=x6, {window}}} "
        f"{venue}//article->x4[.//author->x5][.//title->x6]"
    )


#: The subscription shapes, cycled through by :func:`generate_dblp_subscription`.
NUM_SHAPES = 3


def generate_dblp_subscription(
    config: DblpWorkloadConfig,
    index: int,
    rng: random.Random,
    venue_sampler: ZipfSampler,
) -> str:
    """Generate one subscription query string (shape cycles, venues Zipf).

    Returns query *text*: the broker parses it on subscribe exactly as a
    real subscriber's submission.
    """
    shape = index % NUM_SHAPES
    venue = config.venue_stream(venue_sampler.sample() - 1)
    if shape == 0:
        return _coauthor_alert(venue, config.window)
    if shape == 1:
        other = config.venue_stream(venue_sampler.sample() - 1)
        return _title_echo(venue, other, config.window)
    return _author_title_tracker(venue, config.window)


def generate_dblp_subscriptions(
    num_subscriptions: int,
    config: Optional[DblpWorkloadConfig] = None,
    seed: Optional[int] = None,
) -> Iterator[str]:
    """Yield ``num_subscriptions`` subscription query strings."""
    config = config if config is not None else DblpWorkloadConfig()
    rng = random.Random(seed if seed is not None else config.seed + 1)
    venue_sampler = ZipfSampler(config.num_venues, config.venue_theta, rng)
    for index in range(num_subscriptions):
        yield generate_dblp_subscription(config, index, rng, venue_sampler)
