"""Shared fixtures: the paper's running example and small workloads.

Also the ``--replay FIELD=VALUE`` option (repeatable): it replaces
:class:`~repro.config.RuntimeConfig` defaults for the whole session before
collection, so existing suites rerun under another configuration — e.g.
``pytest --replay storage=sqlite tests/test_recovery.py``.  A field a test
sets explicitly keeps its value.
"""

from __future__ import annotations

import ast
import dataclasses
import random
from typing import Iterable

import pytest
from hypothesis import strategies as st

from repro.config import RuntimeConfig
from repro.core.results import Match
from repro.workloads.querygen import generate_query
from repro.workloads.synthetic import build_document
from repro.xmlmodel import XmlDocument, element
from repro.xmlmodel.schema import two_level_schema


def pytest_addoption(parser):
    parser.addoption(
        "--replay",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="replace a RuntimeConfig default for the session (repeatable); "
        "values a test sets explicitly win",
    )


def pytest_configure(config):
    # Before collection, so module-level configs see the replayed defaults.
    replay_defaults(config.getoption("--replay"))


def replay_defaults(specs: Iterable[str]) -> None:
    """Make ``FIELD=VALUE`` specs the defaults of ``RuntimeConfig()``.

    Values are Python literals (``False``, ``2``, ``None``) or bare strings
    (``sqlite``).  An unknown field, or a value the config rejects, is a
    :class:`pytest.UsageError` and changes nothing.
    """
    names = [field.name for field in dataclasses.fields(RuntimeConfig)]
    changes = {}
    for spec in specs:
        name, sep, text = spec.partition("=")
        if not sep or name not in names:
            raise pytest.UsageError(
                f"--replay {spec!r}: expected FIELD=VALUE with FIELD one of {names}"
            )
        try:
            changes[name] = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            changes[name] = text
    try:
        RuntimeConfig(**changes)
    except (TypeError, ValueError) as exc:
        raise pytest.UsageError(f"--replay: {exc}") from None
    init = RuntimeConfig.__init__
    # Every field has a default, so the defaults line up with the fields.
    init.__defaults__ = tuple(
        changes.get(name, default) for name, default in zip(names, init.__defaults__)
    )


#: Window symbols for the paper's Table 2 queries.
PAPER_WINDOWS = {"T1": 10.0, "T2": 10.0, "T3": 10.0}

#: The three example queries of Table 2 (Q3 uses identical variable names on
#: both sides, as the paper's canonical-naming convention prescribes).
PAPER_Q1 = (
    "S//book->x1[.//author->x2][.//title->x3] "
    "FOLLOWED BY{x2=x5 AND x3=x6, T1} "
    "S//blog->x4[.//author->x5][.//title->x6]"
)
PAPER_Q2 = (
    "S//book->x1[.//author->x2][.//category->x7] "
    "FOLLOWED BY{x2=x5 AND x7=x8, T2} "
    "S//blog->x4[.//author->x5][.//category->x8]"
)
PAPER_Q3 = (
    "S//blog->x4[.//author->x5][.//title->x6] "
    "FOLLOWED BY{x5=x5 AND x6=x6, T3} "
    "S//blog->x4[.//author->x5][.//title->x6]"
)


def make_book_announcement(docid: str = "d1", timestamp: float = 1.0) -> XmlDocument:
    """The book announcement document of Figure 1."""
    root = element(
        "book",
        element(
            "authors",
            element("author", text="Danny Ayers"),
            element("author", text="Andrew Watt"),
        ),
        element("title", text="Beginning RSS and Atom Programming"),
        element("category", text="Scripting & Programming"),
        element("category", text="Web Site Development"),
        element("publisher", text="Wrox"),
        element("isbn", text="0764579169"),
    )
    return XmlDocument(root, docid=docid, timestamp=timestamp)


def make_blog_article(
    docid: str = "d2",
    timestamp: float = 2.0,
    author: str = "Danny Ayers",
    title: str = "Beginning RSS and Atom Programming",
) -> XmlDocument:
    """The blog article document of Figure 2."""
    root = element(
        "blog",
        element("url", text="http://dannyayers.com/topics/books/rss-book"),
        element("author", text=author),
        element("title", text=title),
        element("category", text="Book Announcement"),
        element("category", text="Scripting & Programming"),
        element("description", text="Just heard ..."),
    )
    return XmlDocument(root, docid=docid, timestamp=timestamp)


@pytest.fixture
def book_document() -> XmlDocument:
    """Fresh copy of Figure 1's book announcement (node ids reassigned)."""
    return make_book_announcement()


@pytest.fixture
def blog_document() -> XmlDocument:
    """Fresh copy of Figure 2's blog article."""
    return make_blog_article()


@pytest.fixture
def paper_windows() -> dict[str, float]:
    """Window symbol bindings used by the Table 2 queries."""
    return dict(PAPER_WINDOWS)


#: The small workload of the property tests: random queries over a root with
#: four leaves — per query (value joins, seed) — and documents whose leaf
#: values come from a pool of three, so that joins actually fire.
SMALL_SCHEMA = two_level_schema(4)
query_specs = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 10_000)), min_size=1, max_size=6)
doc_specs = st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=2, max_size=5)


def make_queries(specs, window: float = 10.0) -> list:
    return [generate_query(SMALL_SCHEMA, k, random.Random(seed), window=window) for k, seed in specs]


def make_document(i: int, values) -> XmlDocument:
    leaves = [f"v{x}" for x in values]
    return build_document(SMALL_SCHEMA, docid=f"doc{i}", timestamp=float(i + 1), leaf_values=leaves)


def make_documents(specs) -> list[XmlDocument]:
    return [make_document(i, values) for i, values in enumerate(specs)]



def count_match_constructions(monkeypatch) -> dict:
    """Count every :class:`~repro.core.results.Match` built from here on.

    A match is built by keyword construction or by :meth:`Match.from_row`
    (Stage 2's output rows, decoded wire rows); both are counted in
    ``"calls"``.
    """
    counter = {"calls": 0}
    init, from_row = Match.__init__, Match.from_row

    def counted_init(self, *args, **kwargs):
        counter["calls"] += 1
        init(self, *args, **kwargs)

    def counted_from_row(cls, *args, **kwargs):
        counter["calls"] += 1
        return from_row(*args, **kwargs)

    monkeypatch.setattr(Match, "__init__", counted_init)
    monkeypatch.setattr(Match, "from_row", classmethod(counted_from_row))
    return counter
