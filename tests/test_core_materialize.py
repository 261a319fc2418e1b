"""Unit tests for view materialization and the view cache (Section 5)."""

import pytest

from repro.core import JoinState, ViewCache, WitnessRelations, compute_materialized_views
from repro.core.costs import CostBreakdown
from repro.core.materialize import maintain_view_cache


@pytest.fixture
def state() -> JoinState:
    s = JoinState()
    # One previous document with two bound leaves under a root.
    s.insert_document_rows(
        "d1",
        1.0,
        rbin_rows=[("root", "author", 0, 1), ("root", "title", 0, 2)],
        rdoc_rows=[(1, "Ada"), (2, "Streams")],
        rvar_rows=[("root", 0), ("author", 1), ("title", 2)],
    )
    return s


@pytest.fixture
def witnesses() -> WitnessRelations:
    # Current document: author value matches d1's, title value does not.
    return WitnessRelations.from_rows(
        "d2",
        2.0,
        rbinw_rows=[("root", "author", 0, 1), ("root", "title", 0, 2)],
        rdocw_rows=[(1, "Ada"), (2, "Databases")],
        rvarw_rows=[("root", 0), ("author", 1), ("title", 2)],
    )


def test_common_values_semijoin(state, witnesses):
    views = compute_materialized_views(state, witnesses)
    assert views.common_values == {"Ada"}


def test_rvj_contains_matching_node_pairs(state, witnesses):
    views = compute_materialized_views(state, witnesses)
    assert views.rvj.rows == [("d1", 1, 1, "Ada")]


def test_rl_restricted_to_common_values(state, witnesses):
    views = compute_materialized_views(state, witnesses)
    assert views.rl.rows == [("d1", "root", "author", 0, 1, "Ada")]
    assert views.rlvar.rows == [("d1", "author", 1, "Ada")]


def test_rr_restricted_to_common_values(state, witnesses):
    views = compute_materialized_views(state, witnesses)
    assert views.rr.rows == [("root", "author", 0, 1, "Ada")]
    assert views.rrvar.rows == [("author", 1, "Ada")]


def test_costs_record_three_phases(state, witnesses):
    costs = CostBreakdown()
    compute_materialized_views(state, witnesses, costs=costs)
    assert set(costs.seconds) == {"rvj", "rl", "rr"}


def test_view_cache_miss_then_hit(state, witnesses):
    cache = ViewCache(max_entries=10)
    compute_materialized_views(state, witnesses, view_cache=cache)
    assert cache.misses == 1 and cache.hits == 0
    views = compute_materialized_views(state, witnesses, view_cache=cache)
    assert cache.hits == 1
    assert views.rl.rows == [("d1", "root", "author", 0, 1, "Ada")]


def test_view_cache_results_match_direct_computation(state, witnesses):
    direct = compute_materialized_views(state, witnesses)
    cache = ViewCache()
    cached = compute_materialized_views(state, witnesses, view_cache=cache)
    assert sorted(direct.rl.rows) == sorted(cached.rl.rows)
    assert sorted(direct.rr.rows) == sorted(cached.rr.rows)


def test_view_cache_lru_eviction():
    cache = ViewCache(max_entries=2)
    cache.put("a", [("d1",)])
    cache.put("b", [("d1",)])
    assert cache.get("a") is not None      # refresh a
    cache.put("c", [("d1",)])              # evicts b
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert len(cache) == 2


def test_view_cache_invalid_size():
    with pytest.raises(ValueError):
        ViewCache(max_entries=0)


def test_maintain_view_cache_folds_rr_into_rl(state, witnesses):
    cache = ViewCache()
    views = compute_materialized_views(state, witnesses, view_cache=cache)
    maintain_view_cache(cache, views, current_docid="d2")
    rows = cache.get("Ada")
    assert ("d2", "root", "author", 0, 1, "Ada") in rows
    assert ("d1", "root", "author", 0, 1, "Ada") in rows


def test_remove_documents_from_cache():
    cache = ViewCache()
    cache.put("v", [("d1", "a", "b", 0, 1, "v"), ("d2", "a", "b", 0, 1, "v")])
    cache.put("w", [("d1", "a", "b", 0, 2, "w")])
    cache.remove_documents({"d1"})
    assert cache.get("v") == [("d2", "a", "b", 0, 1, "v")]
    assert "w" not in cache


def test_append_to_missing_entry_is_noop():
    cache = ViewCache()
    cache.append("nope", [("d1",)])
    assert "nope" not in cache


def test_no_common_values_yields_empty_views(state):
    witnesses = WitnessRelations.from_rows(
        "d3", 3.0, rbinw_rows=[("root", "author", 0, 1)], rdocw_rows=[(1, "Nobody")]
    )
    views = compute_materialized_views(state, witnesses)
    assert len(views.rvj) == 0
    assert len(views.rl) == 0
    assert len(views.rr) == 0


def test_cost_breakdown_merge_and_reset():
    a = CostBreakdown()
    with a.measure("phase1"):
        pass
    b = CostBreakdown()
    b.add("phase2", 0.5)
    a.merge(b)
    assert set(a.seconds) == {"phase1", "phase2"}
    assert a.total >= 0.5
    assert a.as_milliseconds()["phase2"] == 500.0
    a.reset()
    assert a.total == 0.0
