"""Exhaustive solver: known dimensions, refusals, witnesses, chain checks."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msetdim import (
    DEFAULT_BUDGET,
    KINDS,
    BudgetExceededError,
    Graph,
    KIND_MULTISET,
    complete_graph,
    cycle_graph,
    dimension_report,
    find_monotonicity_violation,
    metric_dimension_exact,
    multiset_dimension_exact,
    outer_multiset_dimension_exact,
    path_graph,
    petersen_graph,
    star_graph,
    verify_resolving,
)

from msetdim import exact
from msetdim.exact import HARD_CAP

from .conftest import (
    exhaustive_search_oracle,
    monotonicity_violation_oracle,
    random_connected_graph,
    small_graphs,
)


# A path 0..14 whose end vertex 14 lies in a K4: diameter 14, twin vertices.
LOLLIPOP = Graph.from_edges(
    18, [(i, i + 1) for i in range(14)] + [(a, b) for a in range(14, 18) for b in range(a + 1, 18)]
)


def _fields(out):
    return out.value, out.witness, out.subsets_examined, out.proven_at_least


class TestAgainstOracle:
    @given(small_graphs(max_n=9), st.sampled_from([None, 1, 2]))
    @example(Graph.from_edges(1, []), None)
    @example(Graph.from_edges(1, []), 1)
    @example(Graph.from_edges(6, []), None)
    @example(Graph.from_edges(7, [(0, 1), (2, 3), (3, 4)]), 2)
    @settings(max_examples=80, deadline=None)
    def test_search_matches_oracle(self, g, size_limit):
        for kind in KINDS:
            out = exact._search(g, kind, DEFAULT_BUDGET, size_limit)
            assert _fields(out) == exhaustive_search_oracle(g, kind, size_limit), kind
        assert find_monotonicity_violation(g) == monotonicity_violation_oracle(g)

    # Keys of these graphs span two int64 words; on path_graph(18) with the
    # high word dropped, vertices 12-17 would all collide under the set {0}.
    @pytest.mark.parametrize(
        "g, kind, size_limit",
        [
            (path_graph(18), "metric", None),
            (path_graph(18), "outer-multiset", None),
            (path_graph(18), "multiset", None),
            (path_graph(22), "multiset", 2),
            (LOLLIPOP, "outer-multiset", None),
            (LOLLIPOP, "multiset", 2),
        ],
    )
    def test_two_word_keys(self, g, kind, size_limit):
        assert len(exact._weights(g, kind)) == 2
        with pytest.warns(UserWarning):
            out = exact._search(g, kind, HARD_CAP, size_limit)
        assert _fields(out) == exhaustive_search_oracle(g, kind, size_limit)


def test_memory_bound_at_hard_cap():
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning):
            out = multiset_dimension_exact(complete_graph(22), budget=HARD_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.value == math.inf and out.subsets_examined == 2**22 - 1
    assert peak <= 256 * 10**6, f"peak {peak / 1e6:.1f} MB"


def test_report_rechecks_witnesses(monkeypatch):
    # A key kernel that accepts every subset: the chain still holds (all 1),
    # but verify_resolving must reject the witness (0,) on K4.
    monkeypatch.setattr(exact, "_resolves", lambda keys: np.ones(keys.shape[1], dtype=bool))
    with pytest.raises(AssertionError, match="fails verify_resolving"):
        dimension_report(complete_graph(4))


class TestMetricDimension:
    def test_paths(self):
        for n in range(2, 9):
            assert metric_dimension_exact(path_graph(n)).value == 1

    def test_complete_graphs(self):
        for n in range(2, 8):
            assert metric_dimension_exact(complete_graph(n)).value == n - 1

    def test_cycle(self):
        assert metric_dimension_exact(cycle_graph(6)).value == 2


class TestMultisetDimension:
    def test_path(self):
        out = multiset_dimension_exact(path_graph(5))
        assert out.value == 1 and out.witness in ((0,), (4,))

    def test_four_cycle_infinite(self):
        out = multiset_dimension_exact(cycle_graph(4))
        assert out.value == math.inf and out.witness is None
        assert out.subsets_examined == 2**4 - 1  # every non-empty subset tried

    def test_six_cycle(self):
        out = multiset_dimension_exact(cycle_graph(6))
        assert out.value == 3
        assert verify_resolving(cycle_graph(6), out.witness, KIND_MULTISET).resolving

    def test_size_limited_mode(self):
        out = multiset_dimension_exact(cycle_graph(6), size_limit=2)
        assert out.value is None and out.proven_at_least == 3

    def test_size_limited_still_finds_small(self):
        out = multiset_dimension_exact(path_graph(6), size_limit=2)
        assert out.value == 1


class TestOuterMultisetDimension:
    def test_complete(self):
        for n in range(3, 7):
            assert outer_multiset_dimension_exact(complete_graph(n)).value == n - 1

    def test_path3(self):
        assert outer_multiset_dimension_exact(path_graph(3)).value == 1

    def test_petersen_regular_diameter_two(self):
        assert outer_multiset_dimension_exact(petersen_graph()).value == 9


class TestDimensionReport:
    def test_path4(self):
        rep = dimension_report(path_graph(4))
        assert (rep.metric_dim, rep.outer_multiset_dim, rep.multiset_dim) == (1, 1, 1)

    def test_k4(self):
        rep = dimension_report(complete_graph(4))
        assert (rep.metric_dim, rep.outer_multiset_dim) == (3, 3)
        assert math.isinf(rep.multiset_dim)
        assert rep.to_json_dict()["beta_ms"] == "inf"

    def test_c6_chain(self):
        rep = dimension_report(cycle_graph(6))
        assert rep.metric_dim == 2
        assert rep.multiset_dim == 3
        assert rep.multiset_dim >= rep.outer_multiset_dim >= rep.metric_dim

    def test_chain_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, 2, 8)
            rep = dimension_report(g)
            ms = rep.multiset_dim
            assert ms >= rep.outer_multiset_dim >= rep.metric_dim
            assert rep.metric_dim <= g.n - 1
            assert rep.outer_multiset_dim <= g.n - 1

    def test_witnesses_reverify(self, rng):
        from msetdim import KIND_METRIC, KIND_OUTER

        for _ in range(15):
            g = random_connected_graph(rng, 3, 8)
            rep = dimension_report(g)
            assert verify_resolving(g, rep.metric_witness, KIND_METRIC).resolving
            assert verify_resolving(g, rep.outer_multiset_witness, KIND_OUTER).resolving
            if rep.multiset_witness is not None:
                assert verify_resolving(g, rep.multiset_witness, KIND_MULTISET).resolving


class TestBudget:
    def test_refusal_over_budget(self):
        with pytest.raises(BudgetExceededError):
            metric_dimension_exact(path_graph(30))

    def test_hard_cap(self):
        with pytest.raises(BudgetExceededError):
            multiset_dimension_exact(path_graph(23), budget=40)

    def test_warning_between_default_and_cap(self):
        with pytest.warns(UserWarning):
            out = multiset_dimension_exact(path_graph(17), budget=22, size_limit=1)
        assert out.value == 1

    def test_warning_names_the_callers_line(self):
        g = path_graph(17)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            metric_dimension_exact(g, budget=22)
            multiset_dimension_exact(g, budget=22, size_limit=1)
            find_monotonicity_violation(g, budget=22)
            dimension_report(g, budget=22)
        assert len(caught) == 6  # dimension_report runs three searches
        for w in caught:
            assert w.filename == __file__, (w.filename, w.lineno)


def test_non_monotonicity_witness_on_p4():
    hit = find_monotonicity_violation(path_graph(4))
    assert hit is not None
    members, u = hit
    assert verify_resolving(path_graph(4), members, KIND_MULTISET).resolving
    grown = sorted(set(members) | {u})
    assert not verify_resolving(path_graph(4), grown, KIND_MULTISET).resolving


def test_star_has_no_multiset_resolving_set():
    out = multiset_dimension_exact(star_graph(3))
    assert out.value == math.inf


def test_diameter_two_non_paths_all_infinite(rng):
    # Random sweep of small connected graphs: whenever the diameter is at
    # most 2 and the graph is not a path, no multiset resolving set exists.
    from msetdim import diameter

    checked = 0
    for _ in range(150):
        g = random_connected_graph(rng, 3, 9)
        d = diameter(g)
        is_path = g.num_edges == g.n - 1 and int(g.degrees.max()) <= 2
        if d > 2 or is_path:
            continue
        out = multiset_dimension_exact(g)
        assert out.value == math.inf, f"n={g.n}, m={g.num_edges}, diam={d}"
        checked += 1
    assert checked > 40
