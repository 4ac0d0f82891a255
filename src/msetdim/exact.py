"""Exhaustive minimum-size search for the three resolving-set notions.

Small graphs only: subsets are enumerated size-ascending, lexicographic
within each size, so results and counters are deterministic and the first
success is the true minimum.  Multiset resolving is not monotone under
supersets, so nothing is pruned; reporting "no multiset resolving set" means
every non-empty subset was tried.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, distances_from
from .signatures import KIND_METRIC, KIND_MULTISET, KIND_OUTER

DEFAULT_BUDGET = 16
HARD_CAP = 22


class BudgetExceededError(ValueError):
    """Graph too large for exhaustive search under the given budget."""


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one minimum-size search.

    value is math.inf when no multiset resolving set exists (established by
    exhausting every non-empty subset).  In size-limited mode a fruitless
    search returns value None with proven_at_least set instead.
    """

    value: int | float | None
    witness: tuple[int, ...] | None
    subsets_examined: int
    proven_at_least: int | None = None


@dataclass(frozen=True)
class DimensionResult:
    """The three dimensions of one graph plus minimum witnesses."""

    metric_dim: int
    outer_multiset_dim: int
    multiset_dim: int | float
    metric_witness: tuple[int, ...]
    outer_multiset_witness: tuple[int, ...]
    multiset_witness: tuple[int, ...] | None
    subsets_examined: int

    def to_json_dict(self) -> dict:
        return {
            "beta": self.metric_dim,
            "beta_ms_out": self.outer_multiset_dim,
            "beta_ms": "inf" if math.isinf(self.multiset_dim) else self.multiset_dim,
            "witnesses": {
                "metric": list(self.metric_witness),
                "outer-multiset": list(self.outer_multiset_witness),
                "multiset": list(self.multiset_witness) if self.multiset_witness else None,
            },
            "subsets_examined": self.subsets_examined,
        }


def _check_budget(g: Graph, budget: int) -> None:
    cap = min(budget, HARD_CAP)
    if g.n > cap:
        raise BudgetExceededError(
            f"exhaustive search refused: n={g.n} exceeds budget {cap}"
            + (f" (hard cap {HARD_CAP})" if budget > HARD_CAP else "")
        )
    if g.n > DEFAULT_BUDGET:
        warnings.warn(
            f"exhaustive search on n={g.n} vertices may take a while",
            stacklevel=3,
        )


def _is_resolving(
    rows: list[list[int]], n: int, members: tuple[int, ...], kind: str, buckets: int
) -> bool:
    """Single subset check, O(n * (|R| + buckets)); exits on first collision.

    Unreachable distances are -1 and land in the histogram's last bucket via
    negative indexing.
    """
    seen = set()
    if kind == KIND_METRIC:
        for v in range(n):
            row = rows[v]
            sig = tuple(row[r] for r in members)
            if sig in seen:
                return False
            seen.add(sig)
        return True
    outer = kind == KIND_OUTER
    member_set = set(members)
    for v in range(n):
        if outer and v in member_set:
            continue
        row = rows[v]
        hist = [0] * buckets
        for r in members:
            hist[row[r]] += 1
        sig = tuple(hist)
        if sig in seen:
            return False
        seen.add(sig)
    return True


def _search(
    g: Graph, kind: str, budget: int, size_limit: int | None = None
) -> SearchOutcome:
    _check_budget(g, budget)
    rows = distances_from(g, range(g.n)).tolist()
    n = g.n
    top = max(max(r) for r in rows)
    buckets = top + 2  # one histogram slot per distance plus the unreachable slot
    examined = 0
    max_size = n if size_limit is None else min(size_limit, n)
    for size in range(1, max_size + 1):
        for members in combinations(range(n), size):
            examined += 1
            if _is_resolving(rows, n, members, kind, buckets):
                return SearchOutcome(
                    value=size, witness=members, subsets_examined=examined
                )
    if size_limit is not None and size_limit < n:
        return SearchOutcome(
            value=None,
            witness=None,
            subsets_examined=examined,
            proven_at_least=size_limit + 1,
        )
    if kind == KIND_MULTISET:
        return SearchOutcome(value=math.inf, witness=None, subsets_examined=examined)
    # Metric and outer-multiset kinds always succeed by size n-1 at the latest,
    # so reaching this point means the graph has a single vertex.
    return SearchOutcome(value=n, witness=tuple(range(n)), subsets_examined=examined)


def metric_dimension_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Minimum size of a set whose ordered distance vectors separate all pairs."""
    return _search(g, KIND_METRIC, budget)


def multiset_dimension_exact(
    g: Graph, budget: int = DEFAULT_BUDGET, size_limit: int | None = None
) -> SearchOutcome:
    """Minimum size of a multiset resolving set, or math.inf if none exists.

    The infinite verdict requires exhausting all 2**n - 1 non-empty subsets.
    With size_limit=s the search stops after size s and, when fruitless,
    reports only that the dimension is at least s + 1.
    """
    return _search(g, KIND_MULTISET, budget, size_limit)


def outer_multiset_dimension_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """Minimum size of a set distinguishing all pairs outside it (always <= n-1)."""
    return _search(g, KIND_OUTER, budget)


def dimension_report(g: Graph, budget: int = DEFAULT_BUDGET) -> DimensionResult:
    """All three dimensions at once, with the chain inequality asserted.

    multiset >= outer-multiset >= metric must hold on every instance; a
    violation indicates a solver bug and raises immediately.
    """
    metric = metric_dimension_exact(g, budget)
    outer = outer_multiset_dimension_exact(g, budget)
    multi = multiset_dimension_exact(g, budget)
    m_val = multi.value if multi.value is not None else math.inf
    if not (m_val >= outer.value >= metric.value):
        raise AssertionError(
            f"dimension chain violated: multiset={m_val}, "
            f"outer={outer.value}, metric={metric.value}"
        )
    return DimensionResult(
        metric_dim=int(metric.value),
        outer_multiset_dim=int(outer.value),
        multiset_dim=m_val,
        metric_witness=metric.witness,
        outer_multiset_witness=outer.witness,
        multiset_witness=multi.witness,
        subsets_examined=metric.subsets_examined
        + outer.subsets_examined
        + multi.subsets_examined,
    )


def find_monotonicity_violation(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[tuple[int, ...], int] | None:
    """A pair (R, u) where R is multiset resolving but R + {u} is not.

    Documents why the multiset search cannot prune supersets of failures.
    Subsets are scanned in search order; returns the first violation found,
    or None if the graph has no resolving set at all (or no violation).
    """
    _check_budget(g, budget)
    rows = distances_from(g, range(g.n)).tolist()
    n = g.n
    top = max(max(r) for r in rows)
    buckets = top + 2
    for size in range(1, n):
        for members in combinations(range(n), size):
            if not _is_resolving(rows, n, members, KIND_MULTISET, buckets):
                continue
            member_set = set(members)
            for u in range(n):
                if u in member_set:
                    continue
                grown = tuple(sorted(members + (u,)))
                if not _is_resolving(rows, n, grown, KIND_MULTISET, buckets):
                    return members, u
    return None
