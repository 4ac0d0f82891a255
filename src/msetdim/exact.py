"""Exhaustive minimum-size search for the three resolving-set notions.

Small graphs only: subsets are enumerated size-ascending, lexicographic
within each size, so results and counters are deterministic and the first
success is the true minimum.  Multiset resolving is not monotone under
supersets, so nothing is pruned; reporting "no multiset resolving set" means
every non-empty subset was tried.

Each subset S gives vertex v an exact integer key, the sum of W[r, v] over
members r.  Multiset kinds put distance bucket c (unreachable is its own
bucket) in digit c of base n + 1, so the key is the count histogram; the
metric kind puts member r's distance code in digit r.  Digits are packed
into as many int64 words as needed, at most 62 bits each.  S resolves when
its n keys are pairwise distinct (outer-multiset: members get distinct
negative keys).  Size-s subsets in order are the size-(s-1) ones in order,
each extended by every larger vertex, so a whole level is computed at once
as parent keys plus W[last], in blocks of _PARENT_ROWS parents.  Only rows
with children are kept for the next level: at most C(n, n // 2) rows of n
keys per word are held (124 MB per word at n = 22) plus one block's
temporaries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, distances_from
from .signatures import KIND_METRIC, KIND_MULTISET, KIND_OUTER, verify_resolving

DEFAULT_BUDGET = 16
HARD_CAP = 22
_PARENT_ROWS = 2048


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


def _check_budget(g: Graph, budget: int, stacklevel: int) -> None:
    """Refuse graphs over the budget and warn above DEFAULT_BUDGET, at the
    stacklevel of the public function's caller (each entry point knows its
    own depth)."""
    cap = min(budget, HARD_CAP)
    if g.n > cap:
        raise BudgetExceededError(
            f"exhaustive search refused: n={g.n} exceeds budget {cap}"
            + (f" (hard cap {HARD_CAP})" if budget > HARD_CAP else "")
        )
    if g.n > DEFAULT_BUDGET:
        warnings.warn(
            f"exhaustive search on n={g.n} vertices may take a while",
            stacklevel=stacklevel,
        )


def _weights(g: Graph, kind: str) -> np.ndarray:
    """(words, n, n) int64: word w of vertex v's key is the sum of
    weights[w, r, v] over the members r."""
    n = g.n
    dist = distances_from(g, range(n)).astype(np.int64)
    top = int(dist.max())
    bucket = np.where(dist < 0, top + 1, dist)
    r, v = np.indices((n, n))
    base, digit, value = (top + 2, r, bucket) if kind == KIND_METRIC else (n + 1, bucket, 1)
    per_word = 62 // (base - 1).bit_length()
    weights = np.zeros((-(-(int(digit.max()) + 1) // per_word), n, n), dtype=np.int64)
    weights[digit // per_word, r, v] = value * base ** (digit % per_word)
    return weights


def _resolves(keys: np.ndarray) -> np.ndarray:
    """Per row of (words, m, n) keys: True when its n key tuples are distinct."""
    ordered = np.sort(keys[0], axis=1)
    collide = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if len(keys) > 1:  # a tie in word 0 collides only if the other words tie too
        rows = np.flatnonzero(collide)
        same = (keys[:, rows, :, None] == keys[:, rows, None, :]).all(axis=0)
        collide[rows] = np.triu(same, 1).any(axis=(1, 2))
    return ~collide


def _level_blocks(g: Graph, kind: str, max_size: int):
    """Yield (size, masks, resolves) for the subsets of size 1..max_size in
    search order, one block of _PARENT_ROWS parents at a time: the subsets
    as vertex bitmasks and whether each one resolves."""
    n = g.n
    weights = _weights(g, kind)
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    keys = np.zeros((len(weights), 1, n), dtype=np.int64)
    masks = np.zeros(1, dtype=np.int64)  # the empty set is the one parent of level 1
    for size in range(1, max_size + 1):
        # rows ending at vertex n - 1 have no children: C(n-1, size) are kept
        kept = math.comb(n - 1, size) if size < max_size else 0
        next_keys = np.empty((len(weights), kept, n), dtype=np.int64)
        next_masks = np.empty(kept, dtype=np.int64)
        filled = 0
        for lo in range(0, masks.size, _PARENT_ROWS):
            last = np.frexp(masks[lo : lo + _PARENT_ROWS])[1] - 1  # highest member
            parent, child = np.nonzero(np.arange(n) > last[:, None])
            child_keys = keys[:, lo + parent] + weights[:, child]
            child_masks = masks[lo + parent] | bits[child]
            keep = (child < n - 1) & (kept > 0)
            stop = filled + int(keep.sum())
            next_keys[:, filled:stop] = child_keys[:, keep]
            next_masks[filled:stop] = child_masks[keep]
            filled = stop
            if kind == KIND_OUTER:  # after the copy above, which must not see these
                np.copyto(child_keys[0], -1 - np.arange(n), where=(child_masks[:, None] & bits) > 0)
            yield size, child_masks, _resolves(child_keys)
        keys, masks = next_keys, next_masks


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if int(mask) >> v & 1)


def _search(
    g: Graph, kind: str, budget: int, size_limit: int | None = None
) -> SearchOutcome:
    # Called straight from the public functions: _check_budget, _search and
    # the entry point lie between warn and the user's line.
    _check_budget(g, budget, stacklevel=4)
    n = g.n
    examined = 0
    max_size = n if size_limit is None else min(size_limit, n)
    for size, masks, resolves in _level_blocks(g, kind, max_size):
        first = int(resolves.argmax())
        if resolves[first]:
            return SearchOutcome(size, _members(masks[first], n), examined + first + 1)
        examined += resolves.size
    if size_limit is not None and size_limit < n:
        return SearchOutcome(None, None, examined, proven_at_least=size_limit + 1)
    # Only the multiset kind gets here: the others resolve by size n - 1
    # (size 1 when n = 1).
    return SearchOutcome(value=math.inf, witness=None, subsets_examined=examined)


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

    multiset >= outer-multiset >= metric must hold on every instance, and
    each witness must pass verify_resolving (BFS histograms, not the
    search's keys); a violation is a solver bug and raises immediately.
    """
    metric = _search(g, KIND_METRIC, budget)
    outer = _search(g, KIND_OUTER, budget)
    multi = _search(g, KIND_MULTISET, budget)
    m_val = multi.value if multi.value is not None else math.inf
    if not (m_val >= outer.value >= metric.value):
        raise AssertionError(
            f"dimension chain violated: multiset={m_val}, "
            f"outer={outer.value}, metric={metric.value}"
        )
    for kind, outcome in ((KIND_METRIC, metric), (KIND_OUTER, outer), (KIND_MULTISET, multi)):
        if outcome.witness is not None and not verify_resolving(g, outcome.witness, kind).resolving:
            raise AssertionError(f"{kind} witness {outcome.witness} fails verify_resolving")
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
    _check_budget(g, budget, stacklevel=3)
    n = g.n
    resolves = np.zeros(1 << n, dtype=bool)  # verdict per vertex bitmask
    found = []  # resolving subsets in search order
    for _, masks, ok in _level_blocks(g, KIND_MULTISET, n):
        resolves[masks] = ok
        found.append(masks[ok, None])
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    for rows in found:  # adding a member keeps the set, which resolves
        broken = ~resolves[rows | bits]
        hit = np.flatnonzero(broken.any(axis=1))
        if hit.size:
            return _members(rows[hit[0], 0], n), int(broken[hit[0]].argmax())
    return None
