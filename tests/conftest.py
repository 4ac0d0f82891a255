"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from msetdim import Graph, RandomGraphSpec, generate_gnp, is_connected
from msetdim import graphs


@contextmanager
def streaming(g: Graph):
    """Within the block, g keeps no level table, so its histograms come
    from fresh BFS blocks; afterwards the next histogram may sweep one."""
    assert g not in graphs._TABLES
    graphs._TABLES[g] = None
    try:
        yield
    finally:
        del graphs._TABLES[g]


def floyd_warshall(g: Graph) -> np.ndarray:
    """Independent all-pairs oracle (cubic; for n <= 64)."""
    n = g.n
    inf = math.inf
    dist = np.full((n, n), inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges():
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def scipy_distance_rows(g: Graph, sources) -> np.ndarray:
    """Independent hop-distance oracle: row i holds the distances from sources[i].

    Built from `g.edge_array` alone with scipy's csgraph, so it shares no
    distance code with msetdim; unreachable vertices are inf.
    """
    edges = g.edge_array
    adj = coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(g.n, g.n)
    ).tocsr()
    return shortest_path(
        adj, directed=False, unweighted=True, indices=np.asarray(sources, dtype=np.int64)
    )


def multisets_collide(g: Graph, members, a: int, b: int) -> bool:
    """True when a != b see the same multiset of distances to `members`.

    Distances are symmetric, so the two multisets are the oracle rows from a
    and from b read off at the members: two rows, not |members|.
    """
    rows = scipy_distance_rows(g, [a, b])
    cols = np.asarray(members, dtype=np.int64)
    return a != b and np.array_equal(np.sort(rows[0, cols]), np.sort(rows[1, cols]))


def is_multiset_resolving(g: Graph, members) -> bool:
    """True when every vertex has its own multiset of distances to `members`."""
    rows = scipy_distance_rows(g, members)
    multisets = np.sort(rows, axis=0).T  # one sorted multiset per vertex
    return np.unique(multisets, axis=0).shape[0] == g.n


def _oracle_resolves(dist: np.ndarray, members: tuple, kind: str) -> bool:
    """Compare the vertices' signature tuples directly (dist from scipy)."""
    cols = dist[list(members)]  # distances are symmetric: column v is v's row
    if kind == "metric":
        sigs = [tuple(cols[:, v]) for v in range(dist.shape[0])]
    else:
        skip = set(members) if kind == "outer-multiset" else set()
        sigs = [tuple(sorted(cols[:, v])) for v in range(dist.shape[0]) if v not in skip]
    return len(set(sigs)) == len(sigs)


def exhaustive_search_oracle(g: Graph, kind: str, size_limit: int | None = None) -> tuple:
    """(value, witness, subsets_examined, proven_at_least) of the minimum search.

    Brute force over itertools.combinations, size-ascending and lexicographic
    within a size, on scipy distances; shares no code with msetdim.exact.
    """
    dist = scipy_distance_rows(g, range(g.n))
    top = g.n if size_limit is None else min(size_limit, g.n)
    examined = 0
    for size in range(1, top + 1):
        for members in combinations(range(g.n), size):
            examined += 1
            if _oracle_resolves(dist, members, kind):
                return size, members, examined, None
    if top < g.n:
        return None, None, examined, size_limit + 1
    return math.inf, None, examined, None


def monotonicity_violation_oracle(g: Graph):
    """First (R, u) in search order with R multiset resolving and R + {u} not."""
    dist = scipy_distance_rows(g, range(g.n))
    for size in range(1, g.n):
        for members in combinations(range(g.n), size):
            if not _oracle_resolves(dist, members, "multiset"):
                continue
            for u in range(g.n):
                grown = tuple(sorted(members + (u,)))
                if u not in members and not _oracle_resolves(dist, grown, "multiset"):
                    return members, u
    return None


# Purpose tag of the constructor's per-round draws (`seeding.CANDIDATE`),
# restated here so the re-derivation below does not run msetdim's seeding code.
CANDIDATE_TAG = 3


def candidate_draw(n: int, r: float, seed: int, round_index: int) -> np.ndarray:
    """The constructor's round draw, re-derived from its documented stream.

    Round t keeps each vertex with probability min(r/n, 1), reading n uniforms
    from PCG64(SeedSequence(seed, spawn_key=(CANDIDATE, t))).
    """
    seq = np.random.SeedSequence(seed, spawn_key=(CANDIDATE_TAG, round_index))
    uniforms = np.random.Generator(np.random.PCG64(seq)).random(n)
    return np.flatnonzero(uniforms < min(r / n, 1.0))


def exact_binom_pmf_max(trials: int, p: Fraction) -> Fraction:
    """max_z C(trials, z) p^z (1-p)^(trials-z), in exact rational arithmetic."""
    a, d = p.numerator, p.denominator  # p = a/d and 1 - p = (d - a)/d
    best = max(
        math.comb(trials, z) * a**z * (d - a) ** (trials - z) for z in range(trials + 1)
    )
    return Fraction(best, d**trials)


@st.composite
def small_graphs(draw, connected=False, max_n=64, sizes=None):
    """Graphs on 1..max_n vertices (or on a number drawn from `sizes`) from
    raw edge lists: isolated vertices and several components are common
    unless a spanning path is added."""
    n = draw(sizes if sizes is not None else st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    edges = [(u, v) for u, v in pairs if u != v]
    if connected or draw(st.booleans()):
        edges += [(i, i + 1) for i in range(n - 1)]
    return Graph.from_edges(n, edges, strict=False)


def random_graph(rng: np.random.Generator, n_min: int = 2, n_max: int = 10) -> Graph:
    n = int(rng.integers(n_min, n_max + 1))
    p = float(rng.uniform(0.15, 0.9))
    seed = int(rng.integers(0, 2**31))
    return generate_gnp(RandomGraphSpec(n=n, p=p, seed=seed))


def random_connected_graph(
    rng: np.random.Generator, n_min: int = 2, n_max: int = 10
) -> Graph:
    while True:
        g = random_graph(rng, n_min, n_max)
        if is_connected(g):
            return g


def random_member_set(rng: np.random.Generator, g: Graph) -> list[int]:
    size = int(rng.integers(1, g.n + 1))
    return sorted(int(v) for v in rng.choice(g.n, size=size, replace=False))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


# Acceptance criterion outcomes, flushed after the run so the one-line
# verdicts stay visible even though pytest captures test stdout.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
