"""Independent oracles for the benchmark's correctness checks.

Nothing here calls msetdim's distance, signature or search code: distances
come from scipy's csgraph on an adjacency built straight from the graph's
public edge array, histograms and uniqueness from plain numpy, and sampled
vertex sets from the documented seed derivation (a PCG64 stream keyed by
master seed and purpose tag).  The checks run outside the timed region.
"""

from __future__ import annotations

import numpy as np

# Purpose tags of the documented seed derivation (see msetdim.seeding).
CANDIDATE_TAG = 3


def adjacency(edge_array: np.ndarray, n: int):
    """Symmetric CSR adjacency built from an (m, 2) edge array."""
    from scipy.sparse import coo_matrix

    u = edge_array[:, 0]
    v = edge_array[:, 1]
    data = np.ones(2 * len(u), dtype=np.float64)
    return coo_matrix(
        (data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
    ).tocsr()


def rows_from(adj, sources) -> np.ndarray:
    """(len(sources), n) hop distances, -1 where unreachable."""
    from scipy.sparse.csgraph import shortest_path

    dist = shortest_path(adj, method="D", directed=False, unweighted=True,
                         indices=np.asarray(list(sources), dtype=np.int64))
    dist = np.atleast_2d(dist)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))


def candidate_members(n: int, target: float, seed: int, round_index: int) -> np.ndarray:
    """The Bernoulli(target/n) draw of construction round `round_index`."""
    rng = stream(seed, CANDIDATE_TAG, round_index)
    return np.flatnonzero(rng.random(n) < min(target / n, 1.0))


def histograms(rows: np.ndarray) -> np.ndarray:
    """Per-vertex multiset signature: counts of each distance, unreachable last."""
    top = int(rows.max(initial=0))
    vals = np.where(rows < 0, top + 1, rows)
    out = np.zeros((rows.shape[1], top + 2), dtype=np.int64)
    for row in vals:
        out[np.arange(rows.shape[1]), row] += 1
    return out


def resolves(keys: np.ndarray, skip=()) -> bool:
    """True when the rows of `keys` outside `skip` are pairwise distinct."""
    keep = np.setdiff1d(np.arange(keys.shape[0]), np.asarray(list(skip), dtype=np.int64))
    sub = keys[keep]
    return np.unique(sub, axis=0).shape[0] == sub.shape[0]


def same_histogram(a: np.ndarray, b: np.ndarray) -> bool:
    """Do two distance vectors to a sensor set give the same multiset?"""
    return sorted(a.tolist()) == sorted(b.tolist())
