"""Distance signatures and resolving-set verification.

A sensor set R assigns every vertex v two fingerprints: the metric signature
(the vector of distances to R's members, in a fixed order) and the multiset
signature (how many members sit at each distance, order forgotten).  A set is
resolving when the chosen fingerprint separates all relevant vertex pairs.

Disconnected graphs are supported by an extra "unreachable" coordinate on
multiset signatures and an infinite entry on metric ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import (
    Graph,
    _count_matrix,
    _deepest_level,
    _level_counts,
    bfs_distances,
    distances_from,
)

KIND_METRIC = "metric"
KIND_MULTISET = "multiset"
KIND_OUTER = "outer-multiset"
KINDS = (KIND_METRIC, KIND_MULTISET, KIND_OUTER)


@dataclass(frozen=True)
class MultisetSignature:
    """Count of sensors at each distance; entry k is |{r in R : d(v,r) = k}|.

    `unreachable` counts sensors in other components (zero when connected).
    Entries sum to |R| and entry 0 is 1 exactly when v itself is a sensor.
    """

    counts: tuple[int, ...]
    unreachable: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts) + self.unreachable


@dataclass(frozen=True)
class MetricSignature:
    """Distances from one vertex to the members of R, in `order`.

    Unreachable members appear as math.inf.
    """

    order: tuple[int, ...]
    dists: tuple[float, ...]


@dataclass(frozen=True)
class ResolvingVerdict:
    """Outcome of a resolving-set check.

    `witness` is a colliding pair (u, v) when not resolving, with the shared
    signature attached; resolving verdicts carry neither.
    """

    kind: str
    resolving: bool
    witness: tuple[int, int] | None = None
    witness_signature: tuple | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "resolving": self.resolving,
            "witness": list(self.witness) if self.witness else None,
        }


def _canonical_members(g: Graph, R: Sequence[int]) -> tuple[int, ...]:
    members = [int(r) for r in R]
    if not members:
        raise ValueError("sensor set must be non-empty")
    for r in members:
        g._check_vertex(r)
    if len(set(members)) != len(members):
        raise ValueError("sensor set contains duplicates")
    return tuple(members)


def _signature_length(g: Graph) -> int:
    """Length of the finite part of multiset signatures: the largest finite
    distance + 1, which is diam(G) + 1 on connected graphs.

    On disconnected graphs the unreachable coordinate is carried separately.
    """
    return _deepest_level(g) + 1


def multiset_signature(
    g: Graph, R: Sequence[int], v: int, length: int | None = None
) -> MultisetSignature:
    """Multiset signature of v with respect to R, from one BFS from v.

    The finite length defaults to diam(G) + 1; pass `length` to amortize
    repeated queries.
    """
    members = _canonical_members(g, R)
    g._check_vertex(v)
    dists = bfs_distances(g, [v])[list(members)]
    if length is None:
        length = _signature_length(g)
    top = int(dists.max())
    if top >= length:
        raise ValueError(f"signature length {length} too short for distance {top}")
    *counts, unreachable = _count_matrix(dists[:, None], length)[0].tolist()
    return MultisetSignature(counts=tuple(counts), unreachable=unreachable)


def metric_signature(g: Graph, R: Sequence[int], v: int) -> MetricSignature:
    """Distance vector from v to R, indexed by R's given order."""
    members = _canonical_members(g, R)
    g._check_vertex(v)
    dists = bfs_distances(g, [v])[list(members)]
    return MetricSignature(
        order=members,
        dists=tuple(math.inf if d < 0 else float(d) for d in dists),
    )


def all_multiset_signatures(g: Graph, R: Sequence[int]) -> tuple[np.ndarray, int]:
    """Histogram matrix for every vertex: shape (n, length+1), length the
    largest finite distance + 1, last column counts unreachable sensors.
    Counted per BFS level, so no distance row is written.  Returns (matrix,
    length)."""
    members = _canonical_members(g, R)
    length = _signature_length(g)
    return _level_counts(g, members, length), length


def _first_collision(keys: np.ndarray, skip: Sequence[int]) -> tuple[int, int] | None:
    """The first pair u < v of vertices outside `skip` whose rows of the
    non-negative (n, c) `keys` are equal, in ascending order of v; None when
    all differ.  Each row is packed into exact int64 words, 63 bits at most,
    and one stable sort of the words puts equal rows in runs of ascending
    vertex.  The least vertex that does not start its run is v, and it
    comes second in its run, right after u."""
    keep = np.ones(keys.shape[0], dtype=bool)
    keep[list(skip)] = False
    vertices = np.flatnonzero(keep)
    bits = max(int(keys.max(initial=0)), 1).bit_length()
    per_word = 63 // bits
    weights = np.int64(1) << np.int64(bits) * (np.arange(keys.shape[1]) % per_word)
    words = [
        keys[vertices, lo : lo + per_word] @ weights[lo : lo + per_word]
        for lo in range(0, keys.shape[1], per_word)
    ]
    order = np.lexsort(words)
    packed = np.stack(words, axis=1)[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (packed[1:] != packed[:-1]).any(axis=1)
    if starts.all():
        return None
    at = int(np.argmin(np.where(starts, order.size, order)))
    return int(vertices[order[at - 1]]), int(vertices[order[at]])


def _recheck_pair(g: Graph, members: tuple[int, ...], kind: str, u: int, v: int) -> tuple:
    """Recompute the two witness signatures straight from fresh BFS runs.

    Guards the sorted scan: the collision must survive direct comparison.
    Returns the shared signature as a plain tuple.
    """
    member_list = list(members)
    row_u = bfs_distances(g, [u])[member_list]
    row_v = bfs_distances(g, [v])[member_list]
    if kind == KIND_METRIC:
        sig_u, sig_v = tuple(row_u.tolist()), tuple(row_v.tolist())
    else:
        top = max(int(row_u.max(initial=0)), int(row_v.max(initial=0)), 0)
        def hist(row: np.ndarray) -> tuple:
            fin = row[row >= 0]
            return tuple(np.bincount(fin, minlength=top + 1).tolist()) + (int((row < 0).sum()),)
        sig_u, sig_v = hist(row_u), hist(row_v)
    if sig_u != sig_v:
        raise RuntimeError(
            f"sorted scan reported a collision ({u}, {v}) that direct "
            f"comparison rejects; kind={kind}"
        )
    return sig_u


def verify_resolving(
    g: Graph,
    R: Sequence[int],
    kind: str = KIND_MULTISET,
    rows: np.ndarray | None = None,
) -> ResolvingVerdict:
    """Check whether R resolves the graph under the given notion.

    multiset compares count histograms over all vertex pairs, outer-multiset
    only over pairs outside R, metric compares ordered distance vectors.
    Signatures are packed into integer words and sorted once; any collision
    is re-checked by direct comparison before being reported.  The witness
    is the first collision in ascending vertex order.

    Without `rows`, the multiset kinds count sensors per BFS level from the
    kernel's frontier words and write no distance row: from the graph's
    level table, which the first such call sweeps, or streamed when the
    table would not fit (see graphs._frontier_blocks).  `rows`, when given,
    must be distances_from(g, R) aligned with R's order; histograms are then
    counted from it, a separate path to the same verdict.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    members = _canonical_members(g, R)
    if kind == KIND_METRIC:
        if rows is None:
            rows = distances_from(g, members)
        keys = rows.T + 1  # UNREACHABLE becomes 0
    elif rows is None:
        keys = _level_counts(g, members)
    else:
        keys = _count_matrix(rows, max(int(rows.max(initial=0)), 0) + 1)
    hit = _first_collision(keys, members if kind == KIND_OUTER else ())
    if hit is None:
        return ResolvingVerdict(kind=kind, resolving=True)
    u, v = hit
    shared = _recheck_pair(g, members, kind, u, v)
    return ResolvingVerdict(
        kind=kind, resolving=False, witness=(u, v), witness_signature=shared
    )


def naive_verify_resolving(g: Graph, R: Sequence[int], kind: str = KIND_MULTISET) -> ResolvingVerdict:
    """All-pairs reference verifier (quadratic; test oracle for the sorted scan).

    Computes each vertex's signature from its own BFS and compares every pair
    directly, scanning v ascending with inner u < v, so witnesses match the
    sorted scan on agreement.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    members = _canonical_members(g, R)
    member_list = list(members)
    sigs = []
    top = 0
    raw = []
    for v in range(g.n):
        row = bfs_distances(g, [v])[member_list]
        raw.append(row)
        top = max(top, int(row.max(initial=0)))
    for row in raw:
        if kind == KIND_METRIC:
            sigs.append(tuple(row.tolist()))
        else:
            fin = row[row >= 0]
            sigs.append(
                tuple(np.bincount(fin, minlength=top + 1).tolist())
                + (int((row < 0).sum()),)
            )
    skip = set(members) if kind == KIND_OUTER else set()
    for v in range(g.n):
        if v in skip:
            continue
        for u in range(v):
            if u in skip:
                continue
            if sigs[u] == sigs[v]:
                return ResolvingVerdict(
                    kind=kind, resolving=False, witness=(u, v), witness_signature=sigs[v]
                )
    return ResolvingVerdict(kind=kind, resolving=True)
