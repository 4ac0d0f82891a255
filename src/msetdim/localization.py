"""Deterministic spread from a hidden source and its exact recovery.

A single source vertex starts infected at time 0 and every neighbor of an
infected vertex becomes infected one step later, so infection times equal
graph distances.  Sensors placed on a set R report the time they first turn
on; the per-time counts are exactly the source's multiset signature, so a
multiset resolving sensor set pins the source uniquely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, _level_counts, bfs_distances, diameter
from .signatures import _canonical_members


@dataclass(frozen=True)
class Observation:
    """counts[t] = number of sensors first activated at time t."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


def spread(g: Graph, v0: int) -> np.ndarray:
    """Infection time of every vertex for source v0: its BFS distance.

    Connected graphs only: the process must reach every vertex.
    """
    g._check_vertex(v0)
    times = bfs_distances(g, [v0])
    if np.any(times < 0):
        raise ValueError("spread requires a connected graph")
    return times


def observe(g: Graph, R: Sequence[int], v0: int, horizon: int | None = None) -> Observation:
    """Per-time sensor activation counts for source v0.

    The count vector covers times 0..horizon, where horizon defaults to
    diam(G); pass it explicitly to amortize the diameter computation across
    sweeps.
    """
    members = _canonical_members(g, R)
    times = spread(g, v0)
    if horizon is None:
        horizon = int(diameter(g))
    sensor_times = times[list(members)]
    counts = np.bincount(sensor_times, minlength=horizon + 1)
    if len(counts) > horizon + 1:
        raise ValueError(f"observation horizon {horizon} too short")
    return Observation(counts=tuple(int(c) for c in counts))


class LocalizationIndex:
    """Signature lookup for repeated identify queries against one (g, R).

    Builds every vertex's activation profile by counting the sensors at each
    BFS level, then answers candidate queries in O(1) dictionary time.
    """

    def __init__(self, g: Graph, R: Sequence[int]):
        horizon = diameter(g)
        if math.isinf(horizon):
            raise ValueError("localization requires a connected graph")
        self.graph = g
        self.members = _canonical_members(g, R)
        self.horizon = int(horizon)
        # connected, so the unreachable column is all zeros and dropped
        self._profiles = _level_counts(g, self.members, self.horizon + 1)[:, :-1]
        buckets: dict[bytes, list[int]] = {}
        for v in range(g.n):
            buckets.setdefault(self._profiles[v].tobytes(), []).append(v)
        self._buckets = buckets

    def observation(self, v0: int) -> Observation:
        self.graph._check_vertex(v0)
        return Observation(counts=tuple(int(c) for c in self._profiles[v0]))

    def candidates(self, obs: Observation) -> tuple[int, ...]:
        if obs.total != len(self.members):
            return ()
        key = np.asarray(obs.counts, dtype=self._profiles.dtype)
        if key.shape[0] != self.horizon + 1:
            return ()
        return tuple(self._buckets.get(key.tobytes(), ()))


def identify(
    g: Graph,
    R: Sequence[int],
    obs: Observation,
    index: LocalizationIndex | None = None,
) -> tuple[int, ...]:
    """All vertices whose activation profile matches the observation.

    A singleton means the source is pinned; an empty result flags an
    observation inconsistent with (g, R), e.g. counts not summing to |R|.
    """
    if index is None:
        index = LocalizationIndex(g, R)
    return index.candidates(obs)
