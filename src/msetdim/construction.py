"""Randomized sensor-set construction and the typicality census.

The constructor samples Bernoulli(r/n) vertex sets, verifies them as multiset
resolving, and doubles the target size after each failing round.  It reports
whatever it finds; exhausting the round budget is a failure report, never a
claim that no resolving set exists.

The census classifies vertices as atypical at radius i when atypically many
sensors sit within distance i, and multiplies out how few distinct signatures
remain available to the typical vertices; when that count drops below the
number of typical vertices a collision is forced by pigeonhole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exponents import UPPER_BOUND_MAX_X, upper_bound_exponent
from .graphs import Graph, _level_counts, distances_from, is_connected
from .seeding import CANDIDATE, CENSUS_SET, FAILURE_TRIAL, substream
from .signatures import KIND_MULTISET, ResolvingVerdict, _canonical_members, verify_resolving


@dataclass(frozen=True)
class CandidateSpec:
    """Parameters for the sample-verify-grow loop.

    r is the target expected set size (vertices are kept with probability
    r/n); growth multiplies r after each failed round.
    """

    r: float
    growth: float = 2.0
    max_rounds: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError(f"target size must be positive, got {self.r}")
        if self.growth <= 1:
            raise ValueError(f"growth must exceed 1, got {self.growth}")
        if self.max_rounds < 1:
            raise ValueError("need at least one round")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def default_target_size(n: int, x: float | None = None) -> float:
    """Warm-start target size: n**upper_bound_exponent(x) when that threshold
    exists, else sqrt(n) as a documented fallback."""
    if x is not None and 0 < x <= float(UPPER_BOUND_MAX_X):
        return float(n) ** float(upper_bound_exponent(x))
    return math.sqrt(n)


def _sample_members(g: Graph, r: float, seed: int, purpose: int, index: int) -> np.ndarray:
    prob = min(r / g.n, 1.0)
    rng = substream(seed, purpose, index)
    return np.flatnonzero(rng.random(g.n) < prob)


def _verified_draws(
    g: Graph, targets: Sequence[float], seed: int, purpose: int
) -> Iterator[tuple[np.ndarray, ResolvingVerdict | None]]:
    """(draw, multiset verdict) for the t-th target: a Bernoulli(target/n)
    draw from substream (seed, purpose, t), with verdict None when the draw
    is empty.  A draw equal to the last one verified reuses its verdict."""
    last, verdict = np.empty(0, dtype=np.int64), None
    for t, r in enumerate(targets):
        members = _sample_members(g, r, seed, purpose, t)
        if members.size and not np.array_equal(members, last):
            last, verdict = members, verify_resolving(g, members, KIND_MULTISET)
        yield members, verdict if members.size else None


def sample_candidate(g: Graph, spec: CandidateSpec) -> np.ndarray:
    """One Bernoulli(r/n) draw of vertices; may be empty for tiny r.

    Deterministic in (g, spec): the draw is round 0 of the construction loop.
    """
    if spec.r > g.n:
        raise ValueError(f"target size {spec.r} exceeds n={g.n}")
    return _sample_members(g, spec.r, spec.seed, CANDIDATE, 0)


@dataclass(frozen=True)
class RoundRecord:
    round: int
    target: float
    sample_size: int
    resolving: bool
    witness: tuple[int, int] | None

    def to_json_dict(self) -> dict:
        out = {
            "round": self.round,
            "r": self.target,
            "sample_size": self.sample_size,
            "verdict": "resolving" if self.resolving else "collision",
        }
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass(frozen=True)
class ConstructionResult:
    success: bool
    resolving_set: tuple[int, ...] | None
    rounds: tuple[RoundRecord, ...]

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)

    @property
    def last_witness(self) -> tuple[int, int] | None:
        for rec in reversed(self.rounds):
            if rec.witness is not None:
                return rec.witness
        return None

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "resolving_set": list(self.resolving_set) if self.resolving_set else None,
            "rounds": [rec.to_json_dict() for rec in self.rounds],
        }


def construct_resolving(g: Graph, spec: CandidateSpec) -> ConstructionResult:
    """Sample, verify, grow until a multiset resolving set is found.

    Rounds count each vertex's sensors per BFS level and hold O(n * diam)
    counts, never a distance row; the first round sweeps the graph's level
    table and every round reads it, unless it would not fit (see
    graphs._frontier_blocks).
    A round that redraws the last verified set (every round once r reaches
    n) reuses its verdict.  A set the loop accepts is re-verified from its
    distance rows, a separate path, before being reported.  Failure after
    max_rounds carries the last collision witness.
    """
    if not is_connected(g):
        raise ValueError("construction requires a connected graph")
    grown = [float(spec.r)]
    for _ in range(spec.max_rounds - 1):
        grown.append(grown[-1] * spec.growth)
    targets = [min(r, float(g.n)) for r in grown]
    records: list[RoundRecord] = []
    for t, (members, verdict) in enumerate(_verified_draws(g, targets, spec.seed, CANDIDATE)):
        resolving = verdict is not None and verdict.resolving
        witness = verdict.witness if verdict else None
        records.append(RoundRecord(round=t, target=targets[t], sample_size=int(members.size),
                                   resolving=resolving, witness=witness))
        if resolving:
            confirm = verify_resolving(g, members, KIND_MULTISET, rows=distances_from(g, members))
            if not confirm.resolving:
                raise RuntimeError(
                    "re-verification rejected a set the round verifier accepted"
                )
            return ConstructionResult(
                success=True,
                resolving_set=tuple(int(v) for v in members),
                rounds=tuple(records),
            )
    return ConstructionResult(success=False, resolving_set=None, rounds=tuple(records))


@dataclass(frozen=True)
class FailureRateResult:
    """Monte Carlo estimate of how often Bernoulli(r/n) sets fail to resolve."""

    trials: int
    failures: int

    @property
    def rate(self) -> float:
        return self.failures / self.trials


def estimate_failure_rate(g: Graph, r: float, trials: int, seed: int) -> FailureRateResult:
    """Fraction of seeded trials whose sampled set leaves some pair unresolved.

    An empty sample counts as a failure (it distinguishes nothing).  Trials
    use per-index substreams, so the estimate is independent of execution
    order or worker count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if r < 0:
        raise ValueError("target size must be non-negative")
    draws = _verified_draws(g, [r] * trials, seed, FAILURE_TRIAL)
    failures = sum(verdict is None or not verdict.resolving for _, verdict in draws)
    return FailureRateResult(trials=trials, failures=failures)


# ---------------------------------------------------------------------------
# Typicality census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusLevel:
    """Per-radius census row.

    pairs_by_atypical and pairs_by_sensor count the same incidence set (an
    atypical vertex within distance `level` of a sensor) from its two sides
    and must agree exactly; sensor_ball_total is the crude upper bound given
    by summing sensor ball sizes.
    """

    level: int
    atypical_count: int
    allowed_coordinates: int
    pairs_by_atypical: int
    pairs_by_sensor: int
    sensor_ball_total: int


@dataclass(frozen=True)
class TypicalityReport:
    top_level: int
    set_size: int
    levels: tuple[CensusLevel, ...]
    typical_count: int
    signature_space_bound: int
    collision_forced: bool


def draw_census_set(g: Graph, size: int, seed: int) -> tuple[int, ...]:
    """Seeded uniform sensor set of the given size (no replacement)."""
    if not 1 <= size <= g.n:
        raise ValueError(f"set size must lie in [1, {g.n}], got {size}")
    rng = substream(seed, CENSUS_SET)
    return tuple(sorted(int(v) for v in rng.choice(g.n, size=size, replace=False)))


def typicality_census(g: Graph, R: Sequence[int], k: int) -> TypicalityReport:
    """Classify vertices as typical/atypical at each radius i <= k.

    A vertex is atypical at radius i when its sensor count within distance i
    reaches max(2*(k+1) * |ball_i(v)| * |R| / n, 1); the threshold is the
    exact real value, compared with >= as stated.  Allowed coordinate counts
    use the ceiling of the same quantity, maximized over typical vertices,
    and their product bounds the signatures available to typical vertices.
    """
    members = list(_canonical_members(g, R))
    n = g.n
    r_size = len(members)

    # Prefix sums of the level counts from V (from R) are the ball sizes (the
    # sensors within distance i), which stay at |R| past R's deepest level;
    # both read the level table that the count from V sweeps, if it fits.
    # Sensor rows serve only pairs_by_sensor, the incidence count's other side.
    counts = _level_counts(g, range(n))
    if counts[:, -1].any():
        raise ValueError("census requires a connected graph")
    diam = counts.shape[1] - 2
    if k > diam:
        raise ValueError(f"k={k} exceeds diameter {diam}")
    ball = np.cumsum(counts[:, : k + 1], axis=1).T
    ball_r = np.cumsum(_level_counts(g, members, k + 1)[:, : k + 1], axis=1).T
    sensor_rows = distances_from(g, members)

    factor = 2.0 * (k + 1) * r_size / n
    atypical = np.zeros((k + 1, n), dtype=bool)
    for i in range(k + 1):
        threshold = np.maximum(factor * ball[i], 1.0)
        atypical[i] = ball_r[i] >= threshold
    typical_mask = ~atypical.any(axis=0)
    typical_count = int(typical_mask.sum())

    levels = []
    bound = 1
    for i in range(k + 1):
        atype_idx = np.flatnonzero(atypical[i])
        if typical_mask.any():
            allowed_vals = np.maximum(
                np.ceil(factor * ball[i][typical_mask]), 1.0
            ).astype(np.int64)
            allowed = int(allowed_vals.max())
        else:
            allowed = 1
        pairs_by_atypical = int(ball_r[i][atype_idx].sum())
        pairs_by_sensor = int((sensor_rows[:, atype_idx] <= i).sum()) if atype_idx.size else 0
        sensor_ball_total = int(ball[i][members].sum())
        bound *= allowed
        levels.append(
            CensusLevel(
                level=i,
                atypical_count=int(atype_idx.size),
                allowed_coordinates=allowed,
                pairs_by_atypical=pairs_by_atypical,
                pairs_by_sensor=pairs_by_sensor,
                sensor_ball_total=sensor_ball_total,
            )
        )
    return TypicalityReport(
        top_level=k,
        set_size=r_size,
        levels=tuple(levels),
        typical_count=typical_count,
        signature_space_bound=bound,
        collision_forced=bound < typical_count,
    )
