"""Piecewise-linear exponent calculus for sphere-growth thresholds.

For a degree exponent x (average degree scales like n**x) and a set-size
exponent y (candidate sensor sets of size about n**y), the quantity

    exponent_sum(x, y) = sum_{i=0}^{floor(1/x)} max(i*x + y - 1, 0)

adds up, level by level, the exponent of the expected number of sensors
falling in a radius-i sphere.  Its level sets govern when random sensor sets
succeed (level 4) and when counting forces collisions (level 1).  Everything
here supports exact rational arithmetic: pass `fractions.Fraction` inputs and
every result is an exact Fraction; floats take a fast approximate path with a
guard that snaps near-reciprocal values onto 1/k.

Also houses the regime parameters that describe sphere growth in a random
graph of given size and density exponent, and an exact binomial pmf-maximum
routine used both by the construction analysis and as a standalone bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

Scalar = Union[int, float, Fraction]

# Floats within this distance of some 1/k are treated as exactly 1/k.  The
# level curves are discontinuous precisely at reciprocals of integers, so
# silent float drift there would land on the wrong branch.
RECIPROCAL_GUARD = 1e-12

LOWER_BOUND_LEVEL = 1
UPPER_BOUND_LEVEL = 4
LOWER_BOUND_MAX_X = Fraction(1, 2)
UPPER_BOUND_MAX_X = Fraction(1, 8)

# threshold_curves samples 1/k + JUMP_OFFSET beside each reciprocal 1/k.
JUMP_OFFSET = 1e-6


class NoRootError(ValueError):
    """The requested level is not attained on (0, 1]."""


class ThresholdUndefinedError(NoRootError):
    """The threshold exponent is undefined for this x."""


def _is_exact(v: Scalar) -> bool:
    return isinstance(v, (Fraction, int)) and not isinstance(v, bool)


def reciprocal_order(x: Scalar) -> int | None:
    """k if x equals 1/k for an integer k >= 1 (floats within the guard), else None."""
    if isinstance(x, Fraction):
        return x.denominator if x.numerator == 1 else None
    if isinstance(x, int):
        return 1 if x == 1 else None
    xf = float(x)
    if xf <= 0.0:
        return None
    k = round(1.0 / xf)
    if k >= 1 and abs(xf - 1.0 / k) < RECIPROCAL_GUARD:
        return k
    return None


def floor_inverse(x: Scalar) -> int:
    """floor(1/x) with the reciprocal snap applied to float inputs."""
    k = reciprocal_order(x)
    if k is not None:
        return k
    if isinstance(x, Fraction):
        return math.floor(1 / x)
    return math.floor(1.0 / float(x))


def _check_domain(x: Scalar, y: Scalar) -> None:
    if not 0 < x <= 1:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    if not 0 <= y <= 1:
        raise ValueError(f"y must lie in [0, 1], got {y}")


def exponent_sum(x: Scalar, y: Scalar) -> Scalar:
    """Sum over levels i = 0..floor(1/x) of max(i*x + y - 1, 0).

    Exact when both inputs are Fraction/int; float otherwise.  Piecewise
    linear in y: identically zero up to activation_point(x), then strictly
    increasing with slope at least one.
    """
    _check_domain(x, y)
    k = floor_inverse(x)
    if _is_exact(x) and _is_exact(y):
        xe, ye = Fraction(x), Fraction(y)
        return sum((t for i in range(k + 1) if (t := i * xe + ye - 1) > 0), Fraction(0))
    xf, yf = float(x), float(y)
    return float(sum(t for i in range(k + 1) if (t := i * xf + yf - 1.0) > 0.0))


def activation_point(x: Scalar) -> Scalar:
    """The y value 1 - floor(1/x)*x below which exponent_sum(x, .) vanishes."""
    if not 0 < x <= 1:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    k = floor_inverse(x)
    if _is_exact(x):
        return 1 - k * Fraction(x)
    return max(1.0 - k * float(x), 0.0)


def exponent_sum_at_one(x: Scalar) -> Scalar:
    """exponent_sum(x, 1) in closed form: x * k*(k+1)/2 with k = floor(1/x)."""
    if not 0 < x <= 1:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    k = floor_inverse(x)
    if _is_exact(x):
        return Fraction(x) * k * (k + 1) / 2
    return float(x) * k * (k + 1) / 2.0


def bisect_exponent_level(x: Scalar, level: Scalar, tol: float = 1e-12) -> float:
    """Bisection root of exponent_sum(x, y) = level on the increasing branch.

    Pure float bisection, kept independent of the closed-form segment solve so
    the two can cross-check each other.
    """
    xf = float(x)
    lvl = float(level)
    k = floor_inverse(x)
    if float(exponent_sum_at_one(x)) <= lvl:
        raise NoRootError(f"exponent_sum({x}, 1) <= {level}: no root in (0, 1)")
    lo = max(1.0 - k * xf, 0.0)
    hi = 1.0
    # Slope on the active branch is at most k+1, so a root bracket of width w
    # pins the function value within (k+1)*w.
    width_goal = tol / (k + 1)
    while hi - lo > width_goal:
        mid = 0.5 * (lo + hi)
        if float(exponent_sum(xf, mid)) < lvl:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_exponent_level(x: Scalar, level: Scalar, tol: float = 1e-12) -> Scalar:
    """Root y of exponent_sum(x, y) = level, by closed-form segment solve.

    Walks the piecewise-linear segments of y -> exponent_sum(x, y) and inverts
    the one that crosses `level`.  Exact Fraction when x (and level) are
    exact; the result is verified to satisfy |exponent_sum(x, y) - level| <=
    tol before being returned.

    Raises NoRootError when exponent_sum(x, 1) <= level.
    """
    exact = _is_exact(x) and _is_exact(level)
    k = floor_inverse(x)
    xe: Scalar = Fraction(x) if exact else float(x)
    lvl: Scalar = Fraction(level) if exact else float(level)
    if exponent_sum_at_one(xe if exact else float(x)) <= lvl:
        raise NoRootError(f"exponent_sum({x}, 1) <= {level}: no root in (0, 1)")
    # On the segment with active terms i = m..k the function is
    #   f(y) = x * S_m + t*(y - 1),  S_m = sum(i for i in m..k),  t = k - m + 1,
    # and its value at the segment's right endpoint 1 - (m-1)*x is
    # x * t*(t+1)/2.  Scan segments from the smallest upward.
    root: Scalar | None = None
    for m in range(k, 0, -1):
        t = k - m + 1
        f_upper = xe * t * (t + 1) / 2
        if f_upper >= lvl:
            s_m = (k * (k + 1) - (m - 1) * m) // 2
            root = 1 + (lvl - xe * s_m) / t
            break
    if root is None:  # unreachable given the f(1) check above
        raise NoRootError(f"no segment attains level {level} for x={x}")
    residual = exponent_sum(xe, root) - lvl
    if abs(float(residual)) > tol:
        raise ArithmeticError(
            f"segment solve inconsistent at x={x}, level={level}: residual {residual}"
        )
    return root


def _threshold_exponent(x: Scalar, level: int, max_x: Fraction) -> Scalar:
    """Root of exponent_sum(x, y) = level, defined for 0 < x <= max_x."""
    limit = max_x + (0 if _is_exact(x) else RECIPROCAL_GUARD)
    if not 0 < x <= limit:
        raise ThresholdUndefinedError(f"threshold undefined: need 0 < x <= {max_x}, got x={x}")
    return solve_exponent_level(x, level)


def lower_bound_exponent(x: Scalar) -> Scalar:
    """Set-size exponent below which counting forces a signature collision.

    Defined for 0 < x <= 1/2 as the unique root of exponent_sum(x, y) = 1.
    """
    return _threshold_exponent(x, LOWER_BOUND_LEVEL, LOWER_BOUND_MAX_X)


def upper_bound_exponent(x: Scalar) -> Scalar:
    """Set-size exponent at which random sensor sets distinguish all pairs.

    Defined for 0 < x <= 1/8 as the unique root of exponent_sum(x, y) = 4.
    """
    return _threshold_exponent(x, UPPER_BOUND_LEVEL, UPPER_BOUND_MAX_X)


# ---------------------------------------------------------------------------
# Regime parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeParams:
    """Sphere-growth scalars for a random graph of size n, density exponent x.

    degree           expected average degree, n**x
    sparse_radius    last radius whose typical sphere size stays well below n
    coverage_rate    degree**(sparse_radius+1) / n, the rate constant in the
                     1 - exp(-rate * |sources|) coverage at the next radius
    spread_tolerance max(sqrt(ln n / degree), degree**sparse_radius / n), the
                     relative-error scale for sphere-size predictions
    """

    n: int
    x: float | Fraction
    degree: float
    sparse_radius: int
    coverage_rate: float
    spread_tolerance: float


def _sparse_radius_for(x: Scalar) -> int:
    k = reciprocal_order(x)
    if k is not None and k >= 2:
        return k - 1
    return floor_inverse(x)


def regime(n: int, x: Scalar) -> RegimeParams:
    """RegimeParams under the degree = n**x convention.

    sparse_radius is floor(1/x), except exactly at x = 1/k (k >= 2) where the
    radius-k sphere already reaches a constant fraction of the graph and the
    value drops to k - 1.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 0 < x < 1:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    radius = _sparse_radius_for(x)
    xf = float(x)
    degree = float(n) ** xf
    # Compute n-powers through the exponent so that exact cancellations
    # (e.g. x = 1/8, radius 7: rate exponent 8*(1/8) - 1 = 0) stay exact.
    if isinstance(x, Fraction):
        rate_exp = float((radius + 1) * x - 1)
        tail_exp = float(radius * x - 1)
    else:
        rate_exp = (radius + 1) * xf - 1.0
        tail_exp = radius * xf - 1.0
    coverage_rate = float(n) ** rate_exp
    tail = float(n) ** tail_exp
    tolerance = max(math.sqrt(math.log(n) / degree), tail)
    return RegimeParams(
        n=int(n),
        x=x if isinstance(x, Fraction) else xf,
        degree=degree,
        sparse_radius=radius,
        coverage_rate=coverage_rate,
        spread_tolerance=tolerance,
    )


def regime_from_degree(n: int, degree: float) -> RegimeParams:
    """RegimeParams for a measured average degree: x inferred as log_n(degree)."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 1.0 < degree < n:
        raise ValueError(f"degree must lie in (1, n), got {degree}")
    return regime(n, math.log(degree) / math.log(n))


# ---------------------------------------------------------------------------
# Threshold curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdCurve:
    """Sampled points (x, y) with exponent_sum(x, y) = level."""

    level: int
    points: tuple[tuple[Scalar, Scalar], ...]


def curve_domain_max(level: int) -> Fraction:
    """Largest x for which exponent_sum(x, .) attains an integer level: 1/(2*level)."""
    if not isinstance(level, int) or level < 1:
        raise ValueError(f"level must be a positive integer, got {level}")
    return Fraction(1, 2 * level)


def threshold_curves(
    levels: tuple[int, ...] = (LOWER_BOUND_LEVEL, UPPER_BOUND_LEVEL),
    points: int = 1000,
    x_min: Scalar | None = None,
    tol: float = 1e-12,
    rational: bool = False,
) -> list[ThresholdCurve]:
    """Sample each level set on (0, x_max(level)], ready for CSV emission.

    The grid contains, for every integer k with 1/k interior to the domain
    and resolvable at the grid's spacing (1/k - 1/(k+1) at least one step),
    both 1/k and 1/k + JUMP_OFFSET, so the zig-zag discontinuities at
    reciprocals of integers show up as one-sided evaluation gaps.
    """
    if points < 2:
        raise ValueError("need at least 2 grid points")
    curves = []
    off: Scalar = Fraction(JUMP_OFFSET) if rational else JUMP_OFFSET
    for level in levels:
        x_max = curve_domain_max(level)
        if rational:
            hi: Scalar = x_max
            lo: Scalar = Fraction(x_min) if x_min is not None else hi / points
            grid = [lo + (hi - lo) * j / (points - 1) for j in range(points)]
        else:
            hi = float(x_max)
            lo = float(x_min) if x_min is not None else hi / points
            grid = [float(v) for v in np.linspace(lo, hi, points)]
        if not 0 < lo < hi:
            raise ValueError(f"x_min must lie in (0, {hi}) for level {level}")
        step = (float(hi) - float(lo)) / (points - 1)
        k = math.ceil(1 / hi) + 1
        while k * (k + 1) <= 1.0 / step:
            rec = Fraction(1, k) if rational else 1.0 / k
            if rec <= lo:
                break
            grid.append(rec)
            if rec + off < hi:
                grid.append(rec + off)
            k += 1
        xs = sorted(set(grid))
        pts = tuple((x, solve_exponent_level(x, level, tol)) for x in xs)
        curves.append(ThresholdCurve(level=level, points=pts))
    return curves


# ---------------------------------------------------------------------------
# Binomial pmf maximum
# ---------------------------------------------------------------------------


def binom_pmf(trials: int, p: float) -> np.ndarray:
    """Exact-to-float pmf of Binomial(trials, p), length trials + 1.

    Evaluated by the ratio recurrence outward from the mode, which stays
    stable even when the endpoint masses underflow.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    n = int(trials)
    out = np.zeros(n + 1)
    if n == 0:
        out[0] = 1.0
        return out
    if p == 0.0:
        out[0] = 1.0
        return out
    if p == 1.0:
        out[n] = 1.0
        return out
    if p > 0.5:
        # Reflection Bin(n, p)[z] = Bin(n, 1-p)[n-z] is exact (1-p is exact
        # for p >= 0.5) and keeps the starting mass (1-p)**n well away from
        # underflow.
        return binom_pmf(n, 1.0 - p)[::-1].copy()
    # Single multiplicative chain from z = 0 in extended precision: the
    # accumulated rounding stays near n * eps(longdouble), far below double
    # precision, and no lgamma cancellation enters.
    ext = np.longdouble
    log_start = n * np.log1p(ext(-p))
    if log_start < -11000.0:  # below longdouble range; desk-scale n never hits this
        raise ValueError(f"pmf start underflows for trials={n}, p={p}")
    z = np.arange(0, n, dtype=ext)
    odds = ext(p) / (ext(1.0) - ext(p))
    ratios = (ext(n) - z) / (z + ext(1.0)) * odds
    chain = np.empty(n + 1, dtype=ext)
    chain[0] = np.exp(log_start)
    chain[1:] = chain[0] * np.cumprod(ratios)
    return chain.astype(np.float64)


def binom_pmf_max(trials: int, p: float) -> tuple[int, float]:
    """(argmax z, max probability) of the Binomial(trials, p) pmf.

    The argmax sits at the distribution's mode, within O(1) of the mean; on a
    two-way tie the smaller z is reported.

    The bound that holds is the variance form max <= 1/sqrt(trials*p*(1-p)):
    on the acceptance grid (trials <= 200, p = k/20, mean >= 1) max * sigma
    is at most 0.413, near its limit 1/sqrt(2*pi).  The mean form
    max <= 1/sqrt(trials*p) holds there for p <= 1/2 (worst 0.563), which
    covers the paper's regime p -> 0, but fails near p = 1: max * sqrt(np)
    tends to 1/sqrt(2*pi*(1-p)), above 1 once p > 1 - 1/(2*pi) ~ 0.841;
    Bin(2, 0.9) has max 0.81 > 1/sqrt(1.8) ~ 0.745.  The constant 1 in both
    forms is this package's choice; the paper's abstract does not fix one.
    """
    pmf = binom_pmf(trials, p)
    z = int(np.argmax(pmf))
    return z, float(pmf[z])
