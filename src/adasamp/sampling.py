"""Sampling distributions for randomized descent directions.

Provides the static curvature-proportional distribution, the full-information
gradient-based distribution, and the worst-case-optimal distribution computed
from interval bounds on gradient magnitudes.  The latter solves

    min over probability vectors p  of  max over c in [lower, upper]
        sum_i L_i c_i^2 / p_i  /  ||c||_2^2

whose optimum is characterized by a three-branch fixed point: each
coordinate of the worst-case certificate sits at its upper bound, at its
lower bound, or at ``sqrt(L_i) * m`` for a common scalar m.  When no bound
is active, an O(n) check returns the static distribution at once; otherwise
the solver sorts the breakpoints of a monotone piecewise-linear function of
m once and finds its root with prefix sums, so one call costs O(n log n).
When every interval has zero width the bounds are the gradient itself, and
the solve returns the full-information distribution p ~ sqrt(L) |g| in O(n)
without the sort, through the same formula as ``optimal_sampling``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class StationaryPointError(RuntimeError):
    """Every direction has provably zero gradient; nothing left to sample."""


class LipschitzProfile:
    """Per-direction smoothness constants with cached derived quantities."""

    __slots__ = ("values", "sqrt_values", "trace", "min_value", "static_probabilities")

    def __init__(self, values):
        v = np.ascontiguousarray(values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("smoothness constants must form a nonempty 1-d vector")
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValueError("smoothness constants must be strictly positive and finite")
        self.values = v
        self.sqrt_values = np.sqrt(v)
        self.trace = float(np.sum(v))
        self.min_value = float(np.min(v))
        # The curvature-proportional distribution, one read-only array for
        # the life of the profile: a solver recognises it by identity and
        # draws from it through a cumulative sum built once.
        self.static_probabilities = v / self.trace
        self.static_probabilities.flags.writeable = False

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"LipschitzProfile(n={len(self)}, trace={self.trace:.6g})"


@dataclass
class GradientBox:
    """Safe interval bounds on per-direction gradient magnitudes.

    Upper bounds may be +inf (nothing known yet).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("bound vectors must be 1-d and of equal length")
        if self.lower.size == 0:
            raise ValueError("empty gradient box")
        # Accept a valid box in a few reductions (NaN fails every
        # comparison); the checks below only name what is wrong.
        lower, upper = self.lower, self.upper
        if lower.min() >= 0.0 and lower.max() < np.inf and (lower <= upper).all():
            return
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds must not contain NaN")
        if np.any(self.lower < 0.0) or not np.all(np.isfinite(self.lower)):
            raise ValueError("lower bounds must be finite and nonnegative")
        if np.any(self.lower > self.upper):
            raise ValueError("need lower <= upper for every coordinate")

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def exact_mask(self) -> np.ndarray:
        """Directions whose magnitude is known exactly (zero-width interval)."""
        return self.lower == self.upper


@dataclass
class SafeSamplingSolution:
    """Worst-case certificate, sampling probabilities and minimax value."""

    certificate: np.ndarray
    probabilities: np.ndarray
    value: float
    stepsize: float


def check_probability_vector(p: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be nonempty and 1-d")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(np.sum(p)) - 1.0) > tol:
        raise ValueError(f"probabilities sum to {float(np.sum(p))!r}, not 1")
    return p


def effective_value(p: np.ndarray, c: np.ndarray, profile: LipschitzProfile) -> float:
    """Variance proxy sum_i L_i c_i^2 / p_i with the convention 0/0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if p.shape != c.shape or p.size != len(profile):
        raise ValueError("dimension mismatch between p, c and the smoothness profile")
    zero = p == 0.0
    if np.any(zero & (c != 0.0)):
        raise ValueError("zero probability on a coordinate with nonzero mass")
    if np.any(zero):
        keep = ~zero
        return float(np.sum(profile.values[keep] * c[keep] * c[keep] / p[keep]))
    return float(np.sum(profile.values * c * c / p))


def fixed_li_sampling(profile: LipschitzProfile) -> tuple[np.ndarray, float]:
    """Static curvature-proportional distribution and its best stepsize."""
    return profile.static_probabilities, 1.0 / profile.trace


def optimal_sampling(
    gradient_magnitudes: np.ndarray, profile: LipschitzProfile
) -> tuple[np.ndarray, float]:
    """Full-information distribution p_i ~ sqrt(L_i) |g_i| and its stepsize.

    Raises StationaryPointError when every magnitude is zero.
    """
    g = np.asarray(gradient_magnitudes, dtype=np.float64)
    if g.shape != (len(profile),):
        raise ValueError("gradient vector length mismatch")
    if np.any(g < 0.0):
        raise ValueError("gradient magnitudes must be nonnegative")
    return _full_information(g, profile)


def masked_static(profile: LipschitzProfile, positive: np.ndarray) -> tuple[np.ndarray, float]:
    """The static distribution over the ``positive`` directions, 0 on the
    rest, and its trace: what the uninformative exit returns when some
    upper bound is 0.  Summing the compacted values keeps the trace's
    rounding that of the positive directions alone."""
    trace = float(np.sum(profile.values[positive]))
    return np.where(positive, profile.values, 0.0) / trace, trace


def _full_information(g: np.ndarray, profile: LipschitzProfile) -> tuple[np.ndarray, float]:
    """p ~ sqrt(L) g and alpha = ||g||^2 / (sum sqrt(L) g)^2 for known
    magnitudes ``g``; the minimax value of the exact box is 1 / alpha."""
    weights = profile.sqrt_values * g
    total = float(np.sum(weights))
    if total <= 0.0:
        raise StationaryPointError("all gradient magnitudes are zero")
    # Scale by the power of two that brings the total into [1/2, 1): exact
    # in binary, so alpha is unchanged, and its squares cannot overflow.
    scale = _unit_scale(total)
    g = g * scale
    unit_total = total * scale
    alpha = float(np.dot(g, g)) / (unit_total * unit_total)
    return weights / total, alpha


def _unit_scale(value: float) -> float:
    """The power of two that maps a positive finite ``value`` into [1/2, 1)."""
    return math.ldexp(1.0, -math.frexp(value)[1])


def _solve_box(lower, upper, profile):
    """Fixed point of the three-branch characterization for one box.

    Returns (certificate, probabilities, value).  With t = bound / sqrt(L),
    the pivot m is the root of the nonincreasing piecewise-linear function

        F(m) = sum_i sqrt(L_i) l_i (t^l_i - m)_+ - sqrt(L_i) u_i (m - t^u_i)_+,

    which vanishes on [max t^l, min t^u] when that interval is nonempty.
    A direction whose upper bound is 0 has provably zero gradient: it gets
    c = p = 0, and min t^u is taken over the positive upper bounds only.
    Zeros are found from min t^u itself, so a box without one pays nothing
    extra.  Raises StationaryPointError when every upper bound is 0.
    """
    sqrt_l = profile.sqrt_values
    t_lower = lower / sqrt_l
    t_upper = upper / sqrt_l
    t_low_max = float(np.max(t_lower))
    t_up_min = float(np.min(t_upper))
    positive = None
    if t_up_min == 0.0:
        positive = upper > 0.0
        if not positive.any():
            raise StationaryPointError("all upper bounds are zero")
        t_up_min = float(np.min(t_upper[positive]))

    if t_low_max <= t_up_min:
        # No bound is active: the certificate scale is free and every
        # feasible m yields the static curvature-proportional distribution.
        # Pick the smallest transformed upper bound, falling back to the
        # largest transformed lower bound (or 1 when the box is fully
        # uninformative) so the certificate stays inside the box.
        if np.isfinite(t_up_min):
            m = t_up_min
        elif t_low_max > 0.0:
            m = t_low_max
        else:
            m = 1.0
        # Clamp away sub-ulp excursions of sqrt(L) * (u / sqrt(L)).
        c = np.clip(sqrt_l * m, lower, upper)
        if positive is None:
            return c, profile.static_probabilities, profile.trace
        return (c, *masked_static(profile, positive))

    if np.array_equal(lower, upper):
        # Every gradient is known exactly: the full-information answer,
        # p ~ sqrt(L) |g|, with no breakpoints to sort.  (An exact box with
        # all t equal took the exit above, whose answer is the same.)
        p, alpha = _full_information(lower, profile)
        return lower, p, 1.0 / alpha

    # Below, bounds are scaled by the power of two that brings max t^l into
    # [1/2, 1).  That is exact in binary, so every output is unchanged, and
    # no square or sum of a finite box can overflow.
    scale = _unit_scale(t_low_max)

    # The root lies in (t_up_min, t_low_max); only breakpoints inside that
    # interval can be active there, which also leaves out infinite uppers.
    capped = t_upper < t_low_max
    pinned = t_lower > t_up_min
    points = np.concatenate((t_upper[capped], t_lower[pinned])) * scale
    bounds = np.concatenate((upper[capped], lower[pinned])) * scale
    sqrt_bounds = np.concatenate((sqrt_l[capped], sqrt_l[pinned]))
    # Ties may come in any order: F is continuous, so tied breakpoints only
    # bound a zero-width gap, and m is clamped into its gap below.
    order = np.argsort(points)
    points = points[order]
    bounds = bounds[order]
    is_upper = order < int(np.count_nonzero(capped))
    squares = bounds * bounds
    weights = sqrt_bounds[order] * bounds
    upper_squares = squares * is_upper
    upper_weights = weights * is_upper
    # On the gap (points[k-1], points[k]) the uppers before k are capped and
    # the lowers from k on are pinned, so F(m) = a[k] - m * b[k] there.
    a = np.cumsum((squares - upper_squares)[::-1])[::-1]
    b = np.cumsum((weights - upper_weights)[::-1])[::-1]
    a[1:] += np.cumsum(upper_squares[:-1])
    b[1:] += np.cumsum(upper_weights[:-1])
    sign_change = a - points * b <= 0.0
    # The last breakpoint is max t^l, where F < 0 in exact arithmetic.
    sign_change[-1] = True
    k = int(np.argmax(sign_change))
    m = a[k] / b[k]
    gap_low = points[k - 1] if k > 0 else -np.inf
    gap_high = points[k]
    # Both sums carry a relative rounding error of order size * eps.
    slack = 8.0 * points.size * np.finfo(np.float64).eps * m
    assert gap_low - slack <= m <= gap_high + slack, "pivot left the gap where F changes sign"
    m = min(max(m, gap_low), gap_high)

    c = np.clip(sqrt_l * m, lower * scale, upper * scale)
    weighted = sqrt_l * c
    total = float(np.sum(weighted))
    value = total * total / float(np.dot(c, c))
    c /= scale
    return c, weighted / total, value


def compute_safe_sampling(box: GradientBox, profile: LipschitzProfile) -> SafeSamplingSolution:
    """Best sampling distribution consistent with the gradient box.

    Coordinates whose upper bound is exactly zero have provably zero
    gradient and receive probability zero.  When no bound is active the
    answer is the profile's own static array, which a solver draws from
    through a cumulative sum built once.  Raises StationaryPointError when
    every upper bound is zero.
    """
    if box.n != len(profile):
        raise ValueError("box and smoothness profile disagree on dimension")
    c, p, v = _solve_box(box.lower, box.upper, profile)
    return SafeSamplingSolution(certificate=c, probabilities=p, value=v, stepsize=1.0 / v)


def draw_index(
    p: np.ndarray, rng: np.random.Generator, cum: np.ndarray | None = None
) -> int:
    """Inverse-CDF draw from p with one uniform from ``rng``.

    ``cum`` is ``np.cumsum(p)`` when the caller already holds it, as a
    solver does for a distribution that stays fixed for the whole run; the
    draw is then a binary search, O(log n).  Without it the cumulative sum
    is built here, in O(n).  Either way the rule is the same (u =
    ``rng.random() * cum[-1]``, the first index whose cumulative sum
    exceeds u, clamped to the last index), so both give the same index.
    """
    if cum is None:
        cum = np.cumsum(p)
    u = rng.random() * cum[-1]
    i = int(np.searchsorted(cum, u, side="right"))
    return min(i, p.size - 1)
