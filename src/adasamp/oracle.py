"""Brute-force reference computations used by the test suite.

Everything here trades speed for independence: the box minimax value is
found by enumerating branch patterns rather than by the sorted root search,
the expected one-step objective is an exact enumeration over outcomes (and
``expected_progress_check`` sets it against the quadratic model bound),
gradients are checked against central finite differences, and the
competitive-ratio diagnostic searches the box with corner enumeration and
multi-start L-BFGS-B.  The solver loop imports nothing from here.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.optimize

from . import glm
from .sampling import (
    GradientBox,
    LipschitzProfile,
    StationaryPointError,
    effective_value,
)

MAX_ENUMERATION_DIM = 8


def _minimax_objective(c: np.ndarray, sqrt_values: np.ndarray) -> float:
    """||sqrt(L) c||_1^2 / ||c||_2^2 for nonnegative c."""
    s = float(np.sum(sqrt_values * c))
    q = float(np.dot(c, c))
    return s * s / q


class DiagnosticUnavailableError(RuntimeError):
    """The competitive-ratio diagnostic cannot run on this input."""


def brute_force_minimax(
    box: GradientBox, profile: LipschitzProfile
) -> tuple[float, np.ndarray]:
    """Exhaustive solve of max over the box of ||sqrt(L) c||_1^2 / ||c||_2^2.

    Every coordinate is assigned to its lower bound, its upper bound, or an
    interior value ``sqrt(L_i) m``; the shared scalar m follows from
    self-consistency over the pinned coordinates, interior entries cancel.
    Candidates whose point falls outside the box are discarded, so every
    retained value is attainable and the maximum is the exact optimum.
    """
    if box.n != len(profile):
        raise ValueError("box and smoothness profile disagree on dimension")
    if box.n > MAX_ENUMERATION_DIM:
        raise ValueError(f"enumeration limited to n <= {MAX_ENUMERATION_DIM}")
    if not np.all(np.isfinite(box.upper)):
        raise ValueError("enumeration needs a bounded box")
    active = box.upper > 0.0
    if not np.any(active):
        raise StationaryPointError("all upper bounds are zero")

    lower = box.lower[active]
    upper = box.upper[active]
    l_values = profile.values[active]
    sqrt_l = profile.sqrt_values[active]
    k = lower.size
    t_lower = lower / sqrt_l
    t_upper = upper / sqrt_l

    # 0 = pinned at lower, 1 = pinned at upper, 2 = interior
    codes = np.array(list(itertools.product((0, 1, 2), repeat=k)), dtype=np.int8)
    pinned_val = np.where(codes == 0, lower, np.where(codes == 1, upper, 0.0))
    interior = codes == 2

    s_weighted = pinned_val @ sqrt_l
    s_squared = np.einsum("ij,ij->i", pinned_val, pinned_val)
    t_interior = interior @ l_values

    with np.errstate(invalid="ignore", divide="ignore"):
        m = s_squared / s_weighted
    m_lo = np.max(np.where(interior, t_lower, 0.0), axis=1, initial=0.0)
    m_hi = np.min(np.where(interior, t_upper, np.inf), axis=1, initial=np.inf)

    has_pin = s_weighted > 0.0
    # Pinned patterns: the interior value sqrt(L_i) m must stay in the box.
    ok_pin = has_pin & (m_lo <= m) & (m <= m_hi)
    # Nothing pinned (or pinned only at zero lower bounds): m is free inside
    # [m_lo, m_hi]; a strictly positive choice must exist.
    ok_free = ~has_pin & interior.any(axis=1) & (m_lo <= m_hi) & (m_hi > 0.0)

    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(s_squared > 0.0, s_weighted * s_weighted / s_squared, 0.0)
    values = ratio + t_interior

    feasible = ok_pin | ok_free
    if not np.any(feasible):
        raise RuntimeError("no feasible branch pattern; box invariants violated?")
    values = np.where(feasible, values, -np.inf)
    best = int(np.argmax(values))
    best_value = float(values[best])

    if has_pin[best]:
        m_best = float(m[best])
    elif np.isfinite(m_hi[best]):
        m_best = float(m_hi[best])
    else:
        m_best = float(max(m_lo[best], 1.0))
    c_active = np.where(interior[best], sqrt_l * m_best, pinned_val[best])

    certificate = np.zeros(box.n)
    certificate[active] = c_active
    return best_value, certificate


def grid_minimax_value(
    box: GradientBox, profile: LipschitzProfile, points_per_axis: int = 200
) -> float:
    """Dense-grid lower envelope of the box maximum (n <= 3 cross-check)."""
    if box.n > 3:
        raise ValueError("grid search limited to n <= 3")
    axes = [
        np.linspace(lo, hi, points_per_axis)
        for lo, hi in zip(box.lower, box.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    weighted = pts @ profile.sqrt_values
    norms = np.einsum("ij,ij->i", pts, pts)
    keep = norms > 0.0
    if not np.any(keep):
        raise ValueError("grid contains only the zero vector")
    return float(np.max(weighted[keep] ** 2 / norms[keep]))


def exhaustive_expected_value(
    problem: glm.GlmProblem, x: np.ndarray, p: np.ndarray, alpha: float
) -> float:
    """Exact E[f(next iterate)] over the n coordinate outcomes.

    Outcome i moves coordinate i by ``-(alpha / p_i) grad_i`` and is
    weighted by p_i; zero-probability outcomes contribute nothing.
    Smooth objectives only.
    """
    if problem.reg == "l1" and problem.lam > 0.0:
        raise ValueError("exact expectation requires a smooth objective")
    x = np.asarray(x, dtype=np.float64)
    state = glm.CdState(problem, x)
    grad = glm.full_gradient(problem, state)
    total = 0.0
    for i in range(problem.n_features):
        if p[i] == 0.0:
            continue
        step = x.copy()
        step[i] -= (alpha / p[i]) * grad[i]
        total += p[i] * glm.objective(problem, step, method="cd")
    return total


def expected_progress_check(
    problem: glm.GlmProblem,
    x: np.ndarray,
    p: np.ndarray,
    alpha: float | None = None,
) -> tuple[float, float]:
    """Exact expected next objective vs. the quadratic model bound.

    With ``alpha=None`` the stepsize minimizing the model is used, in which
    case the bound reduces to f(x) - alpha/2 ||grad||^2.  Smooth problems
    only; the expectation enumerates every coordinate outcome.
    """
    if problem.reg == "l1" and problem.lam > 0.0:
        raise ValueError("expected-progress check requires a smooth objective")
    profile = glm.coordinate_lipschitz(problem)
    state = glm.CdState(problem, x)
    grad = glm.full_gradient(problem, state)
    variance = effective_value(p, grad, profile)
    grad_sq = float(np.dot(grad, grad))
    if alpha is None:
        if variance == 0.0:
            raise ValueError("stationary point: optimal stepsize undefined")
        alpha = grad_sq / variance
    lhs = exhaustive_expected_value(problem, x, p, alpha)
    fval = glm.objective(problem, x, method="cd")
    rhs = fval - alpha * grad_sq + 0.5 * alpha * alpha * variance
    return lhs, rhs


def finite_difference_gradient(problem: glm.GlmProblem, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the loss term, step 1e-5 max(1, |x_i|)."""
    x = np.asarray(x, dtype=np.float64)

    def smooth(point):
        margins = problem.design.csr @ point
        return float(np.sum(problem.loss.value(margins, problem.labels)))

    grad = np.zeros_like(x)
    for i in range(x.size):
        h = 1e-5 * max(1.0, abs(x[i]))
        plus = x.copy()
        minus = x.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (smooth(plus) - smooth(minus)) / (2.0 * h)
    return grad


def competitive_ratio_bound(
    box: GradientBox,
    profile: LipschitzProfile,
    value: float,
    starts: int = 16,
    seed: int = 0,
) -> float:
    """Diagnostic upper estimate of the hindsight competitive ratio.

    Divides the minimax value by the smallest objective found through
    corner enumeration and multi-start local minimization over the box.
    Small dimensions only; infinite upper bounds are rejected.
    """
    if not np.all(np.isfinite(box.upper)):
        raise DiagnosticUnavailableError("unbounded box: ratio diagnostic needs finite bounds")
    lower, upper = box.lower, box.upper
    sqrt_l = profile.sqrt_values
    n = box.n

    candidates = [lower, upper, 0.5 * (lower + upper)]
    if n <= 12:
        grids = np.meshgrid(*[np.array([lo, hi]) for lo, hi in zip(lower, upper)], indexing="ij")
        corners = np.stack([g.ravel() for g in grids], axis=-1)
        candidates.extend(corners)
    rng = np.random.default_rng(seed)
    candidates.extend(lower + rng.random((starts, n)) * (upper - lower))

    def split_objective(c):
        s = float(np.sum(sqrt_l * c))
        q = float(np.dot(c, c))
        return s, q

    best = np.inf
    best_point = None
    for cand in candidates:
        cand = np.asarray(cand, dtype=np.float64)
        if not np.any(cand):
            continue
        val = _minimax_objective(cand, sqrt_l)
        if val < best:
            best, best_point = val, cand

    def fun_and_grad(c):
        s, q = split_objective(c)
        if q == 0.0:
            return np.inf, np.zeros_like(c)
        f = s * s / q
        grad = (2.0 * s / q) * (sqrt_l - (s / q) * c)
        return f, grad

    start_points = [best_point, 0.5 * (lower + upper)]
    start_points.extend(lower + rng.random((4, n)) * (upper - lower))
    bounds = list(zip(lower, upper))
    for x0 in start_points:
        if x0 is None or not np.any(x0):
            continue
        res = scipy.optimize.minimize(
            fun_and_grad, x0, jac=True, method="L-BFGS-B", bounds=bounds
        )
        if np.all(res.x >= lower - 1e-12) and np.all(res.x <= upper + 1e-12):
            point = np.clip(res.x, lower, upper)
            if np.any(point):
                val = _minimax_objective(point, sqrt_l)
                if val < best:
                    best = val
    if not np.isfinite(best) or best <= 0.0:
        raise DiagnosticUnavailableError("could not evaluate the box objective")
    return value / best
