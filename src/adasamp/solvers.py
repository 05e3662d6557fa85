"""Coordinate descent and SGD with pluggable sampling strategies.

One loop, ``run``, drives both methods over a direction space: feature
columns for CD, sample rows for SGD.  Each iteration obtains a distribution
(static, full-information, or bound-driven worst-case-optimal), draws a
direction, lets the space compute one gradient entry or component and step,
and feeds the step back into the bound tracker.  The spaces supply only
what differs: the smoothness profile, the exact signed values a refresh
collapses onto (whose magnitudes full information scores), the stepsize
and the step itself.
Metrics are recorded at a fixed cadence so the timing columns measure
solver cost rather than logging cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import glm, tracker
from .sampling import (
    StationaryPointError,
    compute_safe_sampling,
    draw_index,
    fixed_li_sampling,
    masked_static,
    optimal_sampling,
)

METHODS = ("cd", "sgd")
SAMPLERS = ("uniform", "fixed_li", "optimal_full_info", "safe_adaptive")
CD_STEPSIZES = ("big_adaptive", "small_fixed")
SGD_STEPSIZES = ("inv_mu_k", "constant", "inv_sqrt_k")


@dataclass
class SolverConfig:
    """One solver run: method, sampling strategy, stepsize policy, budget.

    Every field set must be one the run reads: ``stepsize_value`` only
    under the ``constant`` and ``inv_sqrt_k`` schedules, ``mu`` only under
    ``inv_mu_k``, and ``tracker_mode`` and ``refresh_interval`` only for
    ``safe_adaptive``.
    """

    method: str
    sampler: str
    stepsize_mode: str | None = None
    stepsize_value: float | None = None
    mu: float | None = None
    iterations: int | None = None
    epochs: int | None = None
    seed: int = 0
    metric_interval: int | None = None
    tracker_mode: str | None = None
    refresh_interval: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.stepsize_mode is None:
            self.stepsize_mode = "big_adaptive" if self.method == "cd" else "inv_mu_k"
        allowed = CD_STEPSIZES if self.method == "cd" else SGD_STEPSIZES
        if self.stepsize_mode not in allowed:
            raise ValueError(
                f"stepsize mode {self.stepsize_mode!r} not valid for {self.method}"
            )
        if self.stepsize_value is not None and not math.isfinite(self.stepsize_value):
            raise ValueError("stepsize_value must be finite")
        if self.stepsize_mode in ("constant", "inv_sqrt_k"):
            if self.stepsize_value is None or self.stepsize_value <= 0:
                raise ValueError(f"{self.stepsize_mode} needs a positive stepsize_value")
        elif self.stepsize_value is not None:
            raise ValueError(
                "stepsize_value is only meaningful for constant and inv_sqrt_k, "
                f"not {self.stepsize_mode}"
            )
        if self.mu is not None and not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if self.mu is not None and self.stepsize_mode != "inv_mu_k":
            raise ValueError(f"mu is only meaningful for inv_mu_k, not {self.stepsize_mode}")
        if self.metric_interval is not None and self.metric_interval <= 0:
            raise ValueError("metric_interval must be positive")
        if (self.iterations is None) == (self.epochs is None):
            raise ValueError("give exactly one of iterations or epochs")
        if self.iterations is not None and self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.epochs is not None and self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.sampler == "safe_adaptive":
            if self.tracker_mode is None:
                self.tracker_mode = (
                    tracker.CD_CAUCHY_SCHWARZ
                    if self.method == "cd"
                    else tracker.SGD_CAUCHY_SCHWARZ
                )
            wants_cd = self.tracker_mode in (tracker.CD_CAUCHY_SCHWARZ, tracker.CD_EXACT_GRAM)
            if wants_cd != (self.method == "cd"):
                raise ValueError(
                    f"tracker mode {self.tracker_mode!r} does not fit method {self.method!r}"
                )
        elif self.tracker_mode is not None:
            raise ValueError("tracker_mode is only meaningful for safe_adaptive")
        if self.refresh_interval is not None:
            if self.sampler != "safe_adaptive":
                raise ValueError("refresh_interval is only meaningful for safe_adaptive")
            if self.refresh_interval <= 0:
                raise ValueError("refresh_interval must be positive")

    def resolve_iterations(self, directions: int) -> int:
        if self.iterations is not None:
            return self.iterations
        return self.epochs * directions


@dataclass
class MetricsRow:
    iteration: int
    epoch: float
    time_s: float
    fval: float
    v: float | None
    v_over_trace: float | None


@dataclass
class MetricsTrace:
    """Per-checkpoint records plus run-level accounting."""

    sampler: str
    stepsize_mode: str
    seed: int
    rows: list[MetricsRow] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    sampling_time_s: float = 0.0
    gradient_time_s: float = 0.0
    lipschitz_trace: float = 0.0
    final_x: np.ndarray | None = None

    @property
    def final_fval(self) -> float:
        return self.rows[-1].fval

    def validate(self) -> None:
        iters = [r.iteration for r in self.rows]
        if any(b <= a for a, b in zip(iters, iters[1:])):
            raise ValueError("iterations must be strictly increasing")
        for r in self.rows:
            if r.v_over_trace is not None and not (0.0 < r.v_over_trace <= 1.0 + 1e-12):
                raise ValueError(f"v/trace out of range: {r.v_over_trace}")


@dataclass
class IterationInfo:
    """Snapshot passed to an optional per-iteration callback.

    ``x`` is the post-step iterate (for SGD a materialised copy, so reading
    it leaves the run unchanged); ``delta`` is the change applied to
    coordinate ``index`` (CD) or the coefficient on the sample row (SGD).
    """

    iteration: int
    index: int
    probabilities: np.ndarray
    alpha: float
    v: float | None
    x: np.ndarray
    delta: float = 0.0
    cd_state: glm.CdState | None = None
    tracker_state: tracker.TrackerState | None = None


def sgd_strong_convexity(config: SolverConfig, reg: str, lam: float) -> float:
    """The mu of the inv_mu_k schedule: the configured one, else the 2 * lambda
    an L2 penalty supplies (an L1 penalty supplies none)."""
    if config.mu is not None:
        return config.mu
    return 2.0 * lam if reg == "l2" else 0.0


class _Columns:
    """CD directions: feature columns, stepped through a margin-caching CdState."""

    def __init__(self, problem: glm.GlmProblem, config: SolverConfig):
        self.problem = problem
        self.profile = glm.coordinate_lipschitz(problem)
        self.n = problem.n_features
        self.cd_state = glm.CdState(problem)
        self.is_l1 = problem.reg == "l1" and problem.lam > 0.0
        self.small_fixed = (
            1.0 / self.profile.trace if config.stepsize_mode == "small_fixed" else None
        )

    @property
    def x(self) -> np.ndarray:
        return self.cd_state.x

    def exact(self) -> np.ndarray:
        """The whole signed gradient, which the CD trackers bound."""
        return glm.full_gradient(self.problem, self.cd_state)

    def stepsize(self, k: int, alpha: float) -> float:
        return alpha if self.small_fixed is None else self.small_fixed

    def step(self, i: int, p_i: float, alpha: float, track) -> float | None:
        problem, state = self.problem, self.cd_state
        # Under L1 this is the smooth gradient, which the prox step takes.
        g = glm.coordinate_gradient(problem, state, i)
        if not math.isfinite(g):
            return None
        scale = alpha / p_i
        if self.is_l1:
            xi = state.x[i]
            delta = float(glm.prox_step("l1", problem.lam, scale, xi - scale * g)) - xi
        else:
            delta = -scale * g
        state.apply_step(i, delta)
        if track is not None:
            observed = glm.coordinate_gradient(problem, state, i)
            if not math.isfinite(observed):
                return None
            tracker.cd_update(track, i, delta, observed)
        return delta


# The L2 scale is folded into the stored vector once it falls below this.
# The stored squared norm is ||x||^2 / scale^2, so folding long before the
# scale could underflow also keeps that norm far from overflow.
_SCALE_FLOOR = 1e-9


class _Rows:
    """SGD directions: sample rows, each step followed by the regularizer's prox.

    A step costs O(nnz(a_i)), not O(d): the prox reaches a coordinate only
    when its row is touched, applied to a stored vector ``w``.

    - L1: ``clock`` sums the stepsizes, and ``last[j]`` is the clock when
      coordinate j was last brought up to date.  Successive soft-thresholds
      compose into one by their sum, so x_j = prox(w_j) with scale
      ``clock - last[j]``; a row is brought up to date just before it is read.
    - L2 (and no penalty): x = ``scale`` * w, and the prox shrinks the scalar.

    ``x`` materialises the iterate as a new array, so reading it (at a
    checkpoint, in a callback) never changes the run.  ``exact`` pays
    O(nnz(A)) anyway, so it first folds the pending prox into ``w``.
    """

    cd_state = None

    def __init__(self, problem: glm.GlmProblem, config: SolverConfig):
        self.problem = problem
        self.profile = glm.component_lipschitz(problem)
        self.n = problem.n_samples
        self.l1 = problem.reg == "l1" and problem.lam > 0.0
        self.w = np.zeros(problem.n_features)
        self.clock = 0.0
        self.last = np.zeros(problem.n_features) if self.l1 else None
        self.scale = 1.0
        # What the tracker's residual bound needs: the number of nonzero
        # stored values (L1) or ||w||^2 (L2).
        self.nonzero = 0
        self.w_sq = 0.0
        self.mode = config.stepsize_mode
        self.value = config.stepsize_value
        if self.mode == "inv_mu_k":
            self.mu = sgd_strong_convexity(config, problem.reg, problem.lam)
            if not self.mu > 0.0:
                raise ValueError("inv_mu_k needs a positive strong-convexity constant")

    @property
    def x(self) -> np.ndarray:
        """The iterate, as a new array."""
        if self.l1:
            lam = self.problem.lam
            return np.asarray(glm.prox_step("l1", lam, self.clock - self.last, self.w))
        return self.scale * self.w

    def _settle(self) -> None:
        """Fold every pending prox into ``w``, in O(d)."""
        if self.l1:
            self.w[:] = self.x
            self.last[:] = self.clock
            self.nonzero = int(np.count_nonzero(self.w))
        else:
            self.w *= self.scale
            self.scale = 1.0
            self.w_sq = float(np.dot(self.w, self.w))

    def _catch_up(self, idx: np.ndarray) -> None:
        """Bring the L1 coordinates ``idx`` up to date."""
        old = self.w[idx]
        new = glm.prox_step("l1", self.problem.lam, self.clock - self.last[idx], old)
        self.w[idx] = new
        self.last[idx] = self.clock
        self.nonzero += np.count_nonzero(new) - np.count_nonzero(old)

    def exact(self) -> np.ndarray:
        """theta * ||a|| per row, the signed component-gradient norms the
        SGD tracker bounds."""
        self._settle()
        thetas = glm.all_component_derivatives(self.problem, self.w)
        return thetas * self.problem.design.row_norms

    def stepsize(self, k: int, alpha: float) -> float:
        if self.mode == "constant":
            return self.value
        if self.mode == "inv_sqrt_k":
            return self.value / np.sqrt(k + 1.0)
        return 1.0 / (self.mu * (k + 1.0))

    def step(self, i: int, p_i: float, eta: float, track) -> float | None:
        problem, lam, w = self.problem, self.problem.lam, self.w
        idx, vals = problem.design.row(i)
        if self.l1:
            self._catch_up(idx)
        theta = glm.component_derivative(problem, w, i, self.scale)
        if not math.isfinite(theta):
            return None
        coeff = -(eta / (self.n * p_i)) * theta
        old = w[idx]
        new = old + (coeff / self.scale) * vals
        w[idx] = new
        # The prox, and a bound on how far it moves x for the tracker.
        if self.l1:
            self.nonzero += np.count_nonzero(new) - np.count_nonzero(old)
            # Each coordinate moves by at most lam * eta, and only a nonzero
            # one moves; the pending thresholds only shrink stored values.
            residual = lam * eta * math.sqrt(self.nonzero)
            self.clock += eta
        else:
            self.w_sq += float(np.dot(new, new) - np.dot(old, old))
            shrunk = glm.prox_step("l2", lam, eta, self.scale)
            residual = (self.scale - shrunk) * math.sqrt(max(self.w_sq, 0.0))
            self.scale = shrunk
            if shrunk < _SCALE_FLOOR:
                self._settle()
        if track is not None:
            if self.l1:
                self._catch_up(idx)
            observed = glm.component_derivative(problem, w, i, self.scale)
            # The tracker widens by |coeff| ||a_i|| + residual and stores
            # observed * ||a_i||: stop before any of them overflows.
            norm = problem.design.row_norms[i]
            if not math.isfinite((abs(coeff) + abs(observed)) * norm + residual):
                return None
            tracker.sgd_update(track, i, coeff, residual, observed)
        return coeff


def run(problem: glm.GlmProblem, config: SolverConfig, callback=None) -> MetricsTrace:
    """Run ``config`` on ``problem``: CD over columns or SGD over rows.

    The run stops early at a stationary point (``converged``) or as soon as
    a number the next step would use is non-finite (``diverged``): the
    drawn gradient, what a tracker would store or widen by after the step
    (including the SGD prox residual), a refreshed bound, or the adaptive
    v.  Either way the final iterate is recorded.
    """
    space = (_Columns if config.method == "cd" else _Rows)(problem, config)
    profile, n = space.profile, space.n
    iterations = config.resolve_iterations(n)
    interval = config.metric_interval or n
    refresh = config.refresh_interval
    rng = np.random.default_rng(config.seed)

    track = None
    if config.sampler == "safe_adaptive":
        track = tracker.init_tracker(problem, config.tracker_mode)
    full_info = config.sampler == "optimal_full_info"

    p_static, alpha_static = None, None
    if config.sampler == "uniform":
        p_static = np.full(n, 1.0 / n)
        # Worst case of the expected-progress bound under uniform probabilities.
        alpha_static = 1.0 / (n * float(np.max(profile.values)))
    elif config.sampler == "fixed_li":
        p_static, alpha_static = fixed_li_sampling(profile)
    # Draws from a static distribution, and from the safe solve's
    # uninformative exit, search one cumulative sum built here.  The exit
    # returns the profile's own static array; when some direction has rate
    # 0 (its gradient is provably 0), it returns that array masked to the
    # others, built here once exactly as the solve builds it.
    p_cached, v_exit = p_static, None
    if p_static is None:
        p_cached, v_exit = profile.static_probabilities, profile.trace
        if track is not None:
            moving = track.rates > 0.0
            if moving.any() and not moving.all():
                p_cached, v_exit = masked_static(profile, moving)
    cum_cached = np.cumsum(p_cached)

    result = MetricsTrace(
        sampler=config.sampler,
        stepsize_mode=config.stepsize_mode,
        seed=config.seed,
        lipschitz_trace=profile.trace,
    )
    work_time = 0.0
    last_v = None

    def distribution(k: int):
        """(p, alpha, v) in force at step k; v is None for the static
        samplers, and NaN when a refresh would put a non-finite bound in
        the box."""
        if track is not None:
            if refresh is not None and k % refresh == 0:
                exact = space.exact()
                if not np.isfinite(exact).all():
                    return None, None, math.nan
                tracker.refresh_exact(track, exact)
            if tracker.uninformative(track, profile):
                # What the solve of the box would return, without the box.
                return p_cached, 1.0 / v_exit, v_exit
            solution = compute_safe_sampling(tracker.sampling_box(track), profile)
            return solution.probabilities, solution.stepsize, solution.value
        if full_info:
            p, alpha = optimal_sampling(np.abs(space.exact()), profile)
            return p, alpha, 1.0 / alpha
        return p_static, alpha_static, None

    def record(iteration: int, v):
        if result.rows and result.rows[-1].iteration == iteration:
            return  # the final record can coincide with a checkpoint
        ratio = None if v is None else v / profile.trace
        result.rows.append(
            MetricsRow(
                iteration=iteration,
                epoch=iteration / n,
                time_s=work_time,
                fval=glm.objective(problem, space.x, method=config.method),
                v=v,
                v_over_trace=ratio,
            )
        )

    k = 0
    while k < iterations:
        t0 = time.perf_counter()
        try:
            p, alpha, v = distribution(k)
        except StationaryPointError:
            result.converged = True
            work_time += time.perf_counter() - t0
            break
        if v is not None and not math.isfinite(v):
            result.diverged = True
            work_time += time.perf_counter() - t0
            break
        alpha = space.stepsize(k, alpha)
        last_v = v

        if k % interval == 0:
            # Checkpoint carries the distribution in force at this iterate;
            # the objective evaluation is excluded from the timing columns.
            t_pause = time.perf_counter()
            work_time += t_pause - t0
            record(k, v)
            t0 = time.perf_counter()

        i = draw_index(p, rng, cum_cached if p is p_cached else None)
        t_mid = time.perf_counter()
        result.sampling_time_s += t_mid - t0

        delta = space.step(i, p[i], alpha, track)
        if delta is None:
            result.diverged = True
            work_time += time.perf_counter() - t_mid
            break
        t_end = time.perf_counter()
        result.gradient_time_s += t_end - t_mid
        work_time += t_end - t0

        if callback is not None:
            callback(
                IterationInfo(
                    iteration=k,
                    index=i,
                    probabilities=p,
                    alpha=alpha,
                    v=v,
                    x=space.x,
                    delta=delta,
                    cd_state=space.cd_state,
                    tracker_state=track,
                )
            )
        k += 1

    record(k, last_v)
    result.final_x = space.x.copy()
    result.validate()
    return result
