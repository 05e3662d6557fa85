"""Coordinate descent and SGD with pluggable sampling strategies.

Both loops share the same skeleton: obtain a distribution (static,
full-information, or bound-driven worst-case-optimal), draw a direction,
compute one gradient entry or component, step, and feed the step back into
the bound tracker.  Metrics are recorded at a fixed cadence so the timing
columns measure solver cost rather than logging cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import glm, tracker
from .sampling import (
    LipschitzProfile,
    StationaryPointError,
    compute_safe_sampling,
    draw_index,
    fixed_li_sampling,
    optimal_sampling,
)

METHODS = ("cd", "sgd")
SAMPLERS = ("uniform", "fixed_li", "optimal_full_info", "safe_adaptive")
CD_STEPSIZES = ("big_adaptive", "small_fixed")
SGD_STEPSIZES = ("inv_mu_k", "constant", "inv_sqrt_k")


@dataclass
class SolverConfig:
    """One solver run: method, sampling strategy, stepsize policy, budget."""

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
    gram_limit: int = tracker.DEFAULT_GRAM_LIMIT

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
        if self.stepsize_mode in ("constant", "inv_sqrt_k"):
            if self.stepsize_value is None or self.stepsize_value <= 0:
                raise ValueError(f"{self.stepsize_mode} needs a positive stepsize_value")
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

    ``x`` is the post-step iterate; ``delta`` is the change applied to
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


def _uniform_big_stepsize(profile: LipschitzProfile) -> float:
    # Worst case of the expected-progress bound under uniform probabilities.
    return 1.0 / (len(profile) * float(np.max(profile.values)))


def _check_distribution(p: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(p))) and float(np.sum(p)) > 0.0


def run_cd(problem: glm.GlmProblem, config: SolverConfig, callback=None) -> MetricsTrace:
    """Randomized coordinate descent over feature columns."""
    if config.method != "cd":
        raise ValueError("config.method must be 'cd'")
    profile = glm.coordinate_lipschitz(problem)
    n = problem.n_features
    iterations = config.resolve_iterations(n)
    interval = config.metric_interval or n
    rng = np.random.default_rng(config.seed)
    state = glm.CdState(problem)
    lam = problem.lam
    is_l1 = problem.reg == "l1" and lam > 0.0
    is_l2 = problem.reg == "l2" and lam > 0.0

    track = None
    if config.sampler == "safe_adaptive":
        track = tracker.init_tracker(problem, config.tracker_mode, config.gram_limit)

    p_static, alpha_static = None, None
    if config.sampler == "uniform":
        p_static = np.full(n, 1.0 / n)
        alpha_static = _uniform_big_stepsize(profile)
    elif config.sampler == "fixed_li":
        p_static, alpha_static = fixed_li_sampling(profile)
    alpha_small = 1.0 / profile.trace
    p_fallback, alpha_fallback = fixed_li_sampling(profile)

    result = MetricsTrace(
        sampler=config.sampler,
        stepsize_mode=config.stepsize_mode,
        seed=config.seed,
        lipschitz_trace=profile.trace,
    )
    work_time = 0.0
    last_v = None

    def record(iteration: int, v):
        if result.rows and result.rows[-1].iteration == iteration:
            return  # the final record can coincide with a checkpoint
        ratio = None if v is None else v / profile.trace
        result.rows.append(
            MetricsRow(
                iteration=iteration,
                epoch=iteration / n,
                time_s=work_time,
                fval=glm.objective(problem, state.x, method="cd"),
                v=v,
                v_over_trace=ratio,
            )
        )

    k = 0
    while k < iterations:
        t0 = time.perf_counter()
        v = None
        try:
            if track is not None:
                if config.refresh_interval is not None and k % config.refresh_interval == 0:
                    tracker.refresh_exact(track, glm.full_gradient(problem, state))
                solution = compute_safe_sampling(tracker.sampling_box(track), profile)
                p, alpha, v = solution.probabilities, solution.stepsize, solution.value
            elif config.sampler == "optimal_full_info":
                grad = glm.full_gradient(problem, state)
                p, alpha = optimal_sampling(np.abs(grad), profile)
                v = 1.0 / alpha
            else:
                p, alpha = p_static, alpha_static
        except StationaryPointError:
            result.converged = True
            work_time += time.perf_counter() - t0
            break
        if not _check_distribution(p):
            p, alpha = p_fallback, alpha_fallback
        if config.stepsize_mode == "small_fixed":
            alpha = alpha_small
        last_v = v

        if k % interval == 0:
            # Checkpoint carries the distribution in force at this iterate;
            # the objective evaluation is excluded from the timing columns.
            t_pause = time.perf_counter()
            work_time += t_pause - t0
            record(k, v)
            t0 = time.perf_counter()

        i = draw_index(p, rng)
        t_mid = time.perf_counter()
        result.sampling_time_s += t_mid - t0

        g_smooth = glm.smooth_coordinate_gradient(problem, state, i)
        if not np.isfinite(g_smooth):
            # Diverged iterate; stop so the final checkpoint records it.
            work_time += time.perf_counter() - t_mid
            break
        scale = alpha / p[i]
        if is_l1:
            xi = state.x[i]
            xi_new = float(glm.prox_step("l1", lam, scale, xi - scale * g_smooth))
            delta = xi_new - xi
        else:
            g = g_smooth + (2.0 * lam * state.x[i] if is_l2 else 0.0)
            delta = -scale * g
        state.apply_step(i, delta)
        if track is not None:
            observed = glm.smooth_coordinate_gradient(problem, state, i)
            if is_l2:
                observed += 2.0 * lam * state.x[i]
            tracker.cd_update(track, i, delta, observed)
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
                    x=state.x,
                    delta=delta,
                    cd_state=state,
                    tracker_state=track,
                )
            )
        k += 1

    record(k, last_v)
    result.final_x = state.x.copy()
    result.validate()
    return result


def sgd_strong_convexity(config: SolverConfig, reg: str, lam: float) -> float:
    """The mu of the inv_mu_k schedule: the configured one, else the 2 * lambda
    an L2 penalty supplies (an L1 penalty supplies none)."""
    if config.mu is not None:
        return config.mu
    return 2.0 * lam if reg == "l2" else 0.0


def _sgd_stepsize(config: SolverConfig, k: int, reg: str, lam: float) -> float:
    if config.stepsize_mode == "constant":
        return config.stepsize_value
    if config.stepsize_mode == "inv_sqrt_k":
        return config.stepsize_value / np.sqrt(k + 1.0)
    mu = sgd_strong_convexity(config, reg, lam)
    if mu <= 0.0:
        raise ValueError("inv_mu_k needs a positive strong-convexity constant")
    return 1.0 / (mu * (k + 1.0))


def run_sgd(problem: glm.GlmProblem, config: SolverConfig, callback=None) -> MetricsTrace:
    """Stochastic gradient descent over sample rows, proximal regularizer."""
    if config.method != "sgd":
        raise ValueError("config.method must be 'sgd'")
    profile = glm.component_lipschitz(problem)
    n_comp = problem.n_samples
    iterations = config.resolve_iterations(n_comp)
    interval = config.metric_interval or n_comp
    rng = np.random.default_rng(config.seed)
    x = np.zeros(problem.n_features)
    lam = problem.lam
    has_prox = lam > 0.0

    track = None
    if config.sampler == "safe_adaptive":
        track = tracker.init_tracker(problem, config.tracker_mode, config.gram_limit)

    p_static, alpha_static = None, None
    if config.sampler == "uniform":
        p_static = np.full(n_comp, 1.0 / n_comp)
    elif config.sampler == "fixed_li":
        p_static, _ = fixed_li_sampling(profile)
    p_fallback, _ = fixed_li_sampling(profile)

    result = MetricsTrace(
        sampler=config.sampler,
        stepsize_mode=config.stepsize_mode,
        seed=config.seed,
        lipschitz_trace=profile.trace,
    )
    work_time = 0.0
    last_v = None

    def record(iteration: int, v):
        if result.rows and result.rows[-1].iteration == iteration:
            return  # the final record can coincide with a checkpoint
        ratio = None if v is None else v / profile.trace
        result.rows.append(
            MetricsRow(
                iteration=iteration,
                epoch=iteration / n_comp,
                time_s=work_time,
                fval=glm.objective(problem, x, method="sgd"),
                v=v,
                v_over_trace=ratio,
            )
        )

    k = 0
    while k < iterations:
        t0 = time.perf_counter()
        v = None
        try:
            if track is not None:
                if config.refresh_interval is not None and k % config.refresh_interval == 0:
                    tracker.refresh_exact(track, glm.all_component_derivatives(problem, x))
                solution = compute_safe_sampling(tracker.sampling_box(track), profile)
                p, v = solution.probabilities, solution.value
            elif config.sampler == "optimal_full_info":
                thetas = glm.all_component_derivatives(problem, x)
                mags = np.abs(thetas) * problem.design.row_norms
                p, alpha_opt = optimal_sampling(mags, profile)
                v = 1.0 / alpha_opt
            else:
                p = p_static
        except StationaryPointError:
            result.converged = True
            work_time += time.perf_counter() - t0
            break
        if not _check_distribution(p):
            p = p_fallback
        last_v = v

        if k % interval == 0:
            t_pause = time.perf_counter()
            work_time += t_pause - t0
            record(k, v)
            t0 = time.perf_counter()

        i = draw_index(p, rng)
        t_mid = time.perf_counter()
        result.sampling_time_s += t_mid - t0

        eta = _sgd_stepsize(config, k, problem.reg, lam)
        theta = glm.component_derivative(problem, x, i)
        if not np.isfinite(theta):
            work_time += time.perf_counter() - t_mid
            break
        coeff = -(eta / (n_comp * p[i])) * theta
        idx, vals = problem.design.row(i)
        if has_prox:
            interim = x.copy()
            interim[idx] += coeff * vals
            x_new = np.asarray(glm.prox_step(problem.reg, lam, eta, interim))
            residual = float(np.linalg.norm(interim - x_new))
            x = x_new
        else:
            x[idx] += coeff * vals
            residual = 0.0
        if track is not None:
            observed = glm.component_derivative(problem, x, i)
            tracker.sgd_update(track, i, coeff, residual, observed)
        t_end = time.perf_counter()
        result.gradient_time_s += t_end - t_mid
        work_time += t_end - t0

        if callback is not None:
            callback(
                IterationInfo(
                    iteration=k,
                    index=i,
                    probabilities=p,
                    alpha=eta,
                    v=v,
                    x=x,
                    delta=coeff,
                    tracker_state=track,
                )
            )
        k += 1

    record(k, last_v)
    result.final_x = x.copy()
    result.validate()
    return result


def run(problem: glm.GlmProblem, config: SolverConfig, callback=None) -> MetricsTrace:
    if config.method == "cd":
        return run_cd(problem, config, callback)
    return run_sgd(problem, config, callback)
