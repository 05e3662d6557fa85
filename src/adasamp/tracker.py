"""Safe interval tracking of the sampled gradients across solver steps.

Every direction carries one signed interval [lower, upper] on the quantity
the sampler scores: for coordinate descent the whole coordinate gradient
(loss term plus the L2 term 2*lambda*x_i), for SGD the scalar margin
derivative, whose component gradient is that scalar times the sample row.
Updates widen the intervals of the other directions by a worst-case drift
(norm products times the loss curvature, plus any proximal displacement)
and collapse the active one onto its observed value.  In exact-gram mode
the drift for least squares is known exactly, so every interval shifts by
delta * (A^T A)[:, i] instead of widening.  ``sampling_box`` turns the
signed intervals into the magnitude box the minimax solve takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import glm
from .sampling import GradientBox

CD_CAUCHY_SCHWARZ = "cd_cauchy_schwarz"
CD_EXACT_GRAM = "cd_exact_gram"
SGD_CAUCHY_SCHWARZ = "sgd_cauchy_schwarz"
MODES = (CD_CAUCHY_SCHWARZ, CD_EXACT_GRAM, SGD_CAUCHY_SCHWARZ)

DEFAULT_GRAM_LIMIT = 20000


@dataclass
class TrackerState:
    """Signed bounds plus the geometry needed to move them.

    ``lower``/``upper`` bound the whole coordinate gradient (CD modes) or
    the margin derivative (SGD mode); an unobserved direction holds
    [-inf, inf].  ``norms`` are column norms for CD modes and row norms for
    the SGD mode.  ``gram`` is the dense A^T A of the exact-gram mode.
    """

    mode: str
    lower: np.ndarray
    upper: np.ndarray
    norms: np.ndarray
    curvature_bound: float
    gram: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def exact_mask(self) -> np.ndarray:
        """Directions whose value is known exactly (zero-width interval)."""
        return self.lower == self.upper


def init_tracker(
    problem: glm.GlmProblem, mode: str, gram_limit: int = DEFAULT_GRAM_LIMIT
) -> TrackerState:
    """Fresh tracker: nothing observed, so [-inf, inf] everywhere except
    zero-norm directions whose gradient contribution is provably zero."""
    if mode not in MODES:
        raise ValueError(f"unknown tracker mode {mode!r}")
    if mode == SGD_CAUCHY_SCHWARZ:
        norms = problem.design.row_norms.copy()
    else:
        norms = problem.design.column_norms.copy()
    n = norms.size
    if n == 0:
        raise ValueError("empty problem")

    gram = None
    if mode == CD_EXACT_GRAM:
        if problem.loss is not glm.SquareLoss:
            raise ValueError("exact-gram tracking needs constant curvature (square loss)")
        if n > gram_limit:
            raise ValueError(
                f"the dense gram table for n={n} exceeds the limit of {gram_limit} "
                "directions; use cd_cauchy_schwarz for a problem this wide"
            )
        csc = problem.design.csc
        gram = (csc.T @ csc).toarray()

    unbounded = norms > 0.0
    return TrackerState(
        mode=mode,
        lower=np.where(unbounded, -np.inf, 0.0),
        upper=np.where(unbounded, np.inf, 0.0),
        norms=norms,
        curvature_bound=problem.loss.curvature_sup,
        gram=gram,
    )


def cd_update(
    state: TrackerState, index: int, displacement: float, observed_gradient: float
) -> TrackerState:
    """Account for one coordinate step.

    ``displacement`` is the change of x at ``index``; ``observed_gradient``
    is the signed whole coordinate gradient there after the step (loss
    term plus 2*lambda*x_i under L2).
    """
    if state.mode == SGD_CAUCHY_SCHWARZ:
        raise ValueError("cd_update on an SGD tracker")
    if not np.isfinite(displacement):
        raise ValueError("non-finite displacement")
    if displacement != 0.0:
        if state.mode == CD_EXACT_GRAM:
            # The other coordinates' gradients move by exactly this much
            # (their L2 terms are unchanged); infinite bounds stay infinite.
            shift = displacement * state.gram[:, index]
            state.lower += shift
            state.upper += shift
        else:
            width = state.curvature_bound * abs(displacement) * state.norms[index]
            _widen(state, state.norms, width)
    state.lower[index] = state.upper[index] = observed_gradient
    return state


def sgd_update(
    state: TrackerState,
    index: int,
    displacement: float,
    residual_norm: float,
    observed_derivative: float,
) -> TrackerState:
    """Account for one stochastic step x -> x + displacement * a_index
    followed by a proximal move.

    ``residual_norm`` is an upper bound on the norm of the proximal
    displacement, not necessarily the norm itself: the solver's lazy prox
    passes lambda * eta * sqrt(stored nonzeros) under L1.  Any upper bound
    keeps the intervals safe; a looser one only widens them.
    """
    if state.mode != SGD_CAUCHY_SCHWARZ:
        raise ValueError("sgd_update on a CD tracker")
    if not (math.isfinite(displacement) and math.isfinite(residual_norm)):
        raise ValueError("non-finite displacement or residual norm")
    if residual_norm < 0.0:
        raise ValueError("negative residual norm")
    if displacement != 0.0 or residual_norm != 0.0:
        size = abs(displacement) * state.norms[index] + residual_norm
        _widen(state, state.curvature_bound * state.norms, size)
    state.lower[index] = state.upper[index] = observed_derivative
    return state


def _widen(state: TrackerState, weights: np.ndarray, width: float) -> None:
    """Widen interval j by ``weights[j] * width``.

    A zero weight marks a zero-norm direction, whose value no step moves.
    Once ``width`` overflows, every other interval opens and those stay
    put: the product 0 * inf would make their bounds NaN.
    """
    if width == math.inf:
        moving = weights > 0.0
        state.lower[moving] = -np.inf
        state.upper[moving] = np.inf
        return
    drift = weights * width
    state.lower -= drift
    state.upper += drift


def refresh_exact(state: TrackerState, signed_values: np.ndarray) -> TrackerState:
    """Collapse every interval onto freshly computed signed values: the
    whole gradient for CD, the margin derivatives for SGD."""
    signed_values = np.asarray(signed_values, dtype=np.float64)
    if signed_values.shape != state.lower.shape:
        raise ValueError("refresh vector length mismatch")
    state.lower[:] = signed_values
    state.upper[:] = signed_values
    return state


def sampling_box(state: TrackerState) -> GradientBox:
    """Magnitude bounds on the quantity the sampler scores.

    The magnitude of a value in [lo, hi] lies in [max(lo, -hi, 0),
    max(-lo, hi)].  CD scores the coordinate gradient itself; SGD the
    component gradient norm, the derivative's magnitude times the row norm.
    """
    # Two new arrays and the rest in place: at n = 10^4 allocating an
    # array costs about as much as the pass that fills it.
    lo = np.negative(state.upper)
    np.maximum(lo, state.lower, out=lo)
    np.maximum(lo, 0.0, out=lo)
    hi = np.negative(state.lower)
    np.maximum(hi, state.upper, out=hi)
    if state.mode == SGD_CAUCHY_SCHWARZ:
        lo *= state.norms
        hi *= state.norms
    return GradientBox(lo, hi)
