"""Safe interval tracking of the sampled gradients across solver steps.

Every direction carries one signed interval [lower, upper] on the value
whose magnitude the sampler scores: for coordinate descent the whole
coordinate gradient (loss term plus the L2 term 2*lambda*x_i), for SGD the
margin derivative times the row norm, theta_j * ||a_j||, the signed norm of
the component gradient.  Updates widen the intervals of the other
directions by a worst-case drift, ``rates[j]`` times the step's length
(plus any proximal displacement), and collapse the active one onto its
observed value.  The Cauchy-Schwarz modes start every moving direction at
[-inf, inf].  Exact-gram mode (least squares) starts at the exact gradient
at x = 0 and knows every drift exactly, so its intervals have zero width
throughout: one signed gradient vector that a step shifts by
delta * (A^T A)[:, i].  ``sampling_box`` turns the signed intervals into
the magnitude box the minimax solve takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import glm
from .sampling import GradientBox

CD_CAUCHY_SCHWARZ = "cd_cauchy_schwarz"
CD_EXACT_GRAM = "cd_exact_gram"
SGD_CAUCHY_SCHWARZ = "sgd_cauchy_schwarz"
MODES = (CD_CAUCHY_SCHWARZ, CD_EXACT_GRAM, SGD_CAUCHY_SCHWARZ)


@dataclass
class TrackerState:
    """Signed bounds plus the geometry needed to move them.

    ``lower``/``upper`` bound the scored signed value: the whole coordinate
    gradient (CD modes) or theta_j * ||a_j|| (SGD mode); in the
    Cauchy-Schwarz modes an unobserved direction holds [-inf, inf].  In
    exact-gram mode ``lower is upper``: one array holding the exact signed
    gradient, finite from init_tracker on.  ``norms`` are column norms for
    CD modes and row norms for the SGD mode.  ``rates[j]`` bounds how far
    value j moves per unit length of a step: M ||a_j|| for CD, M ||a_j||^2
    for SGD, with M the loss curvature bound.  ``gram`` is the exact-gram
    mode's symmetric sparse A^T A.
    """

    mode: str
    lower: np.ndarray
    upper: np.ndarray
    norms: np.ndarray
    rates: np.ndarray
    gram: sp.csr_matrix | None = None

    @property
    def n(self) -> int:
        return self.lower.size

    @property
    def exact_mask(self) -> np.ndarray:
        """Directions whose value is known exactly (zero-width interval)."""
        return self.lower == self.upper


class TrackerSetupError(ValueError):
    """A tracker mode the problem cannot use, refused before the run starts."""


def init_tracker(problem: glm.GlmProblem, mode: str) -> TrackerState:
    """Fresh tracker at x = 0, where the solvers start.

    The Cauchy-Schwarz modes have observed nothing: [-inf, inf] everywhere
    except zero-norm directions, whose gradient contribution is provably
    zero.  Exact-gram mode holds the whole gradient at x = 0, one O(nnz(A))
    product; the L2 term is zero there.  Raises TrackerSetupError when
    exact-gram mode does not fit the problem.
    """
    if mode not in MODES:
        raise ValueError(f"unknown tracker mode {mode!r}")
    curvature = problem.loss.curvature_sup
    if mode == SGD_CAUCHY_SCHWARZ:
        norms = problem.design.row_norms.copy()
        rates = curvature * norms * norms
    else:
        norms = problem.design.column_norms.copy()
        rates = curvature * norms
    n = norms.size
    if n == 0:
        raise ValueError("empty problem")

    gram = None
    if mode == CD_EXACT_GRAM:
        if problem.loss is not glm.SquareLoss:
            raise TrackerSetupError("exact-gram tracking needs constant curvature (square loss)")
        # Row r adds at most nnz(row r)^2 entries to A^T A.  Refuse more
        # than a dense 20000 x 20000 table holds before forming it.
        row_nnz = np.diff(problem.design.csr.indptr).astype(np.int64)
        entries = min(n * n, int(row_nnz @ row_nnz))
        if entries > 20000**2:
            raise TrackerSetupError(
                f"A^T A may hold {entries} entries, over 20000^2; use cd_cauchy_schwarz"
            )
        csc = problem.design.csc
        gram = csc.T @ csc
        gram.sort_indices()
        lower = upper = glm.full_smooth_gradient(problem, glm.CdState(problem))
    else:
        unbounded = norms > 0.0
        lower = np.where(unbounded, -np.inf, 0.0)
        upper = np.where(unbounded, np.inf, 0.0)
    return TrackerState(
        mode=mode,
        lower=lower,
        upper=upper,
        norms=norms,
        rates=rates,
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
            # Row i of the symmetric G is column i: the gradients at its stored
            # rows move by exactly this much.  lower is upper here, so one
            # shift moves both.
            gram = state.gram
            s, e = gram.indptr[index], gram.indptr[index + 1]
            rows = gram.indices[s:e]
            g = state.lower
            g.put(rows, g.take(rows) + displacement * gram.data[s:e])
        else:
            _widen(state, abs(displacement) * state.norms[index])
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

    ``observed_derivative`` is theta at ``index`` after the step; the
    tracker stores theta * ||a_index||, the value the sampler scores.
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
    norm = state.norms[index]
    if displacement != 0.0 or residual_norm != 0.0:
        _widen(state, abs(displacement) * norm + residual_norm)
    state.lower[index] = state.upper[index] = observed_derivative * norm
    return state


def _widen(state: TrackerState, width: float) -> None:
    """Widen interval j by ``rates[j] * width``, ``width`` bounding how far
    the step moved x.

    A zero rate marks a zero-norm direction, whose value no step moves.
    Once ``width`` overflows, every other interval opens and those stay
    put: the product 0 * inf would make their bounds NaN.
    """
    if width == math.inf:
        moving = state.rates > 0.0
        state.lower[moving] = -np.inf
        state.upper[moving] = np.inf
        return
    drift = state.rates * width
    state.lower -= drift
    state.upper += drift


def refresh_exact(state: TrackerState, signed_values: np.ndarray) -> TrackerState:
    """Collapse every interval onto freshly computed scored signed values:
    the whole gradient for CD, theta_j * ||a_j|| for SGD."""
    signed_values = np.asarray(signed_values, dtype=np.float64)
    if signed_values.shape != state.lower.shape:
        raise ValueError("refresh vector length mismatch")
    state.lower[:] = signed_values
    state.upper[:] = signed_values
    return state


def sampling_box(state: TrackerState) -> GradientBox:
    """Magnitude bounds on the quantity the sampler scores.

    The magnitude of a value in [lo, hi] lies in [max(lo, -hi, 0),
    max(-lo, hi)].
    """
    # Two new arrays and the rest in place: at n = 10^4 allocating an
    # array costs about as much as the pass that fills it.
    lo = np.negative(state.upper)
    np.maximum(lo, state.lower, out=lo)
    np.maximum(lo, 0.0, out=lo)
    hi = np.negative(state.lower)
    np.maximum(hi, state.upper, out=hi)
    return GradientBox(lo, hi)
