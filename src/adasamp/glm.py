"""Generalized linear model losses, objectives, gradients and prox maps.

A problem is ``sum_j h(margin_j) + lambda * r(x)`` over a sparse design
matrix.  Coordinate descent treats feature columns as directions and keeps
the margin vector cached; SGD treats sample rows as components and keeps
nothing beyond the iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import SparseDesign
from .sampling import LipschitzProfile

LIPSCHITZ_FLOOR = 1e-12


class SquareLoss:
    """h(z) = (z - b)^2 / 2."""

    name = "square"
    curvature_sup = 1.0

    @staticmethod
    def value(z, b):
        d = z - b
        return 0.5 * d * d

    @staticmethod
    def derivative(z, b):
        return z - b


class LogisticLoss:
    """h(z) = log(1 + exp(-b z)) for labels b in {-1, +1}."""

    name = "logistic"
    curvature_sup = 0.25

    @staticmethod
    def value(z, b):
        return np.logaddexp(0.0, -b * z)

    @staticmethod
    def derivative(z, b):
        return -b * expit(-b * z)


class SquaredHingeLoss:
    """h(z) = max(0, 1 - b z)^2 for labels b in {-1, +1}."""

    name = "squared_hinge"
    curvature_sup = 2.0

    @staticmethod
    def value(z, b):
        gap = np.maximum(0.0, 1.0 - b * z)
        return gap * gap

    @staticmethod
    def derivative(z, b):
        return -2.0 * b * np.maximum(0.0, 1.0 - b * z)


LOSSES = {cls.name: cls for cls in (SquareLoss, LogisticLoss, SquaredHingeLoss)}
REGULARIZERS = ("l1", "l2")


def make_loss(name: str):
    try:
        return LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; expected one of {sorted(LOSSES)}") from None


@dataclass
class GlmProblem:
    """Immutable problem description: design, labels, loss, regularizer."""

    design: SparseDesign
    labels: np.ndarray
    loss: type
    reg: str
    lam: float

    def __post_init__(self):
        if isinstance(self.loss, str):
            self.loss = make_loss(self.loss)
        if self.reg not in REGULARIZERS:
            raise ValueError(f"unknown regularizer {self.reg!r}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lambda must be finite and nonnegative")
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape != (self.design.n_rows,):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.design.n_rows} samples"
            )
        if not np.isfinite(self.labels).all():
            raise ValueError("labels must be finite")

    @property
    def n_features(self) -> int:
        return self.design.n_cols

    @property
    def n_samples(self) -> int:
        return self.design.n_rows


def regularizer_value(problem: GlmProblem, x: np.ndarray) -> float:
    if problem.lam == 0.0:
        return 0.0
    if problem.reg == "l1":
        return problem.lam * float(np.sum(np.abs(x)))
    return problem.lam * float(np.dot(x, x))


def objective(problem: GlmProblem, x: np.ndarray, method: str = "cd") -> float:
    """Full objective: loss sum (mean for SGD) plus the regularizer."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n_features,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.n_features},)")
    margins = problem.design.csr @ x
    total = float(np.sum(problem.loss.value(margins, problem.labels)))
    if method == "sgd":
        total /= problem.n_samples
    elif method != "cd":
        raise ValueError(f"unknown method {method!r}")
    return total + regularizer_value(problem, x)


class CdState:
    """Coordinate-descent iterate with cached prediction margins.

    The margin vector is updated in O(nnz of the touched column) per step
    and guarded by a version counter so derived caches can detect
    staleness.
    """

    def __init__(self, problem: GlmProblem, x0: np.ndarray | None = None):
        self.problem = problem
        if x0 is None:
            self._x = np.zeros(problem.n_features)
        else:
            self._x = np.array(x0, dtype=np.float64)
            if self._x.shape != (problem.n_features,):
                raise ValueError("x0 dimension mismatch")
        self._margins = problem.design.csr @ self._x
        self.version = 0

    @property
    def x(self) -> np.ndarray:
        view = self._x.view()
        view.flags.writeable = False
        return view

    @property
    def margins(self) -> np.ndarray:
        view = self._margins.view()
        view.flags.writeable = False
        return view

    def apply_step(self, i: int, delta: float) -> None:
        if delta != 0.0:
            self._x[i] += delta
            rows, vals = self.problem.design.column(i)
            self._margins[rows] += delta * vals
        self.version += 1

    def margin_drift(self) -> float:
        """Max absolute gap between cached and recomputed margins (testing)."""
        fresh = self.problem.design.csr @ self._x
        return float(np.max(np.abs(self._margins - fresh), initial=0.0))


def smooth_coordinate_gradient(problem: GlmProblem, state: CdState, i: int) -> float:
    """d/dx_i of the loss term only, in O(nnz of column i)."""
    rows, vals = problem.design.column(i)
    if rows.size == 0:
        return 0.0
    dh = problem.loss.derivative(state.margins[rows], problem.labels[rows])
    return float(np.dot(vals, dh))


def coordinate_gradient(problem: GlmProblem, state: CdState, i: int) -> float:
    """Exact smooth-part gradient along coordinate i, plus the L2 term."""
    g = smooth_coordinate_gradient(problem, state, i)
    if problem.reg == "l2" and problem.lam > 0.0:
        g += 2.0 * problem.lam * state.x[i]
    return g


def full_smooth_gradient(problem: GlmProblem, state: CdState) -> np.ndarray:
    """All-coordinate loss gradient A^T h'(Ax); O(nnz) but full cost."""
    dh = problem.loss.derivative(state.margins, problem.labels)
    return problem.design.csc.T @ dh


def full_gradient(problem: GlmProblem, state: CdState) -> np.ndarray:
    g = full_smooth_gradient(problem, state)
    if problem.reg == "l2" and problem.lam > 0.0:
        g = g + 2.0 * problem.lam * state.x
    return g


def component_margin(
    problem: GlmProblem, x: np.ndarray, i: int, scale: float = 1.0
) -> float:
    """a_i . (scale * x), in O(nnz of row i).

    The scaled entries are formed first, so the margin equals the one read
    from the materialised vector ``scale * x`` to the last bit.
    """
    idx, vals = problem.design.row(i)
    if idx.size == 0:
        return 0.0
    return float(np.dot(vals, scale * x[idx]))


def component_derivative(
    problem: GlmProblem, x: np.ndarray, i: int, scale: float = 1.0
) -> float:
    """Scalar h'_i at the margin of the iterate ``scale * x``; the component
    gradient is this scalar times the sample row.  (SGD under L2 stores
    its iterate as such a scaled vector.)"""
    z = component_margin(problem, x, i, scale)
    return float(problem.loss.derivative(z, problem.labels[i]))


def component_gradient_norm(problem: GlmProblem, x: np.ndarray, i: int) -> float:
    return abs(component_derivative(problem, x, i)) * float(problem.design.row_norms[i])


def all_component_derivatives(problem: GlmProblem, x: np.ndarray) -> np.ndarray:
    margins = problem.design.csr @ x
    return problem.loss.derivative(margins, problem.labels)


def coordinate_lipschitz(problem: GlmProblem) -> LipschitzProfile:
    """Per-feature smoothness: M ||a_i||^2, plus 2*lambda under L2."""
    vals = problem.loss.curvature_sup * problem.design.column_norms**2
    if problem.reg == "l2":
        vals = vals + 2.0 * problem.lam
    return LipschitzProfile(np.maximum(vals, LIPSCHITZ_FLOOR))


def component_lipschitz(problem: GlmProblem) -> LipschitzProfile:
    """Per-sample smoothness M ||a_i||^2 used for SGD sampling."""
    vals = problem.loss.curvature_sup * problem.design.row_norms**2
    return LipschitzProfile(np.maximum(vals, LIPSCHITZ_FLOOR))


def prox_step(reg: str, lam: float, scale, value):
    """Proximal map of ``scale * lam * r`` at ``value`` (elementwise).

    L1 soft-thresholds, L2 shrinks by 1/(1 + 2*lam*scale).  ``scale`` is a
    nonnegative number, or an array of them that broadcasts against
    ``value``: lazy SGD thresholds each coordinate by the sum of the
    stepsizes it missed, which equals that many single thresholds.
    """
    if np.less(scale, 0.0).any():
        raise ValueError("prox scale must be nonnegative")
    if lam == 0.0:
        return value
    if reg == "l1":
        thr = lam * scale
        return np.sign(value) * np.maximum(np.abs(value) - thr, 0.0)
    if reg == "l2":
        return value / (1.0 + 2.0 * lam * scale)
    raise ValueError(f"unknown regularizer {reg!r}")
