"""Safe interval tracking of the sampled gradients across solver steps.

Every direction carries one signed interval on the value whose magnitude
the sampler scores: for coordinate descent the whole coordinate gradient
(loss term plus the L2 term 2*lambda*x_i), for SGD the margin derivative
times the row norm, theta_j * ||a_j||, the signed norm of the component
gradient.  Updates widen the intervals of the other directions by a
worst-case drift, ``rates[j]`` times the step's length (plus any proximal
displacement), and collapse the active one onto its observed value.

The intervals are stored as path clocks.  That drift is the same step
length for every direction, scaled by its own rate, so one global clock P
sums the step lengths and direction j keeps only its centre c_j, the value
it was last collapsed onto, and the clock s_j at that collapse.  Interval j
is c_j -/+ rates[j] * (P - s_j).  P is summed rounding up
(``math.nextafter``) and the rates carry a few ulp of headroom, so no
interval is narrower than the per-step sums it stands for; the price is
that every step moves P by at least one ulp of P.  An update costs O(1)
whatever n is.  A direction never observed has s_j = -inf, hence
[-inf, inf]; a zero-norm direction has rate 0 and keeps its exact value 0.

Exact-gram mode (least squares) starts at the exact gradient at x = 0 and
knows every drift exactly: its clock never moves, so every interval has
zero width throughout, and a step shifts the centres by
delta * (A^T A)[:, i].

``sampling_box`` turns the intervals into the magnitude box the minimax
solve takes.  ``uninformative`` proves, without building that O(n) box,
that the solve would take its uninformative exit and return the static
distribution: it keeps the directions whose lower bound may be positive
and one heap of lower bounds on the upper bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import glm
from .sampling import GradientBox, LipschitzProfile

CD_CAUCHY_SCHWARZ = "cd_cauchy_schwarz"
CD_EXACT_GRAM = "cd_exact_gram"
SGD_CAUCHY_SCHWARZ = "sgd_cauchy_schwarz"
MODES = (CD_CAUCHY_SCHWARZ, CD_EXACT_GRAM, SGD_CAUCHY_SCHWARZ)

# The rates are rounded up by this factor, so that a width computed as
# fl(fl(P - s_j) * rates[j]) is at least the exact M ||a_j|| * (P - s_j)
# (times ||a_j|| for SGD) despite the four roundings on the way, whenever
# the result is a normal number.
_ROUND_UP = 1.0 + 2.0**-50


@dataclass
class TrackerState:
    """Path-clock intervals plus the geometry needed to move them.

    Interval j is ``centre[j]`` -/+ ``rates[j] * (clock - since[j])`` (a
    path clock) on the scored signed value: the whole coordinate gradient
    (CD modes) or theta_j * ||a_j|| (SGD mode).  ``clock`` sums the lengths
    of every step so far, rounded up, and ``since[j]`` is the clock at the
    last collapse of direction j, -inf while it has never been observed in
    the Cauchy-Schwarz modes.  In exact-gram mode the clock stays 0, so
    ``centre`` is the exact signed gradient, finite from init_tracker on.
    ``lower``, ``upper`` and ``exact_mask`` materialise the intervals as
    new arrays, in O(n).  ``norms`` are column norms for CD modes and row
    norms for the SGD mode.  ``rates[j]`` bounds how far value j moves per
    unit length of a step: M ||a_j|| for CD, M ||a_j||^2 for SGD, with M
    the loss curvature bound, rounded up by a few ulp so that the rounded
    width still bounds the drift; a zero rate marks a direction no step
    moves.  ``gram`` is the exact-gram mode's symmetric sparse A^T A.
    ``exit_index`` is what ``uninformative`` keeps between calls.
    """

    mode: str
    centre: np.ndarray
    since: np.ndarray
    norms: np.ndarray
    rates: np.ndarray
    clock: float = 0.0
    gram: sp.csr_matrix | None = None
    exit_index: _ExitIndex | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.centre.size

    @property
    def lower(self) -> np.ndarray:
        return self.centre - _widths(self)

    @property
    def upper(self) -> np.ndarray:
        return self.centre + _widths(self)

    @property
    def exact_mask(self) -> np.ndarray:
        """Directions whose value is known exactly (zero-width interval)."""
        return _widths(self) == 0.0


class TrackerSetupError(ValueError):
    """A tracker mode the problem cannot use, refused before the run starts."""


def init_tracker(problem: glm.GlmProblem, mode: str) -> TrackerState:
    """Fresh tracker at x = 0, where the solvers start.

    The Cauchy-Schwarz modes have observed nothing: [-inf, inf] everywhere
    except zero-rate directions, whose gradient contribution is provably
    zero.  Exact-gram mode holds the whole gradient at x = 0, one O(nnz(A))
    product; the L2 term is zero there.  Raises TrackerSetupError when
    exact-gram mode does not fit the problem.
    """
    if mode not in MODES:
        raise ValueError(f"unknown tracker mode {mode!r}")
    curvature = problem.loss.curvature_sup
    if mode == SGD_CAUCHY_SCHWARZ:
        norms = problem.design.row_norms.copy()
        rates = curvature * norms * norms * _ROUND_UP
    else:
        norms = problem.design.column_norms.copy()
        rates = curvature * norms * _ROUND_UP
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
        centre = glm.full_smooth_gradient(problem, glm.CdState(problem))
        since = np.zeros(n)
    else:
        centre = np.zeros(n)
        since = np.where(rates > 0.0, -np.inf, 0.0)
    return TrackerState(
        mode=mode, centre=centre, since=since, norms=norms, rates=rates, gram=gram
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
    if not math.isfinite(displacement):
        raise ValueError("non-finite displacement")
    if displacement != 0.0:
        if state.mode == CD_EXACT_GRAM:
            # Row i of the symmetric G is column i: the gradients at its
            # stored rows move by exactly this much.
            gram = state.gram
            s, e = gram.indptr[index], gram.indptr[index + 1]
            rows = gram.indices[s:e]
            g = state.centre
            g.put(rows, g.take(rows) + displacement * gram.data[s:e])
        else:
            _advance(state, abs(displacement) * state.norms[index])
    _collapse(state, index, observed_gradient)
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
        _advance(state, abs(displacement) * norm + residual_norm)
    _collapse(state, index, observed_derivative * norm)
    return state


def _advance(state: TrackerState, width: float) -> None:
    """Move the clock by ``width``, a bound on how far the step moved x.

    The clock is rounded up past the exact sum.  Once it would overflow,
    every moving interval opens instead and the clock stays put; zero-rate
    directions keep their exact value.
    """
    if width == 0.0:
        return
    clock = math.nextafter(state.clock + width, math.inf)
    if clock == math.inf:
        state.since[state.rates > 0.0] = -np.inf
        if state.exit_index is not None:
            state.exit_index.reset(state)
        return
    state.clock = clock


def _collapse(state: TrackerState, index: int, value: float) -> None:
    value = float(value)
    state.centre[index] = value
    state.since[index] = state.clock
    if state.exit_index is not None:
        state.exit_index.collapse(state, index, value)


def _widths(state: TrackerState, idx=None) -> np.ndarray:
    """rates * (clock - since) as a new array (at ``idx``)."""
    if idx is None:
        span = state.clock - state.since
        span *= state.rates
    else:
        span = state.clock - state.since[idx]
        span *= state.rates[idx]
    return span


def refresh_exact(state: TrackerState, signed_values: np.ndarray) -> TrackerState:
    """Collapse every interval onto freshly computed scored signed values:
    the whole gradient for CD, theta_j * ||a_j|| for SGD."""
    signed_values = np.asarray(signed_values, dtype=np.float64)
    if signed_values.shape != state.centre.shape:
        raise ValueError("refresh vector length mismatch")
    state.centre[:] = signed_values
    state.since[:] = state.clock
    if state.exit_index is not None:
        state.exit_index.reset(state)
    return state


def sampling_box(state: TrackerState) -> GradientBox:
    """Magnitude bounds on the quantity the sampler scores.

    The magnitude of a value in [c - w, c + w] lies in
    [max(|c| - w, 0), |c| + w].
    """
    magnitude = np.abs(state.centre)
    if state.mode == CD_EXACT_GRAM:
        return GradientBox(magnitude, magnitude)
    width = _widths(state)
    lower = magnitude - width
    np.maximum(lower, 0.0, out=lower)
    magnitude += width
    return GradientBox(lower, magnitude)


def uninformative(state: TrackerState, profile: LipschitzProfile) -> bool:
    """True when the minimax solve on ``sampling_box(state)`` is proven to
    take its uninformative exit with no transient zero upper bound.

    The solve then returns the static distribution over the directions of
    positive rate (the profile's own static array when every rate is
    positive) with value equal to their trace.  ``profile`` is the run's
    smoothness profile.  A False answer proves nothing: the caller solves
    the box.  Exact-gram intervals have zero width and never exit this
    way, so exact-gram mode always answers False.  Costs O(k log n) for k
    directions near the decision, amortised, and O(n) after a refresh.
    """
    if state.mode == CD_EXACT_GRAM:
        return False
    index = state.exit_index
    if index is None or index.profile is not profile:
        index = state.exit_index = _ExitIndex(state, profile)
    return index.proves(state)


# Past this many alive directions, or exact checks in one call, the dense
# solve decides.
_ALIVE_CAP = 64
_CHECK_CAP = 64
# Relative slack on the heap's bound, far above its few ulp of rounding.
_SLACK = 2.0**-47


class _ExitIndex:
    """What ``uninformative`` needs to decide the exit in O(k log n).

    With t = magnitude bound / sqrt(L), the solve returns the static
    distribution when max t^l <= min t^u and no moving direction has a zero
    upper bound.  Under path clocks t^u_j = a_j + r_j * (P - s_j), with a_j =
    |c_j| / sqrt(L_j) and r_j = rates[j] / sqrt(L_j), and t^l_j > 0 only
    while |c_j| exceeds its width.

    - ``alive`` holds every direction whose |c_j| may still exceed its
      width.  A width only grows between collapses, so a direction that
      drops out stays out until it is collapsed again.  max t^l comes from
      this set.
    - One lazy min-heap keeps a key a_j - r_min * s_j per observed moving
      direction, with r_min the smallest r_j.  Since s_j <= P, its smallest
      key plus r_min * P bounds min t^u from below, and a collapse only
      pushes one entry.  An entry whose key no longer matches ``keys[j]`` is
      stale; stale entries only lower the bound and are dropped when they
      surface.
    - A direction collapsed onto exactly 0 at the current clock has a zero
      upper bound until the clock moves, which the solve masks out.  Its key
      is -r_min * P, the smallest there is, so the walk always reaches it,
      also when max t^l is 0.
    - A key cancels a_j against r_min * s_j (after an exact line search a_j
      is near 1e-16), so the bound is only good to a few ulp of r_min * P.
      Every entry whose bound lies within ``_SLACK`` of max t^l is therefore
      checked exactly, with the operations the dense box and solve perform.
    """

    def __init__(self, state: TrackerState, profile: LipschitzProfile):
        self.profile = profile
        sqrt_l = profile.sqrt_values
        self.moving = state.rates > 0.0
        self.any_moving = bool(self.moving.any())
        if self.any_moving:
            self.r_min = float(np.min(state.rates[self.moving] / sqrt_l[self.moving]))
        # Python copies for the scalar work of one step.
        self.rates = state.rates.tolist()
        self.sqrt_l = sqrt_l.tolist()
        self.limit = 2 * state.n + 64
        self.reset(state)

    def reset(self, state: TrackerState) -> None:
        """Start over from the state's arrays; the heap is rebuilt when
        next needed."""
        self.alive = set(np.flatnonzero(state.centre != 0.0).tolist())
        self.stale = True

    def _rebuild(self, state: TrackerState) -> None:
        since = state.since
        idx = np.flatnonzero(self.moving & (since > -np.inf))
        keys = np.abs(state.centre[idx]) / self.profile.sqrt_values[idx]
        keys -= self.r_min * since[idx]
        every = np.full(state.n, np.inf)
        every[idx] = keys
        self.keys = every.tolist()
        # A sorted list is a heap.
        order = np.argsort(keys, kind="stable")
        self.heap = list(zip(keys[order].tolist(), idx[order].tolist()))
        self.stale = False

    def collapse(self, state: TrackerState, index: int, value: float) -> None:
        if value != 0.0:
            self.alive.add(index)
        if self.stale or self.rates[index] == 0.0:
            return
        key = abs(value) / self.sqrt_l[index] - self.r_min * state.clock
        self.keys[index] = key
        heapq.heappush(self.heap, (key, index))
        if len(self.heap) > self.limit:
            self.stale = True

    def proves(self, state: TrackerState) -> bool:
        clock, centre, since = state.clock, state.centre, state.since
        if len(self.alive) > _ALIVE_CAP:
            idx = np.fromiter(self.alive, np.int64, len(self.alive))
            keep = np.abs(centre[idx]) > _widths(state, idx)
            self.alive = set(idx[keep].tolist())
            if len(self.alive) > _ALIVE_CAP:
                return False
        if not self.any_moving:
            return False  # every upper bound is 0: the solve raises
        # max t^l, exactly as the dense box and solve compute it.
        rates, sqrt_l = self.rates, self.sqrt_l
        top = 0.0
        dead = []
        for j in self.alive:
            excess = abs(centre.item(j)) - (clock - since.item(j)) * rates[j]
            if excess <= 0.0:
                dead.append(j)
            elif rates[j] == 0.0:
                return False  # a zero-rate direction off 0: no static answer
            elif excess / sqrt_l[j] > top:
                top = excess / sqrt_l[j]
        self.alive.difference_update(dead)
        if self.stale:
            self._rebuild(state)
        return self._uppers_reach(state, top)

    def _uppers_reach(self, state: TrackerState, top: float) -> bool:
        """Whether every t^u of a moving direction is positive and at least
        ``top``."""
        clock, centre, since = state.clock, state.centre, state.since
        heap, keys, rates, sqrt_l = self.heap, self.keys, self.rates, self.sqrt_l
        while heap and heap[0][0] != keys[heap[0][1]]:
            heapq.heappop(heap)  # stale
        shift = self.r_min * clock
        limit = top + _SLACK * (top + shift)
        checks = 0
        # Visit the entries within the limit in place: a node past it has no
        # child within it.
        size = len(heap)
        nodes = [0] if size else []
        while nodes:
            node = nodes.pop()
            key, j = heap[node]
            if key + shift > limit:
                continue
            if key == keys[j]:
                checks += 1
                upper = abs(centre.item(j)) + (clock - since.item(j)) * rates[j]
                t_upper = upper / sqrt_l[j]
                if t_upper < top or t_upper == 0.0 or checks > _CHECK_CAP:
                    return False
            child = 2 * node + 1
            if child < size:
                nodes.append(child)
                if child + 1 < size:
                    nodes.append(child + 1)
        return True
