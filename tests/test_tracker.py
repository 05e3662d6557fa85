import math
import time
from collections import Counter

import numpy as np
import pytest

from adasamp import glm, sampling, solvers, tracker
from adasamp.data import SparseDesign, synthetic_regression, synthetic_ridge_benchmark
from adasamp.sampling import LipschitzProfile, compute_safe_sampling, optimal_sampling

from conftest import make_problem


def audit_cd_box(problem, state, box, rtol=0.0):
    """Containment of every full coordinate gradient in the box, exact by
    default; ``rtol`` allows the rounding of exactly tracked values."""
    for i in range(problem.n_features):
        g = glm.smooth_coordinate_gradient(problem, state, i)
        if problem.reg == "l2" and problem.lam > 0.0:
            g = g + 2.0 * problem.lam * state.x[i]
        slack = rtol * (1.0 + abs(g))
        assert box.lower[i] - slack <= abs(g) <= box.upper[i] + slack, (
            i, box.lower[i], g, box.upper[i]
        )


class TestInit:
    def test_uninformative_start(self):
        problem = make_problem(d=6, n=3)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        np.testing.assert_array_equal(state.lower, np.full(3, -np.inf))
        np.testing.assert_array_equal(state.upper, np.full(3, np.inf))
        assert not state.exact_mask.any()
        box = tracker.sampling_box(state)
        np.testing.assert_array_equal(box.lower, np.zeros(3))
        np.testing.assert_array_equal(box.upper, np.full(3, np.inf))
        assert not box.exact_mask.any()

    def test_gram_table_for_duplicate_columns(self):
        design = np.zeros((3, 2))
        design[0, 0] = 1.0
        design[0, 1] = 1.0
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(design), np.zeros(3), "square", "l2", 0.0
        )
        state = tracker.init_tracker(problem, tracker.CD_EXACT_GRAM)
        np.testing.assert_allclose(state.gram.toarray(), [[1.0, 1.0], [1.0, 1.0]])

    def test_gram_requires_square_loss(self):
        problem = make_problem(loss="logistic")
        with pytest.raises(ValueError):
            tracker.init_tracker(problem, tracker.CD_EXACT_GRAM)

    def test_gram_memory_gate(self):
        # One full row of 20001 features makes A^T A dense and one entry
        # wider than the largest table accepted; the guard refuses it from
        # the row lengths, before the product is formed.
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(np.ones((1, 20001))), np.zeros(1), "square", "l2", 0.0
        )
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cd_cauchy_schwarz"):
            tracker.init_tracker(problem, tracker.CD_EXACT_GRAM)
        assert time.perf_counter() - start < 0.5

    def test_zero_norm_directions_start_pinned(self):
        design = np.zeros((3, 2))
        design[:, 0] = 1.0
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(design), np.ones(3), "square", "l1", 0.0
        )
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        assert state.upper[1] == 0.0
        assert state.upper[0] == np.inf

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tracker.init_tracker(make_problem(), "bogus")


class TestCdUpdate:
    def test_zero_displacement_only_collapses_active(self):
        problem = make_problem(d=6, n=4, lam=0.0)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        tracker.cd_update(state, 1, 0.0, -2.5)
        assert state.lower[1] == state.upper[1] == -2.5
        assert state.exact_mask[1]
        assert state.upper[0] == np.inf and state.lower[0] == -np.inf
        box = tracker.sampling_box(state)
        assert box.lower[1] == box.upper[1] == 2.5
        assert box.exact_mask[1]
        assert box.lower[0] == 0.0 and box.upper[0] == np.inf

    def test_cauchy_schwarz_safety_random_steps(self, rng):
        problem = make_problem(d=5, n=5, lam=0.0, seed=13)
        state = glm.CdState(problem)
        track = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        for _ in range(100):
            i = int(rng.integers(problem.n_features))
            delta = float(rng.standard_normal())
            state.apply_step(i, delta)
            observed = glm.smooth_coordinate_gradient(problem, state, i)
            tracker.cd_update(track, i, delta, observed)
            audit_cd_box(problem, state, tracker.sampling_box(track))

    def test_l2_combination_safety(self, rng):
        problem = make_problem(d=8, n=6, reg="l2", lam=0.3, seed=4)
        state = glm.CdState(problem)
        track = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        for _ in range(200):
            i = int(rng.integers(problem.n_features))
            delta = float(0.3 * rng.standard_normal())
            state.apply_step(i, delta)
            observed = glm.coordinate_gradient(problem, state, i)
            tracker.cd_update(track, i, delta, observed)
            audit_cd_box(problem, state, tracker.sampling_box(track))

    def test_widening_is_monotone(self, rng):
        problem = make_problem(d=6, n=5, lam=0.0, seed=2)
        track = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        tracker.refresh_exact(track, rng.standard_normal(problem.n_features))
        before_lower = track.lower.copy()
        before_upper = track.upper.copy()
        tracker.cd_update(track, 2, 0.5, 0.1)
        others = np.arange(problem.n_features) != 2
        assert np.all(track.lower[others] <= before_lower[others])
        assert np.all(track.upper[others] >= before_upper[others])

    def test_wrong_mode_rejected(self):
        problem = make_problem()
        state = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        with pytest.raises(ValueError):
            tracker.cd_update(state, 0, 0.1, 0.0)


class TestGramMode:
    def test_exact_after_full_sweep_from_true_gradient(self):
        # The tracked values are the signed whole gradients, L2 term included.
        for lam in (0.0, 0.3):
            problem = make_problem(d=10, n=6, lam=lam, seed=17)
            cd_state = glm.CdState(problem)
            track = tracker.init_tracker(problem, tracker.CD_EXACT_GRAM)
            tracker.refresh_exact(track, glm.full_gradient(problem, cd_state))
            rng = np.random.default_rng(0)
            for step in range(60):
                i = step % problem.n_features
                delta = float(0.2 * rng.standard_normal())
                cd_state.apply_step(i, delta)
                observed = glm.coordinate_gradient(problem, cd_state, i)
                tracker.cd_update(track, i, delta, observed)
                assert track.exact_mask.all()
                truth = glm.full_gradient(problem, cd_state)
                np.testing.assert_allclose(track.upper, truth, rtol=1e-9, atol=1e-12)
                box = tracker.sampling_box(track)
                assert box.exact_mask.all()
                np.testing.assert_array_equal(box.upper, np.abs(track.upper))

    def test_starts_exact_and_stays_exact(self):
        # No refresh: init_tracker already holds the whole gradient at x = 0
        # in one array, and every step keeps all of it exact.
        for lam in (0.0, 0.3):
            problem = make_problem(d=10, n=4, lam=lam, seed=3)
            cd_state = glm.CdState(problem)
            track = tracker.init_tracker(problem, tracker.CD_EXACT_GRAM)
            rng = np.random.default_rng(1)
            for step in range(41):
                if step:
                    i = int(rng.integers(problem.n_features))
                    delta = float(0.5 * rng.standard_normal())
                    cd_state.apply_step(i, delta)
                    observed = glm.coordinate_gradient(problem, cd_state, i)
                    tracker.cd_update(track, i, delta, observed)
                assert track.exact_mask.all()
                np.testing.assert_array_equal(track.lower, track.upper)
                assert np.isfinite(track.upper).all()
                g = glm.full_gradient(problem, cd_state)
                assert np.all(np.abs(track.upper - g) <= 1e-9 * (1.0 + np.abs(g)))


class TestSgdUpdate:
    def test_zero_step_only_collapses_active(self):
        problem = make_problem(d=5, n=4, lam=0.0)
        state = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        tracker.sgd_update(state, 2, 0.0, 0.0, -1.5)
        norm = problem.design.row_norms[2]
        assert state.lower[2] == state.upper[2] == -1.5 * norm
        assert state.exact_mask[2]
        assert state.lower[0] == -np.inf and state.upper[0] == np.inf
        box = tracker.sampling_box(state)
        assert box.lower[2] == box.upper[2] == 1.5 * norm
        assert box.exact_mask[2]
        assert box.lower[0] == 0.0 and box.upper[0] == np.inf

    def test_safety_on_dense_steps(self, rng):
        problem = make_problem(d=8, n=5, lam=0.0, seed=6)
        x = np.zeros(problem.n_features)
        track = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        for _ in range(150):
            i = int(rng.integers(problem.n_samples))
            coeff = float(0.2 * rng.standard_normal())
            idx, vals = problem.design.row(i)
            x[idx] += coeff * vals
            observed = glm.component_derivative(problem, x, i)
            tracker.sgd_update(track, i, coeff, 0.0, observed)
            box = tracker.sampling_box(track)
            for j in range(problem.n_samples):
                norm = glm.component_gradient_norm(problem, x, j)
                assert box.lower[j] <= norm <= box.upper[j]

    def test_prox_residual_widens(self, rng):
        problem = make_problem(d=8, n=5, reg="l1", lam=0.5, seed=6)
        x = rng.standard_normal(problem.n_features)
        track = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        thetas = glm.all_component_derivatives(problem, x)
        tracker.refresh_exact(track, thetas * problem.design.row_norms)
        eta = 0.05
        i = 1
        theta = glm.component_derivative(problem, x, i)
        coeff = -eta * theta
        idx, vals = problem.design.row(i)
        interim = x.copy()
        interim[idx] += coeff * vals
        x_new = np.asarray(glm.prox_step("l1", problem.lam, eta, interim))
        residual = float(np.linalg.norm(interim - x_new))
        assert residual == pytest.approx(
            float(np.linalg.norm((x + coeff * problem.design.toarray()[i]) - x_new)),
            rel=1e-12,
        )
        tracker.sgd_update(track, i, coeff, residual, glm.component_derivative(problem, x_new, i))
        box = tracker.sampling_box(track)
        for j in range(problem.n_samples):
            norm = glm.component_gradient_norm(problem, x_new, j)
            assert box.lower[j] <= norm <= box.upper[j]

    def test_negative_residual_rejected(self):
        problem = make_problem()
        state = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        with pytest.raises(ValueError):
            tracker.sgd_update(state, 0, 0.1, -1.0, 0.0)

    @pytest.mark.parametrize(
        "displacement, residual",
        [(np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan), (0.1, np.inf), (-np.inf, 1.0)],
    )
    def test_non_finite_step_rejected(self, displacement, residual):
        problem = make_problem()
        state = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        with pytest.raises(ValueError):
            tracker.sgd_update(state, 0, displacement, residual, 0.0)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("displacement, residual", [(1e308, 0.0), (1e308, 1e308)])
    def test_overflowing_step_keeps_empty_row_exact(self, displacement, residual):
        # |displacement| * ||a_0|| + residual overflows.  The empty row 2
        # has norm 0, so no step moves its value h'(0) * 0 = 0: it keeps
        # its exact interval, not 0 * inf = NaN.
        dense = 3.0 * np.random.default_rng(2).standard_normal((5, 4))
        dense[2] = 0.0
        problem = glm.GlmProblem(SparseDesign.from_matrix(dense), np.ones(5), "square", "l2", 0.1)
        state = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        norms = problem.design.row_norms
        thetas = glm.all_component_derivatives(problem, np.ones(4))
        assert thetas[2] == -1.0
        tracker.refresh_exact(state, thetas * norms)
        tracker.sgd_update(state, 0, displacement, residual, 0.5)
        assert state.lower[2] == state.upper[2] == 0.0
        assert state.lower[0] == state.upper[0] == 0.5 * norms[0]
        for j in (1, 3, 4):
            assert state.lower[j] == -np.inf and state.upper[j] == np.inf
        box = tracker.sampling_box(state)
        assert box.lower[2] == box.upper[2] == 0.0

    @pytest.mark.parametrize("loss", ["square", "logistic", "squared_hinge"])
    def test_l1_solver_run_contains_true_norms(self, loss):
        # Criterion 7 audits L2 SGD; this audits the lazy L1 prox, whose
        # residual is a bound, at every step and on every row, exactly.
        problem = make_problem(d=40, n=15, loss=loss, reg="l1", lam=0.05, seed=11)
        checked = [0]

        def audit(info):
            box = tracker.sampling_box(info.tracker_state)
            for j in range(problem.n_samples):
                norm = glm.component_gradient_norm(problem, info.x, j)
                assert box.lower[j] <= norm <= box.upper[j]
            checked[0] += 1

        cfg = solvers.SolverConfig(
            method="sgd", sampler="safe_adaptive", iterations=2000, seed=1,
            stepsize_mode="constant", stepsize_value=0.1,
        )
        solvers.run(problem, cfg, callback=audit)
        assert checked[0] == 2000


class TestObserveAndRefresh:
    # A zero-displacement cd_update widens nothing and only collapses the
    # active interval onto its observed value.
    def test_observe_exact(self):
        problem = make_problem(d=5, n=3, lam=0.0)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        tracker.cd_update(state, 0, 0.0, 3.5)
        assert state.lower[0] == state.upper[0] == 3.5
        assert state.exact_mask[0]

    def test_observe_then_widen(self):
        problem = make_problem(d=5, n=3, lam=0.0)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        tracker.cd_update(state, 0, 0.0, 3.5)
        tracker.cd_update(state, 1, 1.0, 0.2)
        delta = (
            problem.loss.curvature_sup
            * problem.design.column_norms[0]
            * problem.design.column_norms[1]
        )
        assert state.lower[0] == pytest.approx(max(0.0, 3.5 - delta), rel=1e-12)
        assert state.upper[0] == pytest.approx(3.5 + delta, rel=1e-12)
        assert not state.exact_mask[0]

    def test_observed_zero_excluded_from_sampling(self):
        problem = make_problem(d=5, n=3, lam=0.0)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        tracker.cd_update(state, 1, 0.0, 0.0)
        profile = glm.coordinate_lipschitz(problem)
        solution = compute_safe_sampling(tracker.sampling_box(state), profile)
        assert solution.probabilities[1] == 0.0

    def test_refresh_collapses_everything(self, rng):
        problem = make_problem(d=6, n=5, lam=0.0)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        values = rng.standard_normal(problem.n_features)
        tracker.refresh_exact(state, values)
        assert np.array_equal(state.lower, values)
        assert np.array_equal(state.upper, values)
        assert state.exact_mask.all()
        box = tracker.sampling_box(state)
        assert np.array_equal(box.lower, np.abs(values))
        assert np.array_equal(box.upper, np.abs(values))
        assert box.exact_mask.all()

    def test_refresh_matches_optimal_sampling(self, rng):
        problem = make_problem(d=12, n=6, lam=0.0, seed=31)
        cd_state = glm.CdState(problem, rng.standard_normal(problem.n_features))
        track = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        grad = glm.full_smooth_gradient(problem, cd_state)
        tracker.refresh_exact(track, grad)
        profile = glm.coordinate_lipschitz(problem)
        solution = compute_safe_sampling(tracker.sampling_box(track), profile)
        p_ref, alpha_ref = optimal_sampling(np.abs(grad), profile)
        np.testing.assert_allclose(solution.probabilities, p_ref, rtol=1e-12)
        assert solution.stepsize == pytest.approx(alpha_ref, rel=1e-12)


class TestCombinedL2Box:
    def test_interval_arithmetic_against_enumeration(self, rng):
        # The tracker holds the whole gradient s + t, where the loss term s is
        # only known to a signed interval and the L2 term t exactly: one
        # path-clock interval centred on the loss term's centre plus t.  The
        # magnitude box must be exactly the range of |v| over that interval.
        problem = make_problem(d=5, n=4, reg="l2", lam=0.7, seed=9)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        assert np.all(state.rates > 0.0)
        for _ in range(200):
            t = rng.uniform(-2.0, 2.0, 4)
            state.centre[:] = rng.uniform(-2.0, 2.0, 4) + t
            state.clock = 5.0
            state.since[:] = 5.0 - rng.uniform(0.0, 0.75, 4) / state.rates
            lower, upper = state.lower, state.upper
            box = tracker.sampling_box(state)
            for i in range(4):
                values = [abs(v) for v in np.linspace(lower[i], upper[i], 25)]
                assert box.lower[i] <= min(values) + 1e-12
                assert box.upper[i] >= max(values) - 1e-12
                ends = (abs(lower[i]), abs(upper[i]))
                assert box.upper[i] == max(ends)
                straddles = lower[i] <= 0.0 <= upper[i]
                assert box.lower[i] == (0.0 if straddles else min(ends))

    @pytest.mark.parametrize("mode", [tracker.CD_CAUCHY_SCHWARZ, tracker.SGD_CAUCHY_SCHWARZ])
    def test_box_is_the_range_of_the_magnitude(self, rng, mode):
        # The magnitude box of a signed interval [lo, hi] is exactly the
        # smallest and largest |v| over v in [lo, hi], whatever the signs
        # of the ends.  Both modes store the scored signed value itself.
        problem = make_problem(d=5, n=4, reg="l2", lam=0.7, seed=9)
        state = tracker.init_tracker(problem, mode)
        n = state.n
        assert np.all(state.rates > 0.0)
        for _ in range(200):
            state.centre[:] = rng.uniform(-2.0, 2.0, n)
            state.clock = 10.0
            span = rng.uniform(0.0, 1.5, n) / state.rates * (rng.random(n) < 0.8)
            state.since[:] = state.clock - span
            unbounded = rng.random(n) < 0.1
            state.since[unbounded] = -np.inf
            lo, hi = state.lower, state.upper
            box = tracker.sampling_box(state)
            for i in range(n):
                if unbounded[i]:
                    assert lo[i] == -np.inf and hi[i] == np.inf
                    assert box.lower[i] == 0.0 and box.upper[i] == np.inf
                    continue
                values = np.abs(np.linspace(lo[i], hi[i], 101))
                smallest = 0.0 if lo[i] <= 0.0 <= hi[i] else values.min()
                assert box.lower[i] == smallest
                assert box.upper[i] == values.max()
                assert box.exact_mask[i] == (lo[i] == hi[i])


class TestContainmentUnderSolverRuns:
    @pytest.mark.parametrize(
        "mode, loss, refresh",
        [
            (tracker.CD_CAUCHY_SCHWARZ, "square", 7),
            (tracker.CD_CAUCHY_SCHWARZ, "logistic", 7),
            (tracker.CD_CAUCHY_SCHWARZ, "logistic", 1),
            (tracker.CD_EXACT_GRAM, "square", 7),
            (tracker.CD_EXACT_GRAM, "square", 1),
        ],
    )
    def test_l2_with_refresh(self, mode, loss, refresh):
        # Under L2 the tracked value is the whole gradient, loss term plus
        # 2 lambda x_i, both after an observation and after a refresh.  A
        # refresh computes it as one product A^T h', the audit column by
        # column, so the two agree to rounding only; exact-Gram shifts add
        # the rounding of every step since the last refresh.
        problem = make_problem(d=16, n=8, loss=loss, reg="l2", lam=0.3, seed=21)
        rtol = 1e-9 if mode == tracker.CD_EXACT_GRAM else 1e-12
        checked = [0]

        def audit(info):
            audit_cd_box(problem, info.cd_state, tracker.sampling_box(info.tracker_state), rtol)
            checked[0] += 1

        cfg = solvers.SolverConfig(
            method="cd", sampler="safe_adaptive", iterations=300, seed=5,
            tracker_mode=mode, refresh_interval=refresh,
        )
        trace = solvers.run(problem, cfg, callback=audit)
        # A run may stop early once every gradient is observed to be 0.
        assert checked[0] == trace.rows[-1].iteration >= 200

    def test_exact_gram_without_refresh_stays_exact(self):
        # Without any refresh every interval, visited or not, has zero width
        # from init on and stays at the recomputed whole gradient.
        design, labels = synthetic_ridge_benchmark(2, d=30, n=12)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
        checked = [0]

        def audit_state(state, cd_state):
            assert state.exact_mask.all()
            np.testing.assert_array_equal(state.lower, state.upper)
            assert np.isfinite(state.upper).all()
            g = glm.full_gradient(problem, cd_state)
            assert np.all(np.abs(state.upper - g) <= 1e-9 * (1.0 + np.abs(g)))
            checked[0] += 1

        audit_state(tracker.init_tracker(problem, tracker.CD_EXACT_GRAM), glm.CdState(problem))
        cfg = solvers.SolverConfig(
            method="cd", sampler="safe_adaptive", iterations=200, seed=2,
            tracker_mode=tracker.CD_EXACT_GRAM,
        )
        solvers.run(
            problem, cfg, callback=lambda info: audit_state(info.tracker_state, info.cd_state)
        )
        assert checked[0] == 201

    def test_exact_gram_at_width_25000(self):
        # Wider than any dense table allowed: the sparse A^T A keeps every
        # coordinate exact at the recomputed whole gradient.
        design, labels = synthetic_regression(300, 25000, 1, density=0.002)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.01)
        states = []

        def audit(info):
            state = info.tracker_state
            states.append(state)
            g = glm.full_gradient(problem, info.cd_state)
            assert state.exact_mask.all()
            assert np.all(np.abs(state.lower - g) <= 1e-9 * (1.0 + np.abs(g)))

        cfg = solvers.SolverConfig(
            method="cd", sampler="safe_adaptive", iterations=300, seed=3,
            tracker_mode=tracker.CD_EXACT_GRAM,
        )
        solvers.run(problem, cfg, callback=audit)
        assert len(states) == 300
        csc = design.csc
        assert states[-1].gram.nnz == (csc.T @ csc).nnz


def _problem_with_empty_directions(loss, reg, seed):
    """A dense problem whose column 3 and row 5 are empty: a CD and an SGD
    direction of rate 0, whose gradient is provably zero."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((40, 15)) / np.sqrt(40)
    dense[:, 3] = 0.0
    dense[5] = 0.0
    if loss == "square":
        labels = dense @ rng.standard_normal(15) + 0.1 * rng.standard_normal(40)
    else:
        labels = np.where(rng.standard_normal(40) >= 0.0, 1.0, -1.0)
    return glm.GlmProblem(SparseDesign.from_matrix(dense), labels, loss, reg, 0.05)


class TestUninformativeExit:
    """``tracker.uninformative`` replayed against the dense solve of the
    materialised box at every step of Cauchy-Schwarz runs: it proves
    exactly the steps on which the solve takes the exit."""

    @staticmethod
    def replay(monkeypatch, problem, callback=None, **config):
        counts = [0, 0]
        original = tracker.uninformative

        def checked(state, profile):
            answer = original(state, profile)
            counts[answer] += 1
            box = tracker.sampling_box(state)
            _, p, v = sampling._solve_box(box.lower, box.upper, profile)
            moving = state.rates > 0.0
            if moving.all():
                expected, trace = profile.static_probabilities, profile.trace
            else:
                expected, trace = sampling.masked_static(profile, moving)
            assert answer == (np.array_equal(p, expected) and v == trace)
            return answer

        monkeypatch.setattr(tracker, "uninformative", checked)
        config = dict(sampler="safe_adaptive", iterations=600, seed=4, **config)
        solvers.run(problem, solvers.SolverConfig(**config), callback=callback)
        return counts

    @pytest.mark.parametrize("refresh", [None, 7])
    @pytest.mark.parametrize("reg", ["l1", "l2"])
    @pytest.mark.parametrize("loss", ["square", "logistic", "squared_hinge"])
    @pytest.mark.parametrize("method", ["cd", "sgd"])
    def test_every_proven_exit_is_the_dense_answer(self, monkeypatch, method, loss, reg, refresh):
        problem = make_problem(d=40, n=15, loss=loss, reg=reg, lam=0.05, seed=8)
        sgd = dict(stepsize_mode="constant", stepsize_value=0.5) if method == "sgd" else {}
        unproven, proven = self.replay(
            monkeypatch, problem, method=method, refresh_interval=refresh, **sgd
        )
        assert unproven + proven == 600
        assert proven > 0

    @pytest.mark.parametrize("method", ["cd", "sgd"])
    @pytest.mark.parametrize("loss", ["square", "logistic"])
    def test_empty_direction_exits_to_the_masked_distribution(self, monkeypatch, method, loss):
        problem = _problem_with_empty_directions(loss, "l2", seed=3)
        sgd = dict(stepsize_mode="constant", stepsize_value=0.05) if method == "sgd" else {}
        seen = []
        _, proven = self.replay(
            monkeypatch, problem, callback=lambda info: seen.append(info.probabilities),
            method=method, **sgd
        )
        assert proven > 0
        # The empty direction is never drawn, and every proven step hands
        # out the one masked array built for the run.
        empty = 3 if method == "cd" else 5
        assert len(seen) == 600 and all(p[empty] == 0.0 for p in seen)
        assert max(Counter(id(p) for p in seen).values()) == proven

    def test_exact_gram_never_claims_the_exit(self):
        design, labels = synthetic_ridge_benchmark(0, d=20, n=10)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
        state = tracker.init_tracker(problem, tracker.CD_EXACT_GRAM)
        assert not tracker.uninformative(state, glm.coordinate_lipschitz(problem))

    def test_transient_zero_takes_the_dense_path(self):
        # An observed gradient of exactly 0.0 is a zero upper bound until the
        # next step moves the clock; the solve masks it out, so the check
        # must not claim the plain static answer meanwhile.
        problem = make_problem(d=6, n=4, lam=0.0)
        profile = glm.coordinate_lipschitz(problem)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        assert tracker.uninformative(state, profile)
        tracker.cd_update(state, 1, 0.0, 0.0)
        assert not tracker.uninformative(state, profile)
        assert compute_safe_sampling(tracker.sampling_box(state), profile).probabilities[1] == 0.0
        tracker.cd_update(state, 2, 0.25, 1e-12)
        assert tracker.sampling_box(state).upper[1] > 0.0
        assert tracker.uninformative(state, profile)

    def test_rounding_of_the_keys_is_covered_by_exact_checks(self):
        # At clock 1000 a key a_j - r_min * s_j keeps a_j only to one ulp of
        # 1000 (1.1e-13).  Direction 0 holds 0.6 ulp, so its key rounds up
        # and its bound reads 1 ulp; direction 1 holds 0.9 ulp, the largest
        # lower bound.  The box is informative (t^u_0 < t^l_1), and only the
        # exact check of entries within the slack can see it.
        n = 3
        ulp = math.ulp(1000.0)
        profile = LipschitzProfile(np.ones(n))
        state = tracker.TrackerState(
            mode=tracker.CD_CAUCHY_SCHWARZ,
            centre=np.zeros(n),
            since=np.full(n, -np.inf),
            norms=np.ones(n),
            rates=np.ones(n),
            clock=1000.0,
        )
        tracker.cd_update(state, 0, 0.0, 0.6 * ulp)
        tracker.cd_update(state, 1, 0.0, 0.9 * ulp)
        assert (0.6 * ulp - 1000.0) + 1000.0 > 0.9 * ulp
        box = tracker.sampling_box(state)
        assert compute_safe_sampling(box, profile).value < profile.trace
        assert not tracker.uninformative(state, profile)

    def test_compaction_keeps_an_early_entry(self):
        # Direction 0 is collapsed once, early, onto a small centre at the
        # slowest rate.  2n + 64 collapses of the others onto 1 follow, with
        # keys above direction 0's, then twice as many onto 1e-9, with keys
        # below it, and the last collapse leaves direction 1 alive at t^l =
        # 1.  t^u_0 = 0.01 + 1e-3 * P stays below 1, so the box is
        # informative: a heap grown past its limit must be rebuilt from the
        # arrays, not cut.
        n = 32
        limit = 2 * n + 64
        profile = LipschitzProfile(np.ones(n))
        rates = np.ones(n)
        rates[0] = 1e-3
        state = tracker.TrackerState(
            mode=tracker.CD_CAUCHY_SCHWARZ,
            centre=np.zeros(n),
            since=np.full(n, -np.inf),
            norms=np.ones(n),
            rates=rates,
        )
        assert tracker.uninformative(state, profile)
        tracker.cd_update(state, 0, 0.0, 0.01)
        for step in range(3 * limit):
            tracker.cd_update(state, 1 + step % (n - 1), 1.0, 1.0 if step < limit else 1e-9)
        tracker.cd_update(state, 1, 1.0, 1.0)
        box = tracker.sampling_box(state)
        assert box.upper[0] < box.lower[1]
        assert compute_safe_sampling(box, profile).value < profile.trace
        assert not tracker.uninformative(state, profile)

    def test_cost_of_a_proven_exit_does_not_grow_with_n(self):
        # One collapse and one check per step, with the rest of the
        # intervals unobserved or long since widened: compare n = 10^3 and
        # n = 10^5 on the best of five repeats.
        def per_step(n):
            rates = np.linspace(0.5, 1.0, n)
            profile = LipschitzProfile(np.linspace(1.0, 2.0, n))
            state = tracker.TrackerState(
                mode=tracker.CD_CAUCHY_SCHWARZ,
                centre=np.zeros(n),
                since=np.full(n, -np.inf),
                norms=rates.copy(),
                rates=rates,
            )
            rng = np.random.default_rng(0)
            picks = rng.integers(n, size=2000).tolist()
            best = np.inf
            for _ in range(5):
                start = time.perf_counter()
                for i in picks:
                    tracker.cd_update(state, i, 1e-3, 1e-16)
                    assert tracker.uninformative(state, profile)
                best = min(best, time.perf_counter() - start)
            return best

        assert per_step(100_000) < 3.0 * per_step(1_000)


class TestStrictSafetyOfTheClock:
    def test_tiny_steps_on_a_large_clock_stay_contained(self, rng):
        # At P = 1e3 one ulp of the clock is 1.1e-13, so steps of length
        # 1e-14 would vanish from a clock summed with plain rounding.  The
        # clock rounds up instead, and every interval must contain the
        # recomputed gradient with zero slack.
        problem = make_problem(d=8, n=6, reg="l2", lam=0.3, seed=4)
        state = glm.CdState(problem)
        track = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        track.clock = 1000.0
        for i in range(problem.n_features):
            tracker.cd_update(track, i, 0.0, glm.coordinate_gradient(problem, state, i))
        assert track.exact_mask.all()
        norms = problem.design.column_norms
        for _ in range(300):
            i = int(rng.integers(problem.n_features))
            delta = float(rng.choice([-1.0, 1.0]) * 1e-14 / norms[i])
            state.apply_step(i, delta)
            tracker.cd_update(track, i, delta, glm.coordinate_gradient(problem, state, i))
            audit_cd_box(problem, state, tracker.sampling_box(track))
        assert 1000.0 < track.clock < 1000.0 + 1e-10
