import numpy as np
import pytest

from adasamp import glm, solvers, tracker
from adasamp.data import SparseDesign, synthetic_ridge_benchmark
from adasamp.sampling import compute_safe_sampling, optimal_sampling

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
        np.testing.assert_allclose(state.gram, [[1.0, 1.0], [1.0, 1.0]])

    def test_gram_requires_square_loss(self):
        problem = make_problem(loss="logistic")
        with pytest.raises(ValueError):
            tracker.init_tracker(problem, tracker.CD_EXACT_GRAM)

    def test_gram_memory_gate(self):
        problem = make_problem(d=8, n=6, lam=0.0)
        with pytest.raises(ValueError):
            tracker.init_tracker(problem, tracker.CD_EXACT_GRAM, gram_limit=5)

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

    def test_unobserved_coordinates_keep_widening(self):
        problem = make_problem(d=10, n=4, lam=0.0, seed=3)
        cd_state = glm.CdState(problem)
        track = tracker.init_tracker(problem, tracker.CD_EXACT_GRAM)
        cd_state.apply_step(0, 0.7)
        observed = glm.smooth_coordinate_gradient(problem, cd_state, 0)
        tracker.cd_update(track, 0, 0.7, observed)
        assert track.exact_mask[0]
        assert not track.exact_mask[1]
        assert np.isinf(track.upper[1])


class TestSgdUpdate:
    def test_zero_step_only_collapses_active(self):
        problem = make_problem(d=5, n=4, lam=0.0)
        state = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        tracker.sgd_update(state, 2, 0.0, 0.0, -1.5)
        assert state.lower[2] == state.upper[2] == -1.5
        assert state.exact_mask[2]
        assert state.lower[0] == -np.inf and state.upper[0] == np.inf
        box = tracker.sampling_box(state)
        norm = problem.design.row_norms[2]
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
        tracker.refresh_exact(track, glm.all_component_derivatives(problem, x))
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
        # has norm 0, so no step moves its derivative h'(0) = -1: it keeps
        # its exact interval, not 0 * inf = NaN.
        dense = 3.0 * np.random.default_rng(2).standard_normal((5, 4))
        dense[2] = 0.0
        problem = glm.GlmProblem(SparseDesign.from_matrix(dense), np.ones(5), "square", "l2", 0.1)
        state = tracker.init_tracker(problem, tracker.SGD_CAUCHY_SCHWARZ)
        tracker.refresh_exact(state, glm.all_component_derivatives(problem, np.ones(4)))
        tracker.sgd_update(state, 0, displacement, residual, 0.5)
        assert state.lower[2] == state.upper[2] == -1.0
        assert state.lower[0] == state.upper[0] == 0.5
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
        # only known to a signed interval and the L2 term t exactly.  The
        # magnitude box must be exactly the range of |s + t|.
        problem = make_problem(d=5, n=4, reg="l2", lam=0.7, seed=9)
        state = tracker.init_tracker(problem, tracker.CD_CAUCHY_SCHWARZ)
        for _ in range(200):
            lo = rng.uniform(-2.0, 2.0, 4)
            hi = lo + rng.uniform(0.0, 1.5, 4)
            t = rng.uniform(-2.0, 2.0, 4)
            state.lower[:] = lo + t
            state.upper[:] = hi + t
            box = tracker.sampling_box(state)
            for i in range(4):
                values = [abs(s + t[i]) for s in np.linspace(lo[i], hi[i], 25)]
                assert box.lower[i] <= min(values) + 1e-12
                assert box.upper[i] >= max(values) - 1e-12
                ends = (abs(state.lower[i]), abs(state.upper[i]))
                assert box.upper[i] == max(ends)
                straddles = state.lower[i] <= 0.0 <= state.upper[i]
                assert box.lower[i] == (0.0 if straddles else min(ends))

    @pytest.mark.parametrize("mode", [tracker.CD_CAUCHY_SCHWARZ, tracker.SGD_CAUCHY_SCHWARZ])
    def test_box_is_the_range_of_the_magnitude(self, rng, mode):
        # The magnitude box of a signed interval [lo, hi] is exactly the
        # smallest and largest |v| over v in [lo, hi] (times the row norm
        # for SGD), whatever the signs of the ends.
        problem = make_problem(d=5, n=4, reg="l2", lam=0.7, seed=9)
        state = tracker.init_tracker(problem, mode)
        n = state.n
        scale = state.norms if mode == tracker.SGD_CAUCHY_SCHWARZ else np.ones(n)
        for _ in range(200):
            lo = rng.uniform(-2.0, 2.0, n)
            hi = lo + rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.8)
            unbounded = rng.random(n) < 0.1
            lo[unbounded], hi[unbounded] = -np.inf, np.inf
            state.lower[:] = lo
            state.upper[:] = hi
            box = tracker.sampling_box(state)
            for i in range(n):
                if unbounded[i]:
                    assert box.lower[i] == 0.0 and box.upper[i] == np.inf
                    continue
                values = np.abs(np.linspace(lo[i], hi[i], 101))
                smallest = 0.0 if lo[i] <= 0.0 <= hi[i] else values.min()
                assert box.lower[i] == smallest * scale[i]
                assert box.upper[i] == values.max() * scale[i]
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
        # Without any refresh a visited coordinate stays exact under the
        # exact-Gram shift and an unvisited one stays unbounded.
        design, labels = synthetic_ridge_benchmark(2, d=30, n=12)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
        visited = set()

        def audit(info):
            visited.add(info.index)
            state = info.tracker_state
            exact = np.zeros(problem.n_features, dtype=bool)
            exact[list(visited)] = True
            np.testing.assert_array_equal(state.exact_mask, exact)
            assert np.all(np.isinf(state.upper[~exact]))
            audit_cd_box(problem, info.cd_state, tracker.sampling_box(state), 1e-9)

        cfg = solvers.SolverConfig(
            method="cd", sampler="safe_adaptive", iterations=200, seed=2,
            tracker_mode=tracker.CD_EXACT_GRAM,
        )
        solvers.run(problem, cfg, callback=audit)
        assert len(visited) == problem.n_features
