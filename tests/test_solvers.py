import subprocess
import sys

import numpy as np
import pytest

from adasamp import glm, solvers, tracker
from adasamp.data import (
    SparseDesign,
    synthetic_outlier_regression,
    synthetic_ridge_benchmark,
)
from adasamp.oracle import expected_progress_check
from adasamp.sampling import (
    compute_safe_sampling,
    draw_index,
    fixed_li_sampling,
    optimal_sampling,
)

from conftest import make_problem


class TestSolverConfig:
    def test_defaults(self):
        cfg = solvers.SolverConfig(method="cd", sampler="uniform", epochs=2)
        assert cfg.stepsize_mode == "big_adaptive"
        cfg = solvers.SolverConfig(method="sgd", sampler="uniform", epochs=2, mu=1.0)
        assert cfg.stepsize_mode == "inv_mu_k"

    def test_safe_adaptive_tracker_defaulting(self):
        cfg = solvers.SolverConfig(method="cd", sampler="safe_adaptive", epochs=1)
        assert cfg.tracker_mode == tracker.CD_CAUCHY_SCHWARZ
        cfg = solvers.SolverConfig(method="sgd", sampler="safe_adaptive", epochs=1)
        assert cfg.tracker_mode == tracker.SGD_CAUCHY_SCHWARZ

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="gd", sampler="uniform", epochs=1),
            dict(method="cd", sampler="best", epochs=1),
            dict(method="cd", sampler="uniform"),
            dict(method="cd", sampler="uniform", epochs=1, iterations=5),
            dict(method="cd", sampler="uniform", epochs=0),
            dict(method="cd", sampler="uniform", epochs=1, stepsize_mode="inv_mu_k"),
            dict(method="sgd", sampler="uniform", epochs=1, stepsize_mode="constant"),
            dict(method="cd", sampler="safe_adaptive", epochs=1,
                 tracker_mode=tracker.SGD_CAUCHY_SCHWARZ),
            dict(method="cd", sampler="uniform", epochs=1,
                 tracker_mode=tracker.CD_CAUCHY_SCHWARZ),
            dict(method="cd", sampler="uniform", epochs=1, refresh_interval=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            solvers.SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(stepsize_mode="constant", stepsize_value=np.nan),
            dict(stepsize_mode="constant", stepsize_value=np.inf),
            dict(stepsize_mode="inv_sqrt_k", stepsize_value=np.inf),
            dict(mu=np.inf),
            dict(mu=0.0),
            dict(mu=-1.0),
            dict(stepsize_mode="constant", stepsize_value=0.1, metric_interval=0),
            dict(stepsize_mode="constant", stepsize_value=0.1, metric_interval=-3),
        ],
    )
    def test_rejects_non_finite_or_non_positive_numbers(self, kwargs):
        # mu = inf would make every inv_mu_k step 0; a checkpoint interval
        # must be a positive number of iterations.
        with pytest.raises(ValueError):
            solvers.SolverConfig(method="sgd", sampler="uniform", epochs=1, **kwargs)


class TestRunCdBasics:
    def test_single_coordinate_lands_on_minimizer(self):
        design = SparseDesign.from_matrix(np.array([[2.0]]))
        problem = glm.GlmProblem(design, np.array([4.0]), "square", "l2", 0.0)
        cfg = solvers.SolverConfig(
            method="cd", sampler="fixed_li", iterations=1, metric_interval=1
        )
        trace = solvers.run(problem, cfg)
        # One exact step of a separable quadratic reaches x = b / a.
        assert trace.final_x[0] == pytest.approx(2.0, rel=1e-12)
        assert trace.final_fval == pytest.approx(0.0, abs=1e-20)

    def test_identity_quadratic_monotone(self):
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(np.eye(6)),
            np.arange(1.0, 7.0),
            "square",
            "l2",
            0.0,
        )
        cfg = solvers.SolverConfig(
            method="cd", sampler="uniform", stepsize_mode="small_fixed",
            epochs=4, seed=3, metric_interval=2,
        )
        trace = solvers.run(problem, cfg)
        fvals = [r.fval for r in trace.rows]
        assert all(b <= a + 1e-12 for a, b in zip(fvals, fvals[1:]))

    def test_determinism(self):
        problem = make_problem(d=15, n=8, seed=2)
        cfg = solvers.SolverConfig(method="cd", sampler="safe_adaptive", epochs=4, seed=7)
        t1 = solvers.run(problem, cfg)
        t2 = solvers.run(problem, cfg)
        assert [r.fval for r in t1.rows] == [r.fval for r in t2.rows]
        assert [r.v for r in t1.rows] == [r.v for r in t2.rows]
        np.testing.assert_array_equal(t1.final_x, t2.final_x)

    def test_stationary_problem_terminates(self):
        design = SparseDesign.from_matrix(np.eye(4))
        problem = glm.GlmProblem(design, np.zeros(4), "square", "l2", 0.0)
        cfg = solvers.SolverConfig(
            method="cd", sampler="optimal_full_info", iterations=100, seed=0
        )
        trace = solvers.run(problem, cfg)
        assert trace.converged
        assert trace.rows[-1].iteration == 0

        cfg = solvers.SolverConfig(
            method="cd", sampler="safe_adaptive", iterations=500, seed=0
        )
        trace = solvers.run(problem, cfg)
        assert trace.converged
        assert trace.rows[-1].iteration < 500

    def test_v_logged_only_for_adaptive(self):
        problem = make_problem(d=10, n=5, seed=1)
        for sampler, has_v in (
            ("uniform", False),
            ("fixed_li", False),
            ("optimal_full_info", True),
            ("safe_adaptive", True),
        ):
            cfg = solvers.SolverConfig(method="cd", sampler=sampler, epochs=2, seed=0)
            trace = solvers.run(problem, cfg)
            flags = {r.v is not None for r in trace.rows}
            assert flags == {has_v}

    def test_v_within_theoretical_range(self):
        problem = make_problem(d=20, n=10, seed=4)
        profile = glm.coordinate_lipschitz(problem)
        cfg = solvers.SolverConfig(
            method="cd", sampler="safe_adaptive", epochs=3, seed=1, metric_interval=5
        )
        trace = solvers.run(problem, cfg)
        for row in trace.rows:
            if row.v is not None:
                assert profile.min_value * (1 - 1e-12) <= row.v
                assert row.v <= profile.trace * (1 + 1e-12)

    def test_refresh_interval_requires_safe_adaptive(self):
        with pytest.raises(ValueError):
            solvers.SolverConfig(
                method="cd", sampler="fixed_li", epochs=1, refresh_interval=5
            )

    def test_diverging_run_records_single_final_row(self):
        # Per-iteration checkpoints: the divergence break lands on an
        # iteration that already has a row and must not duplicate it.
        design = SparseDesign.from_matrix(np.full((4, 3), 1.0))
        problem = glm.GlmProblem(design, np.ones(4), "square", "l1", 0.1)
        cfg = solvers.SolverConfig(
            method="sgd", sampler="uniform", iterations=400, seed=0,
            stepsize_mode="constant", stepsize_value=1e6, metric_interval=1,
        )
        with np.errstate(all="ignore"):
            trace = solvers.run(problem, cfg)
        iters = [r.iteration for r in trace.rows]
        assert len(iters) == len(set(iters))
        assert not np.isfinite(trace.final_fval)

    def test_l1_prox_run_sparsifies(self):
        design, labels = synthetic_ridge_benchmark(2, d=30, n=20)
        problem = glm.GlmProblem(design, labels, "square", "l1", 0.5)
        cfg = solvers.SolverConfig(method="cd", sampler="safe_adaptive", epochs=30, seed=0)
        trace = solvers.run(problem, cfg)
        assert np.isfinite(trace.final_fval)
        assert np.sum(trace.final_x == 0.0) > 0


def gaussian_square_problem(seed=0, d=40, n=10):
    rng = np.random.default_rng(seed)
    design = SparseDesign.from_matrix(rng.standard_normal((d, n)))
    return glm.GlmProblem(design, rng.standard_normal(d), "square", "l2", 0.0)


class TestDivergence:
    @pytest.mark.parametrize("stepsize", [50.0, 5.0, 2.0])
    @pytest.mark.parametrize(
        "sampler", ["uniform", "fixed_li", "optimal_full_info", "safe_adaptive"]
    )
    def test_diverging_sgd_run_stops_and_says_so(self, sampler, stepsize):
        # A constant step too long for unpenalized least squares: every
        # sampler stops on its own, sets diverged and records the final
        # iterate once, instead of raising from inside a solve.
        problem = gaussian_square_problem()
        cfg = solvers.SolverConfig(
            method="sgd", sampler=sampler, iterations=2000, seed=0,
            stepsize_mode="constant", stepsize_value=stepsize, metric_interval=1,
        )
        with np.errstate(all="ignore"):
            trace = solvers.run(problem, cfg)
        assert trace.diverged and not trace.converged
        iters = [r.iteration for r in trace.rows]
        assert iters == list(range(len(iters)))
        assert iters[-1] < 2000
        for row in trace.rows:
            assert row.v is None or np.isfinite(row.v)

    def test_refresh_onto_an_overflowing_box_stops_the_run(self):
        # A finite margin derivative (1e200) on a row of finite norm (1e110)
        # whose component norm overflows: the refresh at step 0 would put an
        # infinite lower bound in the box, so the run stops before stepping.
        design = SparseDesign.from_matrix(np.array([[1e110, 0.0], [0.0, 1.0]]))
        problem = glm.GlmProblem(design, np.array([-1e200, 1.0]), "square", "l2", 0.0)
        cfg = solvers.SolverConfig(
            method="sgd", sampler="safe_adaptive", iterations=10, seed=0,
            stepsize_mode="constant", stepsize_value=1e-3, refresh_interval=1,
        )
        with np.errstate(all="ignore"):
            trace = solvers.run(problem, cfg)
        assert trace.diverged
        assert [r.iteration for r in trace.rows] == [0]
        np.testing.assert_array_equal(trace.final_x, 0.0)

    def test_healthy_runs_are_not_flagged(self):
        problem = gaussian_square_problem()
        for method, stepsize in (("cd", None), ("sgd", "constant")):
            cfg = solvers.SolverConfig(
                method=method, sampler="safe_adaptive", epochs=3, seed=0,
                stepsize_mode=stepsize, stepsize_value=0.01 if stepsize else None,
            )
            trace = solvers.run(problem, cfg)
            assert not trace.diverged and np.isfinite(trace.final_fval)


class TestSquareLossBoundsWithoutRefresh:
    def test_exact_coordinate_solves_keep_bounds_uninformative(self):
        # For least squares the static stepsize alpha/p_i = 1/L_i is the
        # exact coordinate minimizer, so every observed post-step gradient
        # is zero up to rounding and no box has an active bound: the safe
        # distribution is L/trace over the coordinates with upper > 0, and 0
        # on those whose gradient was observed to be exactly 0.  Until the
        # first such observation the adaptive run IS the static run.
        design, labels = synthetic_ridge_benchmark(8, d=30, n=20)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
        assert np.all(problem.design.column_norms > 0.0)
        profile = glm.coordinate_lipschitz(problem)
        seen = {"safe_adaptive": [], "fixed_li": []}

        def capture(name):
            def callback(info):
                upper = None
                if info.tracker_state is not None:
                    # The box the next iteration's solve sees.
                    upper = tracker.sampling_box(info.tracker_state).upper
                seen[name].append(
                    (info.probabilities.copy(), info.alpha, info.v, info.x.copy(), upper)
                )
            return callback

        for sampler in seen:
            cfg = solvers.SolverConfig(
                method="cd", sampler=sampler, epochs=5, seed=3, metric_interval=7
            )
            solvers.run(problem, cfg, callback=capture(sampler))

        safe, fixed = seen["safe_adaptive"], seen["fixed_li"]
        assert len(safe) == len(fixed) == 5 * problem.n_features
        active = np.ones(problem.n_features, dtype=bool)
        diverged = False
        zero_solves = 0
        for (p, alpha, v, x, upper), (p_ref, alpha_ref, _, x_ref, _) in zip(safe, fixed):
            expected = np.zeros(problem.n_features)
            expected[active] = profile.values[active] / float(np.sum(profile.values[active]))
            np.testing.assert_array_equal(p, expected)
            assert v == float(np.sum(profile.values[active]))
            assert alpha == 1.0 / v
            if not active.all():
                zero_solves += 1
                diverged = True
            if not diverged:
                np.testing.assert_array_equal(p, p_ref)
                assert alpha == alpha_ref
                np.testing.assert_array_equal(x, x_ref)
            active = upper > 0.0
        # The run must reach the case the exclusion rule is about.
        assert zero_solves > 0


class TestEpochBoundaryRefresh:
    def test_refreshed_sampling_matches_full_information(self):
        # Smooth box only (lam = 0): right after a refresh the box is
        # degenerate, so the distribution in force equals the
        # full-information one at the pre-step iterate.
        design, labels = synthetic_ridge_benchmark(4, d=30, n=15)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.0)
        profile = glm.coordinate_lipschitz(problem)
        n = problem.n_features
        boundary_probs = {}

        def capture(info):
            if info.iteration % n == 0:
                x_before = info.x.copy()
                x_before[info.index] -= info.delta
                state = glm.CdState(problem, x_before)
                grad = glm.full_gradient(problem, state)
                p_ref, _ = optimal_sampling(np.abs(grad), profile)
                boundary_probs[info.iteration] = (info.probabilities.copy(), p_ref)

        cfg = solvers.SolverConfig(
            method="cd", sampler="safe_adaptive", epochs=4, seed=6, refresh_interval=n
        )
        solvers.run(problem, cfg, callback=capture)
        assert len(boundary_probs) == 4
        for p_used, p_ref in boundary_probs.values():
            np.testing.assert_allclose(p_used, p_ref, rtol=1e-9, atol=1e-12)


class TestZeroNormColumn:
    def test_safe_run_excludes_empty_feature(self):
        dense = np.zeros((10, 4))
        rng = np.random.default_rng(0)
        dense[:, [0, 1, 3]] = rng.standard_normal((10, 3))
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(dense), dense @ np.array([1.0, -1.0, 0.0, 0.5]),
            "square", "l1", 0.05,
        )
        drawn = set()
        cfg = solvers.SolverConfig(method="cd", sampler="safe_adaptive", epochs=20, seed=1)
        trace = solvers.run(problem, cfg, callback=lambda info: drawn.add(info.index))
        assert np.isfinite(trace.final_fval)
        assert trace.final_x[2] == 0.0
        assert 2 not in drawn


class TestExactGramEquivalence:
    def test_matches_full_information_run(self):
        design, labels = synthetic_ridge_benchmark(5, d=25, n=12)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.0)
        seen = {"optimal_full_info": [], "safe_adaptive": []}

        def capture(name):
            def callback(info):
                seen[name].append((info.probabilities.copy(), info.v))
            return callback

        iterations = 300
        cfg_opt = solvers.SolverConfig(
            method="cd", sampler="optimal_full_info", iterations=iterations, seed=11
        )
        solvers.run(problem, cfg_opt, callback=capture("optimal_full_info"))
        cfg_safe = solvers.SolverConfig(
            method="cd",
            sampler="safe_adaptive",
            iterations=iterations,
            seed=11,
            tracker_mode=tracker.CD_EXACT_GRAM,
            refresh_interval=10 * iterations,
        )
        solvers.run(problem, cfg_safe, callback=capture("safe_adaptive"))

        assert len(seen["optimal_full_info"]) == len(seen["safe_adaptive"]) == iterations
        for (p_opt, v_opt), (p_safe, v_safe) in zip(*seen.values()):
            np.testing.assert_allclose(p_safe, p_opt, rtol=1e-9, atol=1e-12)
            assert v_safe == pytest.approx(v_opt, rel=1e-9)


    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_l2_step_zero_refresh_tracks_full_information(self, lam):
        # With the L2 term inside the tracked interval, exact-Gram tracking
        # from one refresh at step 0 knows the whole gradient at every step,
        # so the safe distribution is the full-information one.
        design, labels = synthetic_ridge_benchmark(1, d=50, n=50)
        problem = glm.GlmProblem(design, labels, "square", "l2", lam)
        profile = glm.coordinate_lipschitz(problem)
        checked = [0]

        def check(info):
            x_before = info.x.copy()
            x_before[info.index] -= info.delta
            grad = glm.full_gradient(problem, glm.CdState(problem, x_before))
            p_ref, alpha_ref = optimal_sampling(np.abs(grad), profile)
            np.testing.assert_allclose(info.probabilities, p_ref, rtol=0.0, atol=1e-12)
            assert info.alpha == pytest.approx(alpha_ref, rel=1e-12)
            checked[0] += 1

        iterations = 300
        cfg = solvers.SolverConfig(
            method="cd",
            sampler="safe_adaptive",
            iterations=iterations,
            seed=1,
            tracker_mode=tracker.CD_EXACT_GRAM,
            refresh_interval=10 * iterations,
        )
        solvers.run(problem, cfg, callback=check)
        assert checked[0] == iterations


class TestExactGramWithoutRefresh:
    @pytest.mark.parametrize("generator_seed", range(6))
    def test_unregularized_runs_complete(self, generator_seed):
        # At lambda = 0 a static 1/L_i step minimizes exactly along the
        # coordinate, so exact-Gram boxes collect magnitudes within rounding
        # of zero; the minimax solve must absorb that rounding.
        design, labels = synthetic_ridge_benchmark(generator_seed, d=50, n=50)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.0)
        profile = glm.coordinate_lipschitz(problem)
        for seed in range(4):
            cfg = solvers.SolverConfig(
                method="cd",
                sampler="safe_adaptive",
                epochs=30,
                seed=seed,
                tracker_mode=tracker.CD_EXACT_GRAM,
            )
            trace = solvers.run(problem, cfg)
            assert trace.rows[-1].iteration == 30 * problem.n_features
            assert np.isfinite(trace.final_fval)
            for row in trace.rows:
                assert profile.min_value * (1 - 1e-12) <= row.v <= profile.trace * (1 + 1e-12)


class TestRunSgdBasics:
    def test_single_component_sampler_invariance(self):
        design = SparseDesign.from_matrix(np.array([[1.0, 2.0]]))
        problem = glm.GlmProblem(design, np.array([1.0]), "square", "l2", 0.1)
        traces = {}
        for sampler in ("uniform", "fixed_li", "optimal_full_info", "safe_adaptive"):
            cfg = solvers.SolverConfig(
                method="sgd", sampler=sampler, iterations=40, seed=5,
                stepsize_mode="constant", stepsize_value=0.05,
            )
            traces[sampler] = solvers.run(problem, cfg)
        finals = {k: t.final_x for k, t in traces.items()}
        base = finals.pop("uniform")
        for other in finals.values():
            np.testing.assert_allclose(other, base, rtol=1e-12)

    def test_refresh_every_iteration_matches_optimal(self):
        design, labels = synthetic_outlier_regression(3, d=40, n=8)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
        cfg_opt = solvers.SolverConfig(
            method="sgd", sampler="optimal_full_info", iterations=120, seed=2,
            stepsize_mode="constant", stepsize_value=0.05,
        )
        cfg_safe = solvers.SolverConfig(
            method="sgd", sampler="safe_adaptive", iterations=120, seed=2,
            stepsize_mode="constant", stepsize_value=0.05, refresh_interval=1,
        )
        t_opt = solvers.run(problem, cfg_opt)
        t_safe = solvers.run(problem, cfg_safe)
        np.testing.assert_array_equal(t_safe.final_x, t_opt.final_x)
        assert [r.fval for r in t_safe.rows] == [r.fval for r in t_opt.rows]

    def test_inv_mu_schedule_requires_positive_mu(self):
        problem = make_problem(lam=0.0)
        cfg = solvers.SolverConfig(method="sgd", sampler="uniform", epochs=1)
        with pytest.raises(ValueError):
            solvers.run(problem, cfg)

    def test_inv_mu_schedule_takes_no_mu_from_l1(self):
        # An L1 penalty is not strongly convex: it supplies no mu.
        problem = make_problem(reg="l1", lam=0.1)
        cfg = solvers.SolverConfig(method="sgd", sampler="uniform", epochs=1)
        with pytest.raises(ValueError):
            solvers.run(problem, cfg)
        assert solvers.sgd_strong_convexity(cfg, "l1", 0.1) == 0.0
        assert solvers.sgd_strong_convexity(cfg, "l2", 0.1) == pytest.approx(0.2)

    def test_determinism(self):
        problem = make_problem(d=30, n=6, seed=3)
        cfg = solvers.SolverConfig(
            method="sgd", sampler="safe_adaptive", epochs=3, seed=9,
            stepsize_mode="constant", stepsize_value=0.05,
        )
        t1 = solvers.run(problem, cfg)
        t2 = solvers.run(problem, cfg)
        assert [r.fval for r in t1.rows] == [r.fval for r in t2.rows]
        np.testing.assert_array_equal(t1.final_x, t2.final_x)


class TestStepBranches:
    """Branches of the shared step that the end-to-end runs do not pin."""

    @pytest.mark.parametrize(
        "mode, value, mu, expected",
        [
            ("constant", 0.05, None, lambda k: 0.05),
            ("inv_sqrt_k", 0.2, None, lambda k: 0.2 / np.sqrt(k + 1.0)),
            ("inv_mu_k", None, 0.7, lambda k: 1.0 / (0.7 * (k + 1.0))),
            ("inv_mu_k", None, None, lambda k: 1.0 / (0.2 * (k + 1.0))),  # mu = 2 lambda
        ],
    )
    @pytest.mark.parametrize("sampler", ["fixed_li", "safe_adaptive"])
    def test_sgd_schedule_reaches_callback(self, mode, value, mu, expected, sampler):
        problem = make_problem(d=15, n=6, lam=0.1, seed=4)
        cfg = solvers.SolverConfig(
            method="sgd", sampler=sampler, iterations=40, seed=1,
            stepsize_mode=mode, stepsize_value=value, mu=mu,
        )
        alphas = []
        solvers.run(problem, cfg, callback=lambda info: alphas.append(info.alpha))
        assert alphas == [expected(k) for k in range(40)]

    @pytest.mark.parametrize("sampler", ["uniform", "safe_adaptive"])
    def test_sgd_without_penalty_moves_along_the_row(self, sampler):
        problem = make_problem(d=15, n=6, lam=0.0, seed=5)
        dense = problem.design.toarray()
        cfg = solvers.SolverConfig(
            method="sgd", sampler=sampler, iterations=60, seed=2,
            stepsize_mode="constant", stepsize_value=0.1,
        )
        before = [np.zeros(problem.n_features)]

        def check(info):
            assert info.delta != 0.0
            np.testing.assert_array_equal(info.x, before[0] + info.delta * dense[info.index])
            before[0] = info.x.copy()

        solvers.run(problem, cfg, callback=check)

    def test_cd_l1_prox_moves_only_the_drawn_coordinate(self):
        problem = make_problem(d=20, n=10, reg="l1", lam=0.05, seed=6)
        cfg = solvers.SolverConfig(method="cd", sampler="safe_adaptive", epochs=10, seed=3)
        before = [np.zeros(problem.n_features)]
        landed_on_zero = []

        def check(info):
            i = info.index
            expected = before[0].copy()
            expected[i] += info.delta
            np.testing.assert_array_equal(info.x, expected)
            if before[0][i] != 0.0 and info.x[i] == 0.0:
                landed_on_zero.append(i)
            before[0] = info.x.copy()

        solvers.run(problem, cfg, callback=check)
        # The soft threshold is live: some step sets a nonzero coordinate to 0.
        assert landed_on_zero


def eager_sgd(problem, config, residuals=None):
    """Reference SGD loop that applies the prox to every coordinate at every
    step, as the solver did before its prox became lazy.

    It draws as ``solvers.run`` does, one uniform per step through
    ``draw_index`` with a fresh cumulative sum.  Under a tracker it passes
    the solver's own residual bounds, ``residuals[k]``, so both runs widen
    the same intervals.  Returns the drawn indices, the checkpoint
    objectives by iteration, the final iterate and the exact prox
    displacement norm of every step.
    """
    profile = glm.component_lipschitz(problem)
    n = problem.n_samples
    rng = np.random.default_rng(config.seed)
    x = np.zeros(problem.n_features)
    track = None
    if config.sampler == "safe_adaptive":
        track = tracker.init_tracker(problem, config.tracker_mode)
    mu = solvers.sgd_strong_convexity(config, problem.reg, problem.lam)
    interval = config.metric_interval or n
    iterations = config.resolve_iterations(n)
    indices, fvals, exact_residuals = [], {}, []
    for k in range(iterations):
        if track is not None:
            p = compute_safe_sampling(tracker.sampling_box(track), profile).probabilities
        elif config.sampler == "optimal_full_info":
            thetas = glm.all_component_derivatives(problem, x)
            p, _ = optimal_sampling(np.abs(thetas) * problem.design.row_norms, profile)
        else:
            p, _ = fixed_li_sampling(profile)
        if k % interval == 0:
            fvals[k] = glm.objective(problem, x, method="sgd")
        i = draw_index(p, rng)
        if config.stepsize_mode == "constant":
            eta = config.stepsize_value
        elif config.stepsize_mode == "inv_sqrt_k":
            eta = config.stepsize_value / np.sqrt(k + 1.0)
        else:
            eta = 1.0 / (mu * (k + 1.0))
        coeff = -(eta / (n * p[i])) * glm.component_derivative(problem, x, i)
        idx, vals = problem.design.row(i)
        x[idx] += coeff * vals
        x_new = np.asarray(glm.prox_step(problem.reg, problem.lam, eta, x))
        exact_residuals.append(float(np.linalg.norm(x - x_new)))
        x = x_new
        if track is not None:
            observed = glm.component_derivative(problem, x, i)
            tracker.sgd_update(track, i, coeff, residuals[k], observed)
        indices.append(i)
    fvals[iterations] = glm.objective(problem, x, method="sgd")
    return indices, fvals, x, exact_residuals


def lazy_sgd(problem, config, monkeypatch):
    """``solvers.run`` with its drawn indices and tracker residuals recorded."""
    residuals = []
    real_update = tracker.sgd_update

    def recording_update(state, index, displacement, residual_norm, observed):
        residuals.append(residual_norm)
        return real_update(state, index, displacement, residual_norm, observed)

    monkeypatch.setattr(tracker, "sgd_update", recording_update)
    indices = []
    trace = solvers.run(problem, config, callback=lambda info: indices.append(info.index))
    monkeypatch.setattr(tracker, "sgd_update", real_update)
    return trace, indices, residuals


def assert_same_run(trace, indices, reference):
    ref_indices, ref_fvals, ref_x, _ = reference
    assert indices == ref_indices
    assert {r.iteration: r.fval for r in trace.rows}.keys() == ref_fvals.keys()
    for row in trace.rows:
        assert row.fval == pytest.approx(ref_fvals[row.iteration], rel=1e-12, abs=0.0)
    scale = float(np.max(np.abs(ref_x)))
    assert scale > 0.0
    assert float(np.max(np.abs(trace.final_x - ref_x))) <= 1e-12 * scale


class TestLazyProx:
    """The O(nnz(a_i)) SGD step against the eager O(d) prox it replaced."""

    @pytest.mark.parametrize("reg", ["l1", "l2"])
    @pytest.mark.parametrize(
        "mode, value", [("constant", 0.1), ("inv_sqrt_k", 0.3), ("inv_mu_k", None)]
    )
    @pytest.mark.parametrize("sampler", ["fixed_li", "optimal_full_info", "safe_adaptive"])
    def test_matches_eager_prox(self, reg, mode, value, sampler, monkeypatch):
        problem = make_problem(d=40, n=15, loss="logistic", reg=reg, lam=0.05, seed=8)
        # L1 supplies no strong convexity, so inv_mu_k needs a mu there.
        mu = 0.5 if reg == "l1" and mode == "inv_mu_k" else None
        cfg = solvers.SolverConfig(
            method="sgd", sampler=sampler, iterations=400, seed=3,
            stepsize_mode=mode, stepsize_value=value, mu=mu, metric_interval=25,
        )
        trace, indices, residuals = lazy_sgd(problem, cfg, monkeypatch)
        reference = eager_sgd(problem, cfg, residuals)
        assert_same_run(trace, indices, reference)
        if sampler == "safe_adaptive":
            # The solver passes a bound on the prox displacement, never less
            # than the exact norm (the two agree to rounding under L2).
            exact = reference[3]
            assert len(residuals) == len(exact) == 400
            for bound, norm in zip(residuals, exact):
                assert bound >= norm * (1.0 - 1e-12)
            if reg == "l1":
                assert any(b > n * (1.0 + 1e-9) for b, n in zip(residuals, exact))
        if reg == "l1":
            # The soft threshold is live: some coordinate ends at exactly 0.
            assert np.any(trace.final_x == 0.0)

    def test_l2_scale_fold(self, monkeypatch):
        # A shrink of 1/(1 + 2 * 0.5 * 0.5) = 2/3 per step takes the scale
        # below its floor every 52 steps; each fold goes through _settle.
        problem = make_problem(d=40, n=15, loss="logistic", reg="l2", lam=0.5, seed=9)
        cfg = solvers.SolverConfig(
            method="sgd", sampler="fixed_li", iterations=600, seed=4,
            stepsize_mode="constant", stepsize_value=0.5, metric_interval=50,
        )
        folds = [0]
        real_settle = solvers._Rows._settle

        def counting_settle(self):
            folds[0] += 1
            real_settle(self)

        monkeypatch.setattr(solvers._Rows, "_settle", counting_settle)
        trace, indices, _ = lazy_sgd(problem, cfg, monkeypatch)
        assert folds[0] >= 10
        assert_same_run(trace, indices, eager_sgd(problem, cfg))

    @pytest.mark.parametrize("reg", ["l1", "l2"])
    @pytest.mark.parametrize("sampler", ["fixed_li", "safe_adaptive"])
    def test_reading_x_leaves_the_run_unchanged(self, reg, sampler):
        problem = make_problem(d=40, n=15, loss="logistic", reg=reg, lam=0.05, seed=10)
        finals = []
        for interval in (1, None):
            cfg = solvers.SolverConfig(
                method="sgd", sampler=sampler, iterations=300, seed=5,
                stepsize_mode="constant", stepsize_value=0.2, metric_interval=interval,
            )
            finals.append(solvers.run(problem, cfg).final_x)
        np.testing.assert_array_equal(finals[0], finals[1])


class TestStaticDraws:
    def test_indices_match_a_fresh_cumsum_replay(self):
        # The problem of TestSquareLossBoundsWithoutRefresh: the safe run
        # takes the uninformative exit (the profile's static distribution)
        # until a gradient is observed to be exactly zero, and solves over
        # the remaining coordinates after that.
        design, labels = synthetic_ridge_benchmark(8, d=30, n=20)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
        profile = glm.coordinate_lipschitz(problem)
        for sampler in ("uniform", "fixed_li", "safe_adaptive"):
            seen = []
            cfg = solvers.SolverConfig(method="cd", sampler=sampler, epochs=5, seed=3)
            solvers.run(
                problem, cfg,
                callback=lambda info: seen.append((info.index, info.probabilities, info.v)),
            )
            rng = np.random.default_rng(3)
            assert [i for i, _, _ in seen] == [draw_index(p, rng) for _, p, _ in seen]
            if sampler == "safe_adaptive":
                exits = sum(v == profile.trace for _, _, v in seen)
                assert 0 < exits < len(seen)


def test_run_path_leaves_scipy_optimize_and_oracle_unimported():
    code = (
        "import sys, adasamp.cli, adasamp.solvers; "
        "print(sorted(m for m in ('scipy.optimize', 'adasamp.oracle') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestExpectedProgress:
    @pytest.mark.parametrize("loss", ["square", "logistic"])
    def test_model_bound_holds_for_standard_samplers(self, loss, rng):
        problem = make_problem(d=18, n=9, loss=loss, reg="l2", lam=0.1, seed=6)
        profile = glm.coordinate_lipschitz(problem)
        n = problem.n_features
        for _ in range(25):
            x = rng.standard_normal(n)
            state = glm.CdState(problem, x)
            grad = glm.full_gradient(problem, state)
            if not np.abs(grad).max() > 0:
                continue
            candidates = [np.full(n, 1.0 / n), fixed_li_sampling(profile)[0]]
            if np.all(np.abs(grad) > 0):
                candidates.append(optimal_sampling(np.abs(grad), profile)[0])
            for p in candidates:
                lhs, rhs = expected_progress_check(problem, x, p)
                assert lhs <= rhs + 1e-9

    def test_optimal_alpha_reduces_to_half_grad_norm(self, rng):
        from adasamp.sampling import effective_value

        problem = make_problem(d=14, n=7, lam=0.0, seed=8)
        profile = glm.coordinate_lipschitz(problem)
        x = rng.standard_normal(problem.n_features)
        state = glm.CdState(problem, x)
        grad = glm.full_gradient(problem, state)
        p, alpha = optimal_sampling(np.abs(grad), profile)
        if np.any(p == 0.0):
            pytest.skip("degenerate support")
        lhs, rhs = expected_progress_check(problem, x, p, alpha=alpha)
        fval = glm.objective(problem, x, method="cd")
        assert rhs == pytest.approx(
            fval - 0.5 * alpha * float(grad @ grad), rel=1e-12
        )
        assert lhs <= rhs + 1e-9

    def test_suboptimal_alpha_keeps_model_bound(self, rng):
        problem = make_problem(d=14, n=7, lam=0.0, seed=12, unit_columns=True)
        profile = glm.coordinate_lipschitz(problem)
        x = rng.standard_normal(problem.n_features)
        state = glm.CdState(problem, x)
        grad = glm.full_gradient(problem, state)
        p, _ = optimal_sampling(np.abs(grad), profile)
        if np.any(p == 0.0):
            pytest.skip("degenerate support")
        alpha = 1.0 / profile.trace
        lhs, rhs = expected_progress_check(problem, x, p, alpha=alpha)
        assert lhs <= rhs + 1e-9

    def test_uniform_probabilities_uniform_curvature_alpha(self, rng):
        # With equal constants the model-optimal stepsize under uniform
        # probabilities is 1 / (n * L).
        from adasamp.sampling import effective_value

        problem = make_problem(d=25, n=8, lam=0.0, seed=19, unit_columns=True)
        profile = glm.coordinate_lipschitz(problem)
        n = problem.n_features
        x = rng.standard_normal(n)
        state = glm.CdState(problem, x)
        grad = glm.full_gradient(problem, state)
        p = np.full(n, 1.0 / n)
        alpha = float(grad @ grad) / effective_value(p, grad, profile)
        assert alpha == pytest.approx(1.0 / (n * profile.values[0]), rel=1e-12)

    def test_rejects_nonsmooth(self):
        problem = make_problem(reg="l1", lam=0.4)
        with pytest.raises(ValueError):
            expected_progress_check(
                problem,
                np.zeros(problem.n_features),
                np.full(problem.n_features, 1.0 / problem.n_features),
            )

    def test_directional_unbiasedness(self, rng):
        problem = make_problem(d=12, n=6, lam=0.0, seed=14)
        profile = glm.coordinate_lipschitz(problem)
        x = rng.standard_normal(problem.n_features)
        state = glm.CdState(problem, x)
        grad = glm.full_gradient(problem, state)
        p, alpha = fixed_li_sampling(profile)
        expectation = np.zeros_like(grad)
        for i in range(problem.n_features):
            expectation[i] = p[i] * (alpha / p[i]) * grad[i]
        np.testing.assert_allclose(expectation, alpha * grad, rtol=1e-12)


class TestSparseEndToEnd:
    def test_binarized_sparse_cd_run(self):
        rng = np.random.default_rng(12)
        import scipy.sparse as sp

        design = SparseDesign.from_matrix(
            sp.random(800, 600, density=0.01, random_state=5, data_rvs=lambda k: np.ones(k))
        )
        labels = np.sign(rng.standard_normal(800))
        labels[labels == 0] = 1.0
        problem = glm.GlmProblem(design, labels, "logistic", "l1", 0.1)
        cfg = solvers.SolverConfig(method="cd", sampler="safe_adaptive", epochs=2, seed=0)
        trace = solvers.run(problem, cfg)
        assert np.isfinite(trace.final_fval)
        assert trace.rows[0].fval >= trace.final_fval
        assert all(r.v is not None for r in trace.rows)


class TestTrendOrdering:
    def test_cd_and_sgd_sampler_orderings(self):
        cd_finals = {"optimal_full_info": [], "safe_adaptive": [], "fixed_li": []}
        for seed in range(10):
            design, labels = synthetic_ridge_benchmark(300 + seed)
            problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
            for sampler in cd_finals:
                kwargs = (
                    dict(refresh_interval=problem.n_features)
                    if sampler == "safe_adaptive"
                    else {}
                )
                cfg = solvers.SolverConfig(
                    method="cd", sampler=sampler, epochs=15, seed=seed, **kwargs
                )
                cd_finals[sampler].append(solvers.run(problem, cfg).final_fval)
        cd_med = {k: float(np.median(v)) for k, v in cd_finals.items()}
        assert cd_med["optimal_full_info"] <= cd_med["safe_adaptive"] + 1e-12
        assert cd_med["safe_adaptive"] <= cd_med["fixed_li"] + 1e-12

        sgd_finals = {"optimal_full_info": [], "safe_adaptive": [], "uniform": []}
        for seed in range(20):
            design, labels = synthetic_outlier_regression(700 + seed)
            problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
            for sampler in sgd_finals:
                cfg = solvers.SolverConfig(
                    method="sgd", sampler=sampler, epochs=3, seed=seed,
                    stepsize_mode="constant", stepsize_value=0.05,
                )
                sgd_finals[sampler].append(solvers.run(problem, cfg).final_fval)
        sgd_med = {k: float(np.median(v)) for k, v in sgd_finals.items()}
        assert sgd_med["optimal_full_info"] <= sgd_med["safe_adaptive"] + 1e-12
        assert sgd_med["safe_adaptive"] <= sgd_med["uniform"] + 1e-12

        cd_gap = (cd_med["fixed_li"] - cd_med["optimal_full_info"]) / cd_med[
            "optimal_full_info"
        ]
        sgd_gap = (sgd_med["uniform"] - sgd_med["optimal_full_info"]) / sgd_med[
            "optimal_full_info"
        ]
        assert sgd_gap < cd_gap
