"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (run pytest with ``-s`` to see them
live).  Tolerances are fixed here and nowhere else.
"""

import contextlib
import time

import numpy as np
import pytest

from adasamp import glm, harness, solvers, tracker
from adasamp.data import SparseDesign, synthetic_ridge_benchmark
from adasamp.oracle import (
    brute_force_minimax,
    competitive_ratio_bound,
    exhaustive_expected_value,
)
from adasamp.sampling import (
    GradientBox,
    LipschitzProfile,
    compute_safe_sampling,
    effective_value,
    fixed_li_sampling,
    optimal_sampling,
)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {title}: PASS")


def instance_stream(count, seed=2024):
    """Random boxes and smoothness profiles; odd indices mix in infinite
    upper bounds."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 9))
        profile = LipschitzProfile(rng.uniform(0.1, 10.0, n))
        lower = rng.uniform(0.0, 2.0, n)
        upper = lower + rng.uniform(0.0, 3.0, n)
        if k % 2 == 1:
            mask = rng.random(n) < 0.35
            upper = np.where(mask, np.inf, upper)
        yield GradientBox(lower, upper), profile


N_INSTANCES = 1000


def test_criterion_01_oracle_equivalence():
    with criterion(1, "safe sampling matches enumeration oracle"):
        start = time.perf_counter()
        compared = 0
        for box, profile in instance_stream(N_INSTANCES):
            solution = compute_safe_sampling(box, profile)
            if np.all(np.isfinite(box.upper)):
                reference, _ = brute_force_minimax(box, profile)
                assert abs(solution.value - reference) <= 1e-9 * max(1.0, solution.value)
                compared += 1
        elapsed = time.perf_counter() - start
        assert compared >= N_INSTANCES // 2
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_value_range_and_dominance():
    with criterion(2, "minimax value range and worst-case dominance"):
        rng = np.random.default_rng(7)
        for box, profile in instance_stream(N_INSTANCES):
            solution = compute_safe_sampling(box, profile)
            assert profile.min_value <= solution.value <= profile.trace
            cap = np.minimum(box.upper, box.lower + 3.0)
            cs = box.lower + rng.random((100, box.n)) * (cap - box.lower)
            weights = profile.values / solution.probabilities
            lhs = (cs * cs) @ weights
            rhs = profile.trace * np.einsum("ij,ij->i", cs, cs)
            assert np.all(lhs <= rhs + 1e-9)


def test_criterion_03_reference_effective_values():
    with criterion(3, "variance proxy reproduces the reference triple"):
        profile = LipschitzProfile([1.0, 1.0])
        lower = np.array([1.0, 2.0])
        upper = np.array([2.0, 3.0])
        c = np.array([2.0, 2.0])
        norm_sq = float(c @ c)
        cases = [
            (lower / np.sum(lower), 9.0 / 4.0 * norm_sq),
            (upper / np.sum(upper), 25.0 / 12.0 * norm_sq),
            (c / np.sum(c), 2.0 * norm_sq),
        ]
        for p, expected in cases:
            got = effective_value(p, c, profile)
            assert abs(got - expected) <= 1e-15 * expected


def test_criterion_04_limit_cases():
    with criterion(4, "degenerate and uninformative boxes reduce correctly"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            profile = LipschitzProfile(rng.uniform(0.1, 10.0, n))
            g = rng.uniform(0.05, 3.0, n)
            solution = compute_safe_sampling(GradientBox(g, g), profile)
            p_ref, alpha_ref = optimal_sampling(g, profile)
            np.testing.assert_allclose(solution.probabilities, p_ref, rtol=1e-12)
            assert solution.stepsize == pytest.approx(alpha_ref, rel=1e-12)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            profile = LipschitzProfile(rng.uniform(0.1, 10.0, n))
            box = GradientBox(np.zeros(n), np.full(n, np.inf))
            solution = compute_safe_sampling(box, profile)
            p_ref, alpha_ref = fixed_li_sampling(profile)
            assert np.array_equal(solution.probabilities, p_ref)
            assert solution.value == profile.trace
            assert solution.stepsize == alpha_ref


def test_criterion_05_monotone_pivot_assertions():
    with criterion(5, "pivot-sequence assertions stay silent"):
        assert __debug__, "assertions are disabled; the check would be vacuous"
        for box, profile in instance_stream(N_INSTANCES):
            compute_safe_sampling(box, profile)  # raises AssertionError on violation


def test_criterion_06_competitive_ratio_gap_bound():
    with criterion(6, "gap-separated boxes keep ratio under gamma^4"):
        rng = np.random.default_rng(5)
        gammas = [1.1] * 34 + [1.5] * 33 + [2.0] * 33
        for gamma in gammas:
            n = int(rng.integers(2, 7))
            lower = rng.uniform(0.5, 3.0, n)
            upper = lower * (1.0 + (gamma - 1.0) * rng.uniform(0.0, 0.999, n))
            profile = LipschitzProfile(rng.uniform(0.5, 2.0, n))
            box = GradientBox(lower, upper)
            solution = compute_safe_sampling(box, profile)
            ratio = competitive_ratio_bound(box, profile, solution.value)
            assert ratio <= gamma**4 + 1e-6


def _dense_problem(loss, seed):
    # Rank-deficient design with columns scaled so the ridge weight sets
    # the convergence rate: 1e4 steps stay mid-convergence, where exact
    # interval containment is meaningful (at the float noise floor,
    # recomputed gradients are pure cancellation error).
    rng = np.random.default_rng(seed)
    scale = {"square": 3.0, "logistic": 6.0, "squared_hinge": 3.0 / np.sqrt(2)}[loss]
    left = rng.standard_normal((50, 20)) / np.sqrt(50)
    right = rng.standard_normal((20, 50)) / np.sqrt(20)
    dense = left @ right * scale
    if loss == "square":
        labels = dense @ rng.standard_normal(50) + 0.1 * rng.standard_normal(50)
    else:
        labels = np.sign(rng.standard_normal(50))
        labels[labels == 0] = 1.0
    return glm.GlmProblem(SparseDesign.from_matrix(dense), labels, loss, "l2", 0.1)


def test_criterion_07_bound_safety_under_solver_runs():
    with criterion(7, "tracked intervals never exclude the true gradients"):
        steps = 10_000
        for loss in ("square", "logistic", "squared_hinge"):
            problem = _dense_problem(loss, seed=101)
            lam = problem.lam
            checked = [0]

            def cd_audit(info):
                box = tracker.sampling_box(info.tracker_state)
                state = info.cd_state
                for i in range(problem.n_features):
                    g = glm.smooth_coordinate_gradient(problem, state, i)
                    g = g + 2.0 * lam * state.x[i]
                    assert box.lower[i] <= abs(g) <= box.upper[i]
                checked[0] += 1

            cfg = solvers.SolverConfig(
                method="cd", sampler="safe_adaptive", iterations=steps, seed=1
            )
            solvers.run(problem, cfg, callback=cd_audit)
            assert checked[0] == steps

            checked[0] = 0

            def sgd_audit(info):
                box = tracker.sampling_box(info.tracker_state)
                for i in range(problem.n_samples):
                    norm = glm.component_gradient_norm(problem, info.x, i)
                    assert box.lower[i] <= norm <= box.upper[i]
                checked[0] += 1

            cfg = solvers.SolverConfig(
                method="sgd", sampler="safe_adaptive", iterations=steps, seed=1,
                stepsize_mode="inv_mu_k",
            )
            solvers.run(problem, cfg, callback=sgd_audit)
            assert checked[0] == steps


def test_criterion_08_exact_tracking_equivalence():
    with criterion(8, "exact-gram run reproduces full-information sampling"):
        design, labels = synthetic_ridge_benchmark(5, d=40, n=20)
        problem = glm.GlmProblem(design, labels, "square", "l2", 0.0)
        iterations = 1000
        captured = {"optimal_full_info": [], "safe_adaptive": []}

        def capture(name):
            def callback(info):
                captured[name].append((info.probabilities.copy(), info.v))
            return callback

        solvers.run(
            problem,
            solvers.SolverConfig(
                method="cd", sampler="optimal_full_info", iterations=iterations, seed=4
            ),
            callback=capture("optimal_full_info"),
        )
        solvers.run(
            problem,
            solvers.SolverConfig(
                method="cd",
                sampler="safe_adaptive",
                iterations=iterations,
                seed=4,
                tracker_mode=tracker.CD_EXACT_GRAM,
                refresh_interval=10 * iterations,
            ),
            callback=capture("safe_adaptive"),
        )
        assert len(captured["optimal_full_info"]) == iterations
        assert len(captured["safe_adaptive"]) == iterations
        for (p_opt, v_opt), (p_safe, v_safe) in zip(*captured.values()):
            np.testing.assert_allclose(p_safe, p_opt, rtol=1e-9, atol=1e-12)
            assert abs(v_safe - v_opt) <= 1e-9 * max(1.0, v_opt)


def test_criterion_09_expected_progress_bounds():
    with criterion(9, "one-step expected progress obeys the model bound"):
        rng = np.random.default_rng(17)
        for loss in ("square", "logistic"):
            prob_rng = np.random.default_rng(3 if loss == "square" else 4)
            dense = prob_rng.standard_normal((25, 20)) / np.sqrt(25)
            if loss == "square":
                labels = dense @ prob_rng.standard_normal(20)
            else:
                labels = np.sign(prob_rng.standard_normal(25))
                labels[labels == 0] = 1.0
            problem = glm.GlmProblem(
                SparseDesign.from_matrix(dense), labels, loss, "l2", 0.1
            )
            profile = glm.coordinate_lipschitz(problem)
            n = problem.n_features
            for _ in range(50):
                x = rng.standard_normal(n)
                state = glm.CdState(problem, x)
                grad = glm.full_gradient(problem, state)
                grad_sq = float(grad @ grad)
                if grad_sq == 0.0 or np.any(grad == 0.0):
                    continue
                fval = glm.objective(problem, x, method="cd")
                samplers = {
                    "uniform": np.full(n, 1.0 / n),
                    "fixed": fixed_li_sampling(profile)[0],
                    "optimal": optimal_sampling(np.abs(grad), profile)[0],
                }
                for p in samplers.values():
                    alpha = grad_sq / effective_value(p, grad, profile)
                    lhs = exhaustive_expected_value(problem, x, p, alpha)
                    assert lhs <= fval - 0.5 * alpha * grad_sq + 1e-9

        # Suboptimal static stepsize with the gradient-proportional
        # distribution: progress factor stays inside [1, 2 - 1/n].
        prob_rng = np.random.default_rng(9)
        dense = prob_rng.standard_normal((30, 15))
        dense /= np.linalg.norm(dense, axis=0, keepdims=True)
        labels = dense @ prob_rng.standard_normal(15)
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(dense), labels, "square", "l2", 0.0
        )
        profile = glm.coordinate_lipschitz(problem)
        n = problem.n_features
        for _ in range(50):
            x = rng.standard_normal(n)
            state = glm.CdState(problem, x)
            grad = glm.full_gradient(problem, state)
            grad_sq = float(grad @ grad)
            if grad_sq == 0.0 or np.any(grad == 0.0):
                continue
            p, _ = optimal_sampling(np.abs(grad), profile)
            alpha = 1.0 / profile.trace
            weighted = float(np.sum(profile.sqrt_values * np.abs(grad))) ** 2
            bracket = 2.0 - weighted / (profile.trace * grad_sq)
            assert 1.0 - 1e-12 <= bracket <= 2.0 - 1.0 / n + 1e-12
            fval = glm.objective(problem, x, method="cd")
            lhs = exhaustive_expected_value(problem, x, p, alpha)
            bound = fval - grad_sq / (2.0 * profile.trace) * bracket
            assert lhs <= bound + 1e-9


def test_criterion_10_convergence_trend():
    with criterion(10, "desk-scale sampler ordering and early value drop"):
        start = time.perf_counter()
        epochs = 50
        finals = {"optimal_full_info": [], "safe_adaptive": [], "fixed_li": []}
        early_ratios = []
        for seed in range(20):
            design, labels = synthetic_ridge_benchmark(300 + seed)
            problem = glm.GlmProblem(design, labels, "square", "l2", 0.1)
            n = problem.n_features
            for sampler in finals:
                kwargs = {}
                if sampler == "safe_adaptive":
                    kwargs = dict(refresh_interval=n, metric_interval=n // 2)
                cfg = solvers.SolverConfig(
                    method="cd", sampler=sampler, epochs=epochs, seed=seed, **kwargs
                )
                trace = solvers.run(problem, cfg)
                finals[sampler].append(trace.final_fval)
                if sampler == "safe_adaptive":
                    early = [
                        r.v_over_trace
                        for r in trace.rows
                        if r.epoch <= 2.0 and r.v_over_trace is not None
                    ]
                    early_ratios.append(min(early))
        medians = {k: float(np.median(v)) for k, v in finals.items()}
        assert medians["optimal_full_info"] <= medians["safe_adaptive"]
        assert medians["safe_adaptive"] <= medians["fixed_li"]
        assert max(early_ratios) < 0.9
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_11_sampler_cost_scaling():
    with criterion(11, "safe-sampling cost grows like n log n"):
        sizes = [1_000, 10_000, 100_000, 1_000_000]
        reps = {1_000: 7, 10_000: 5, 100_000: 3, 1_000_000: 2}
        # The first solves in a fresh process are the slowest and noisiest:
        # one untimed solve per size, then three interleaved rounds that
        # keep each size's best time.
        for n in sizes:
            harness.bench_sampler(n, 1, seed=0)
        best = dict.fromkeys(sizes, np.inf)
        for _ in range(3):
            for n in sizes:
                best[n] = min(best[n], harness.bench_sampler(n, reps[n], seed=0))
        times = [best[n] for n in sizes]
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope <= 1.15, f"fit exponent {slope:.3f}"


def test_criterion_12_deterministic_outputs(tmp_path):
    with criterion(12, "repeated runs give identical traces modulo timing"):
        config = """
[data]
source = synthetic
generator = ridge_benchmark
d = 30
n = 30
seed = 3

[problem]
loss = square
reg = l2
lambda = 0.1

[run cd_safe]
method = cd
sampler = safe_adaptive
epochs = 3
seeds = 0,1

[run cd_opt]
method = cd
sampler = optimal_full_info
epochs = 3
seeds = 0

[run sgd_safe]
method = sgd
sampler = safe_adaptive
stepsize = constant:0.05
epochs = 2
seeds = 0
"""
        spec = harness.validate_spec(config)
        first = harness.run_experiment(spec, out_dir=str(tmp_path / "a"))
        second = harness.run_experiment(spec, out_dir=str(tmp_path / "b"))
        import csv as csv_mod

        def stripped(path):
            with open(path, newline="") as handle:
                rows = list(csv_mod.reader(handle))
            keep = [
                i for i, name in enumerate(rows[0]) if name not in harness.TIME_COLUMNS
            ]
            return [tuple(row[i] for i in keep) for row in rows]

        for p1, p2 in zip(first, second):
            if p1.endswith("summary.csv"):
                continue
            assert stripped(p1) == stripped(p2)
