import numpy as np
import pytest

from adasamp.oracle import (
    DiagnosticUnavailableError,
    brute_force_minimax,
    competitive_ratio_bound,
)
from adasamp.sampling import (
    GradientBox,
    LipschitzProfile,
    StationaryPointError,
    compute_safe_sampling,
    draw_index,
    effective_value,
    fixed_li_sampling,
    optimal_sampling,
)


def check_probability_vector(p: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be nonempty and 1-d")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(np.sum(p)) - 1.0) > tol:
        raise ValueError(f"probabilities sum to {float(np.sum(p))!r}, not 1")
    return p


def random_instance(rng, n=None, lip_range=(0.1, 10.0), allow_infinite=False):
    if n is None:
        n = int(rng.integers(1, 9))
    profile = LipschitzProfile(rng.uniform(*lip_range, n))
    lower = rng.uniform(0.0, 2.0, n)
    upper = lower + rng.uniform(0.0, 3.0, n)
    if allow_infinite:
        inf_mask = rng.random(n) < 0.3
        upper = np.where(inf_mask, np.inf, upper)
        lower = np.where(inf_mask & (rng.random(n) < 0.5), 0.0, lower)
    return GradientBox(lower, upper), profile


class TestLipschitzProfile:
    def test_cached_quantities(self):
        p = LipschitzProfile([4.0, 1.0, 9.0])
        assert p.trace == 14.0
        assert p.min_value == 1.0
        np.testing.assert_array_equal(p.sqrt_values, [2.0, 1.0, 3.0])
        assert len(p) == 3

    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0, 2.0], [np.inf], [np.nan]])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            LipschitzProfile(bad)


class TestGradientBox:
    def test_validates_ordering(self):
        with pytest.raises(ValueError):
            GradientBox([2.0], [1.0])
        with pytest.raises(ValueError):
            GradientBox([-0.5], [1.0])
        with pytest.raises(ValueError):
            GradientBox([], [])

    def test_rejects_nan_upper(self):
        with pytest.raises(ValueError, match="NaN"):
            GradientBox([0.0, 1.0], [1.0, np.nan])

    def test_rejects_nan_lower(self):
        with pytest.raises(ValueError, match="NaN"):
            GradientBox([np.nan, 1.0], [1.0, 2.0])

    def test_rejects_infinite_lower(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            GradientBox([np.inf], [np.inf])


class TestProbabilityVector:
    def test_accepts_valid(self):
        check_probability_vector(np.array([0.25, 0.75]))

    def test_rejects_bad_sum_and_sign(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            check_probability_vector(np.array([-0.1, 1.1]))


class TestEffectiveValue:
    def test_reference_triple(self):
        # V for the lower-, upper- and magnitude-proportional distributions
        # on the box [1,2]x[2,3] with c=(2,2): 9/4, 25/12 and 2 times ||c||^2.
        profile = LipschitzProfile([1.0, 1.0])
        lower = np.array([1.0, 2.0])
        upper = np.array([2.0, 3.0])
        c = np.array([2.0, 2.0])
        norm_sq = float(c @ c)
        assert effective_value(lower / 3.0, c, profile) == pytest.approx(
            9.0 / 4.0 * norm_sq, rel=1e-15
        )
        assert effective_value(upper / 5.0, c, profile) == pytest.approx(
            25.0 / 12.0 * norm_sq, rel=1e-15
        )
        assert effective_value(c / 4.0, c, profile) == pytest.approx(
            2.0 * norm_sq, rel=1e-15
        )

    def test_zero_probability_with_mass_fails(self):
        profile = LipschitzProfile([1.0, 1.0])
        with pytest.raises(ValueError):
            effective_value(np.array([1.0, 0.0]), np.array([1.0, 1.0]), profile)

    def test_zero_zero_convention(self):
        profile = LipschitzProfile([1.0, 1.0])
        value = effective_value(np.array([1.0, 0.0]), np.array([2.0, 0.0]), profile)
        assert value == 4.0

    def test_dimension_mismatch(self):
        profile = LipschitzProfile([1.0])
        with pytest.raises(ValueError):
            effective_value(np.array([1.0, 0.0]), np.array([1.0, 1.0]), profile)


class TestFixedLiSampling:
    def test_two_coordinates(self):
        p, alpha = fixed_li_sampling(LipschitzProfile([1.0, 3.0]))
        np.testing.assert_allclose(p, [0.25, 0.75])
        assert alpha == 0.25

    def test_uniform_constants_give_uniform(self):
        n, level = 7, 2.5
        p, alpha = fixed_li_sampling(LipschitzProfile(np.full(n, level)))
        np.testing.assert_allclose(p, np.full(n, 1.0 / n))
        assert alpha == pytest.approx(1.0 / (level * n), rel=1e-15)

    def test_singleton(self):
        p, alpha = fixed_li_sampling(LipschitzProfile([2.0]))
        assert p[0] == 1.0 and alpha == 0.5


class TestOptimalSampling:
    def test_hand_example(self):
        p, alpha = optimal_sampling(np.array([3.0, 4.0]), LipschitzProfile([1.0, 1.0]))
        np.testing.assert_allclose(p, [3.0 / 7.0, 4.0 / 7.0])
        assert alpha == pytest.approx(25.0 / 49.0, rel=1e-15)

    def test_symmetry(self):
        n = 5
        p, alpha = optimal_sampling(np.ones(n), LipschitzProfile(np.full(n, 3.0)))
        np.testing.assert_allclose(p, np.full(n, 1.0 / n))
        assert alpha == pytest.approx(1.0 / (3.0 * n), rel=1e-14)

    def test_single_support(self):
        p, alpha = optimal_sampling(np.array([1.0, 0.0]), LipschitzProfile([1.0, 1.0]))
        np.testing.assert_array_equal(p, [1.0, 0.0])
        assert alpha == 1.0

    def test_stationary_point(self):
        with pytest.raises(StationaryPointError):
            optimal_sampling(np.zeros(3), LipschitzProfile([1.0, 1.0, 1.0]))

    def test_alpha_range(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 10))
            profile = LipschitzProfile(rng.uniform(0.1, 10.0, n))
            g = rng.uniform(0.0, 5.0, n)
            if not g.any():
                continue
            _, alpha = optimal_sampling(g, profile)
            assert 1.0 / profile.trace <= alpha * (1 + 1e-12)
            assert alpha <= (1 + 1e-12) / profile.min_value

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_magnitudes_near_the_float_range_rescale_exactly(self, rng, exponent):
        # p and alpha do not depend on the scale of g, and a power of two
        # rescales exactly, so both must come out bit for bit the same even
        # where ||g||^2 would overflow or underflow.
        for _ in range(100):
            n = int(rng.integers(1, 10))
            profile = LipschitzProfile(rng.uniform(0.1, 10.0, n))
            g = rng.uniform(0.0, 5.0, n)
            g[0] += 0.5
            p, alpha = optimal_sampling(g, profile)
            p_far, alpha_far = optimal_sampling(g * 2.0**exponent, profile)
            np.testing.assert_array_equal(p_far, p)
            assert alpha_far == alpha


class TestComputeSafeSampling:
    def test_interior_box(self):
        solution = compute_safe_sampling(
            GradientBox([1.0, 2.0], [2.0, 3.0]), LipschitzProfile([1.0, 1.0])
        )
        np.testing.assert_allclose(solution.certificate, [2.0, 2.0])
        np.testing.assert_allclose(solution.probabilities, [0.5, 0.5])
        assert solution.value == pytest.approx(2.0, rel=1e-15)

    def test_two_pin_box(self):
        solution = compute_safe_sampling(
            GradientBox([1.0, 10.0], [2.0, 11.0]), LipschitzProfile([1.0, 1.0])
        )
        np.testing.assert_allclose(solution.certificate, [2.0, 10.0])
        np.testing.assert_allclose(solution.probabilities, [1.0 / 6.0, 5.0 / 6.0])
        assert solution.value == pytest.approx(144.0 / 104.0, rel=1e-15)

    def test_degenerate_box_recovers_optimal(self):
        g = np.array([3.0, 4.0])
        profile = LipschitzProfile([1.0, 1.0])
        solution = compute_safe_sampling(GradientBox(g, g), profile)
        p_ref, alpha_ref = optimal_sampling(g, profile)
        np.testing.assert_allclose(solution.probabilities, p_ref, rtol=1e-12)
        assert solution.value == pytest.approx(49.0 / 25.0, rel=1e-12)
        assert solution.stepsize == pytest.approx(alpha_ref, rel=1e-12)

    def test_uninformative_box_recovers_static_exactly(self):
        profile = LipschitzProfile([1.0, 3.0, 0.5])
        solution = compute_safe_sampling(
            GradientBox(np.zeros(3), np.full(3, np.inf)), profile
        )
        p_ref, alpha_ref = fixed_li_sampling(profile)
        assert np.array_equal(solution.probabilities, p_ref)
        assert solution.value == profile.trace
        assert solution.stepsize == alpha_ref

    def test_matches_enumeration(self, rng):
        for _ in range(200):
            box, profile = random_instance(rng)
            solution = compute_safe_sampling(box, profile)
            reference, _ = brute_force_minimax(box, profile)
            assert solution.value == pytest.approx(reference, rel=1e-9)

    def test_value_range(self, rng):
        for _ in range(200):
            box, profile = random_instance(rng, allow_infinite=True)
            solution = compute_safe_sampling(box, profile)
            assert profile.min_value * (1 - 1e-12) <= solution.value
            assert solution.value <= profile.trace * (1 + 1e-12)

    def test_solution_invariants(self, rng):
        for _ in range(100):
            box, profile = random_instance(rng, allow_infinite=True)
            s = compute_safe_sampling(box, profile)
            assert np.all(s.certificate >= box.lower - 1e-12)
            assert np.all(s.certificate <= box.upper * (1 + 1e-12) + 1e-12)
            check_probability_vector(s.probabilities)
            weights = profile.sqrt_values * s.certificate
            np.testing.assert_allclose(
                s.probabilities, weights / weights.sum(), rtol=1e-12
            )
            value = weights.sum() ** 2 / (s.certificate @ s.certificate)
            assert s.value == pytest.approx(value, rel=1e-12)

    def test_fixed_point_condition(self, rng):
        # Certificate entries obey the three-branch characterization with
        # m = ||c||^2 / ||sqrt(L) c||_1: below the pivot only when capped
        # at the upper bound, above it only when pinned at the lower one.
        for _ in range(100):
            box, profile = random_instance(rng)
            s = compute_safe_sampling(box, profile)
            m = (s.certificate @ s.certificate) / (
                profile.sqrt_values * s.certificate
            ).sum()
            pivot = profile.sqrt_values * m
            for i in range(box.n):
                c_i = s.certificate[i]
                tol = 1e-12 * max(1.0, pivot[i], c_i)
                if abs(c_i - pivot[i]) <= tol:
                    assert box.lower[i] - tol <= c_i <= box.upper[i] + tol
                elif c_i < pivot[i]:
                    assert c_i == box.upper[i]
                else:
                    assert c_i == box.lower[i]

    def test_scaling_covariance(self, rng):
        for _ in range(50):
            box, profile = random_instance(rng)
            base = compute_safe_sampling(box, profile)
            scaled = compute_safe_sampling(
                GradientBox(box.lower * 4.0, box.upper * 4.0), profile
            )
            np.testing.assert_array_equal(scaled.probabilities, base.probabilities)
            assert scaled.value == base.value

    def test_zero_upper_coordinates_are_excluded(self):
        profile = LipschitzProfile([1.0, 2.0, 4.0])
        box = GradientBox([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
        s = compute_safe_sampling(box, profile)
        assert s.probabilities[0] == 0.0
        assert s.certificate[0] == 0.0
        check_probability_vector(s.probabilities)
        sub_box = GradientBox([1.0, 2.0], [2.0, 3.0])
        sub_profile = LipschitzProfile([2.0, 4.0])
        assert s.value == compute_safe_sampling(sub_box, sub_profile).value

    def test_all_zero_upper_signals_stationary(self):
        with pytest.raises(StationaryPointError):
            compute_safe_sampling(
                GradientBox([0.0, 0.0], [0.0, 0.0]), LipschitzProfile([1.0, 1.0])
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compute_safe_sampling(GradientBox([0.0], [1.0]), LipschitzProfile([1.0, 2.0]))

    def test_exact_boundary_ties_take_interior_branch(self):
        # A bound exactly at the pivot is not a violation; the coordinate
        # stays interior and lands on that common value.
        profile = LipschitzProfile([1.0, 1.0])
        s = compute_safe_sampling(GradientBox([2.0, 1.0], [2.0, 3.0]), profile)
        np.testing.assert_array_equal(s.certificate, [2.0, 2.0])
        assert s.value == pytest.approx(2.0, rel=1e-15)

    def test_extreme_scales_match_enumeration(self, rng):
        for scale in (1e-8, 1e8):
            for _ in range(50):
                n = int(rng.integers(1, 7))
                profile = LipschitzProfile(rng.uniform(1e-3, 1e3, n))
                lower = rng.uniform(0.0, 2.0, n) * scale
                upper = lower + rng.uniform(0.0, 3.0, n) * scale
                box = GradientBox(lower, upper)
                s = compute_safe_sampling(box, profile)
                reference, _ = brute_force_minimax(box, profile)
                assert s.value == pytest.approx(reference, rel=1e-9)
                assert np.all(s.certificate >= box.lower)
                assert np.all(s.certificate <= box.upper)

    def test_fixed_point_at_large_dimension(self, rng):
        # The enumeration oracle stops at n = 8; at n = 1e5 the three-branch
        # characterization is still checkable directly and certifies
        # optimality through the KKT structure.
        n = 100_000
        profile = LipschitzProfile(rng.uniform(0.5, 2.0, n))
        lower = np.abs(rng.standard_normal(n))
        upper = lower + np.abs(rng.standard_normal(n))
        box = GradientBox(lower, upper)
        s = compute_safe_sampling(box, profile)
        c = s.certificate
        m = float(c @ c) / float(np.sum(profile.sqrt_values * c))
        pivot = profile.sqrt_values * m
        tol = 1e-9 * np.maximum(1.0, pivot)
        interior = np.abs(c - pivot) <= tol
        at_upper = (c == upper) & (upper <= pivot + tol)
        at_lower = (c == lower) & (lower >= pivot - tol)
        assert np.all(interior | at_upper | at_lower)
        assert np.all(c >= lower) and np.all(c <= upper)
        # No sampled in-box point may beat the returned value.
        points = lower + rng.random((200, n)) * (upper - lower)
        weighted = points @ profile.sqrt_values
        values = weighted**2 / np.einsum("ij,ij->i", points, points)
        assert np.all(values <= s.value * (1 + 1e-12))

    def test_positive_lower_infinite_upper(self):
        # The free-scale fallback still has to respect positive lower bounds.
        profile = LipschitzProfile([1.0, 1.0])
        box = GradientBox([5.0, 5.0], [np.inf, np.inf])
        s = compute_safe_sampling(box, profile)
        assert np.all(s.certificate >= box.lower)
        assert s.value == profile.trace


def assert_fixed_point(box, profile, solution, rtol=1e-9):
    """Three-branch characterization with m = ||c||^2 / <sqrt(L), c>."""
    c = solution.certificate
    m = float(c @ c) / float(np.sum(profile.sqrt_values * c))
    pivot = profile.sqrt_values * m
    tol = rtol * np.maximum(1.0, pivot)
    interior = np.abs(c - pivot) <= tol
    at_upper = (c == box.upper) & (box.upper <= pivot + tol)
    at_lower = (c == box.lower) & (box.lower >= pivot - tol)
    assert np.all(interior | at_upper | at_lower)
    assert np.all(c >= box.lower) and np.all(c <= box.upper)


def structured_instance(rng, kind, n):
    """Boxes whose breakpoints t = bound / sqrt(L) tie, collapse or vanish.

    Square smoothness constants and dyadic levels keep sqrt(L) * t exact,
    so tied transformed bounds are tied bit for bit.
    """
    profile = LipschitzProfile(rng.choice([0.25, 1.0, 4.0, 9.0], n))
    sqrt_l = profile.sqrt_values
    levels = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    t_low = rng.choice(levels, n)
    t_up = t_low + rng.choice(levels, n)
    exact = np.zeros(n, dtype=bool)
    if kind in ("zero_width", "mixed"):
        exact = (rng.random(n) < 0.5) & (t_low > 0.0)
        t_up = np.where(exact, t_low, t_up)
    if kind in ("infinite_upper", "mixed"):
        t_up = np.where(~exact & (rng.random(n) < 0.3), np.inf, t_up)
    t_up = np.where(t_up == 0.0, 0.5, t_up)
    return GradientBox(sqrt_l * t_low, sqrt_l * t_up), profile


def capped_copy(box, profile):
    """Same minimax value with every infinite upper bound made finite.

    The pivot stays below max_i l_i / sqrt(L_i), so an upper bound above
    that level is never active and may replace +inf.
    """
    level = max(2.0 * float(np.max(box.lower / profile.sqrt_values)), 1.0)
    upper = np.where(np.isfinite(box.upper), box.upper, profile.sqrt_values * level)
    return GradientBox(box.lower, upper)


class TestStructuredBoxes:
    KINDS = ["ties", "zero_width", "infinite_upper", "mixed"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_enumeration(self, rng, kind):
        for _ in range(150):
            box, profile = structured_instance(rng, kind, int(rng.integers(1, 9)))
            s = compute_safe_sampling(box, profile)
            reference, _ = brute_force_minimax(capped_copy(box, profile), profile)
            assert s.value == pytest.approx(reference, rel=1e-9)
            check_probability_vector(s.probabilities)
            assert_fixed_point(box, profile, s)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fixed_point_at_large_dimension(self, rng, kind):
        box, profile = structured_instance(rng, kind, 10_000)
        s = compute_safe_sampling(box, profile)
        assert profile.min_value <= s.value <= profile.trace
        check_probability_vector(s.probabilities)
        assert_fixed_point(box, profile, s)

    def test_uninformative_exit_is_static_at_large_dimension(self, rng):
        # Cauchy-Schwarz shape: small lower bounds, and upper bounds that are
        # either infinite or at least as large as every scaled lower bound.
        n = 10_000
        profile = LipschitzProfile(rng.uniform(0.5, 2.0, n))
        sqrt_l = profile.sqrt_values
        lower = sqrt_l * rng.uniform(0.0, 1.0, n)
        upper = np.where(rng.random(n) < 0.5, np.inf, sqrt_l * rng.uniform(1.0, 3.0, n))
        s = compute_safe_sampling(GradientBox(lower, upper), profile)
        assert np.array_equal(s.probabilities, profile.values / profile.trace)
        assert s.value == profile.trace
        assert s.stepsize == 1.0 / profile.trace
        assert np.all(s.certificate >= lower) and np.all(s.certificate <= upper)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_exact_box_is_full_information(self, rng, n):
        # Zero-width intervals everywhere, some at zero: the solve returns
        # c = g, p ~ sqrt(L) |g| and v = ||sqrt(L) g||_1^2 / ||g||^2.
        for _ in range(100):
            profile = LipschitzProfile(rng.uniform(0.1, 10.0, n))
            g = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7)
            if not g.any():
                g[rng.integers(n)] = rng.uniform(0.1, 2.0)
            box = GradientBox(g, g)
            s = compute_safe_sampling(box, profile)
            p_ref, alpha_ref = optimal_sampling(g, profile)
            np.testing.assert_allclose(s.probabilities, p_ref, rtol=1e-12, atol=0.0)
            assert s.stepsize == pytest.approx(alpha_ref, rel=1e-12)
            np.testing.assert_array_equal(s.certificate, g)
            reference, _ = brute_force_minimax(box, profile)
            assert s.value == pytest.approx(reference, rel=1e-12)

    def test_all_exact_box_at_large_dimension(self, rng):
        n = 10_000
        profile = LipschitzProfile(rng.uniform(0.5, 2.0, n))
        g = rng.standard_normal(n) ** 2 * (rng.random(n) < 0.9)
        s = compute_safe_sampling(GradientBox(g, g), profile)
        p_ref, alpha_ref = optimal_sampling(g, profile)
        np.testing.assert_allclose(s.probabilities, p_ref, rtol=1e-12, atol=0.0)
        assert s.stepsize == pytest.approx(alpha_ref, rel=1e-12)

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_boxes_near_the_float_range_rescale_exactly(self, rng, exponent):
        # Every branch of the solve is scale-covariant, and a power of two
        # rescales exactly: p and v must come out bit for bit the same, and
        # the certificate scaled by the same power, even where the squares
        # of the bounds would overflow or underflow.
        factor = 2.0**exponent
        cases = [random_instance(rng) for _ in range(100)]
        cases += [random_instance(rng, allow_infinite=True) for _ in range(100)]
        cases += [
            structured_instance(rng, kind, int(rng.integers(1, 9)))
            for kind in self.KINDS
            for _ in range(50)
        ]
        for box, profile in cases:
            base = compute_safe_sampling(box, profile)
            far = compute_safe_sampling(
                GradientBox(box.lower * factor, box.upper * factor), profile
            )
            np.testing.assert_array_equal(far.probabilities, base.probabilities)
            assert far.value == base.value
            if box.lower.any() or np.isfinite(box.upper).any():
                # (A box of [0, inf) everywhere has no scale to follow.)
                np.testing.assert_array_equal(far.certificate, base.certificate * factor)

    def test_exact_boxes_with_near_zero_magnitudes(self):
        # Two exact coordinates, one of them within rounding of zero: the
        # pivot lands within an ulp of a breakpoint and must be clamped there,
        # not rejected by the gap assertion.
        rng = np.random.default_rng(0)
        for _ in range(20_000):
            profile = LipschitzProfile(rng.uniform(0.5, 3.0, 2))
            g = np.array([rng.uniform(0.1, 2.0), rng.uniform(0.0, 1e-15)])
            s = compute_safe_sampling(GradientBox(g, g), profile)
            p_ref, alpha_ref = optimal_sampling(g, profile)
            np.testing.assert_allclose(s.probabilities, p_ref, rtol=1e-12, atol=1e-15)
            assert s.stepsize == pytest.approx(alpha_ref, rel=1e-12)


def zero_bound_instance(rng, branch, n):
    """A box of n >= 3 directions with some upper bounds exactly 0 (the
    first, and perhaps others) that takes ``branch`` of the solve on the
    positive ones."""
    profile = LipschitzProfile(rng.uniform(0.5, 2.0, n))
    sqrt_l = profile.sqrt_values
    zero = rng.random(n) < 0.3
    zero[0], zero[1], zero[-1] = True, False, False
    if branch == "exit":
        # Every t^l at most a common level, every t^u at least it.
        level = rng.uniform(0.5, 2.0)
        lower = sqrt_l * level * rng.uniform(0.0, 0.9, n)
        upper = sqrt_l * level * rng.uniform(1.1, 3.0, n)
    else:
        lower = rng.uniform(0.0, 2.0, n)
        upper = lower + rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.8)
        # The largest t^l exceeds the smallest positive t^u.
        lower[1], upper[1] = 0.0, 0.5 * sqrt_l[1]
        lower[-1], upper[-1] = 3.0 * sqrt_l[-1], 4.0 * sqrt_l[-1]
        if branch == "all_exact":
            lower = upper
    lower = np.where(zero, 0.0, lower)
    upper = np.where(zero, 0.0, upper)
    return GradientBox(lower, upper), profile


def solve_branch(box, profile):
    """Which branch of the solve the positive upper bounds select."""
    positive = box.upper > 0.0
    t_low = box.lower / profile.sqrt_values
    t_up = box.upper[positive] / profile.sqrt_values[positive]
    if t_low.max() <= t_up.min():
        return "exit"
    return "all_exact" if np.array_equal(box.lower, box.upper) else "sorted"


def compacted_solve(box, profile):
    """The solve restricted to the positive upper bounds on its own
    profile, with c = p = 0 scattered back at the zero bounds."""
    positive = box.upper > 0.0
    sub = compute_safe_sampling(
        GradientBox(box.lower[positive], box.upper[positive]),
        LipschitzProfile(profile.values[positive]),
    )
    c = np.zeros(box.n)
    p = np.zeros(box.n)
    c[positive] = sub.certificate
    p[positive] = sub.probabilities
    return c, p, sub.value


class TestZeroUpperBounds:
    BRANCHES = ["exit", "sorted", "all_exact"]

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_matches_enumeration(self, rng, branch):
        for _ in range(100):
            box, profile = zero_bound_instance(rng, branch, int(rng.integers(3, 9)))
            assert solve_branch(box, profile) == branch
            s = compute_safe_sampling(box, profile)
            zero = box.upper == 0.0
            assert np.all(s.probabilities[zero] == 0.0)
            assert np.all(s.certificate[zero] == 0.0)
            check_probability_vector(s.probabilities)
            reference, _ = brute_force_minimax(box, profile)
            assert s.value == pytest.approx(reference, rel=1e-9)
            assert np.all(s.certificate >= box.lower) and np.all(s.certificate <= box.upper)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_matches_the_compacted_solve_at_large_dimension(self, rng, branch):
        box, profile = zero_bound_instance(rng, branch, 10_000)
        assert solve_branch(box, profile) == branch
        s = compute_safe_sampling(box, profile)
        c, p, v = compacted_solve(box, profile)
        if branch == "exit":
            np.testing.assert_array_equal(s.certificate, c)
            np.testing.assert_array_equal(s.probabilities, p)
            assert s.value == v
        else:
            np.testing.assert_allclose(s.certificate, c, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(s.probabilities, p, rtol=1e-12, atol=0.0)
            assert s.value == pytest.approx(v, rel=1e-12)

    def test_exit_without_zeros_returns_the_static_array(self, rng):
        box, profile = zero_bound_instance(rng, "exit", 50)
        upper = np.where(box.upper == 0.0, np.inf, box.upper)
        s = compute_safe_sampling(GradientBox(box.lower, upper), profile)
        assert s.probabilities is profile.static_probabilities


class TestStepsize:
    def test_reciprocal(self):
        s = compute_safe_sampling(GradientBox(np.ones(1), np.ones(1)), LipschitzProfile([2.0]))
        assert s.value == 2.0
        assert s.stepsize == 0.5

    def test_range(self, rng):
        for _ in range(100):
            box, profile = random_instance(rng, allow_infinite=True)
            s = compute_safe_sampling(box, profile)
            step = s.stepsize
            assert 1.0 / profile.trace <= step * (1 + 1e-12)
            assert step <= (1 + 1e-12) / profile.min_value


class TestDrawIndex:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        p = np.array([1.0, 0.0, 0.0])
        assert all(draw_index(p, rng) == 0 for _ in range(50))

    def test_zero_entries_never_drawn(self):
        rng = np.random.default_rng(0)
        p = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        draws = {draw_index(p, rng) for _ in range(500)}
        assert draws <= {1, 3}

    @pytest.mark.parametrize("p0", [0.5, 1.0 / 6.0])
    def test_frequencies(self, p0):
        rng = np.random.default_rng(42)
        p = np.array([p0, 1.0 - p0])
        n_draws = 1_000_000
        hits = sum(draw_index(p, rng) == 0 for _ in range(n_draws))
        sigma = np.sqrt(p0 * (1.0 - p0) / n_draws)
        assert abs(hits / n_draws - p0) <= 3.0 * sigma


class TestCompetitiveRatio:
    def test_degenerate_box_is_exactly_one(self):
        g = np.array([3.0, 4.0])
        profile = LipschitzProfile([2.0, 1.0])
        box = GradientBox(g, g)
        s = compute_safe_sampling(box, profile)
        assert competitive_ratio_bound(box, profile, s.value) == 1.0

    def test_unbounded_box_rejected(self):
        profile = LipschitzProfile([1.0, 1.0])
        box = GradientBox([0.0, 0.0], [1.0, np.inf])
        with pytest.raises(DiagnosticUnavailableError):
            competitive_ratio_bound(box, profile, profile.trace)

    def test_gap_separated_boxes(self, rng):
        for gamma in (1.1, 1.5, 2.0):
            for _ in range(20):
                n = int(rng.integers(2, 7))
                lower = rng.uniform(0.5, 3.0, n)
                upper = lower * (1.0 + (gamma - 1.0) * rng.uniform(0.0, 0.999, n))
                profile = LipschitzProfile(rng.uniform(0.5, 2.0, n))
                box = GradientBox(lower, upper)
                s = compute_safe_sampling(box, profile)
                ratio = competitive_ratio_bound(box, profile, s.value)
                assert 1.0 - 1e-12 <= ratio <= gamma**4 + 1e-6

    def test_matches_grid_minimum(self):
        profile = LipschitzProfile([1.0, 1.0])
        box = GradientBox([1.0, 2.0], [2.0, 3.0])
        s = compute_safe_sampling(box, profile)
        axes = [np.linspace(lo, hi, 300) for lo, hi in zip(box.lower, box.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        weighted = pts @ profile.sqrt_values
        w_grid = float(np.min(weighted**2 / np.einsum("ij,ij->i", pts, pts)))
        ratio = competitive_ratio_bound(box, profile, s.value)
        assert ratio == pytest.approx(s.value / w_grid, rel=2e-2)
        assert ratio <= s.value / w_grid * (1 + 1e-9)
