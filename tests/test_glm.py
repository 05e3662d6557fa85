import numpy as np
import pytest

from adasamp import glm
from adasamp.data import SparseDesign
from adasamp.oracle import finite_difference_gradient

from conftest import make_problem


def identity_problem(labels, reg="l2", lam=0.0, loss="square"):
    n = len(labels)
    return glm.GlmProblem(
        SparseDesign.from_matrix(np.eye(n)), np.asarray(labels, float), loss, reg, lam
    )


class TestLossModels:
    def test_square(self):
        assert glm.SquareLoss.value(3.0, 1.0) == 2.0
        assert glm.SquareLoss.derivative(3.0, 1.0) == 2.0

    def test_logistic_at_zero(self):
        assert glm.LogisticLoss.value(0.0, 1.0) == pytest.approx(np.log(2.0), rel=1e-15)
        assert glm.LogisticLoss.derivative(0.0, 1.0) == -0.5

    def test_squared_hinge_flat_region(self):
        assert glm.SquaredHingeLoss.value(2.0, 1.0) == 0.0
        assert glm.SquaredHingeLoss.derivative(2.0, 1.0) == 0.0
        assert glm.SquaredHingeLoss.value(0.0, 1.0) == 1.0

    @pytest.mark.parametrize("name", sorted(glm.LOSSES))
    def test_derivative_matches_finite_difference(self, name, rng):
        loss = glm.LOSSES[name]
        z = rng.uniform(-3.0, 3.0, 100)
        b = np.sign(rng.standard_normal(100)) if name != "square" else rng.uniform(-2, 2, 100)
        b[b == 0] = 1.0
        h = 1e-6
        numeric = (loss.value(z + h, b) - loss.value(z - h, b)) / (2 * h)
        np.testing.assert_allclose(loss.derivative(z, b), numeric, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("name", sorted(glm.LOSSES))
    def test_curvature_bounds_derivative_slope(self, name, rng):
        loss = glm.LOSSES[name]
        z1 = rng.uniform(-4.0, 4.0, 500)
        z2 = rng.uniform(-4.0, 4.0, 500)
        b = np.sign(rng.standard_normal(500)) if name != "square" else rng.uniform(-2, 2, 500)
        b[b == 0] = 1.0
        slope = np.abs(loss.derivative(z1, b) - loss.derivative(z2, b))
        assert np.all(slope <= loss.curvature_sup * np.abs(z1 - z2) + 1e-12)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            glm.make_loss("huber")


class TestProblemValidation:
    def test_label_dimension(self):
        with pytest.raises(ValueError):
            glm.GlmProblem(
                SparseDesign.from_matrix(np.eye(2)), np.ones(3), "square", "l2", 0.1
            )

    def test_negative_lambda(self):
        with pytest.raises(ValueError):
            identity_problem([1.0], lam=-1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            identity_problem([1.0], lam=lam)

    @pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
    def test_non_finite_labels(self, label):
        with pytest.raises(ValueError, match="labels"):
            identity_problem([1.0, label])

    def test_unknown_reg(self):
        with pytest.raises(ValueError):
            glm.GlmProblem(
                SparseDesign.from_matrix(np.eye(2)), np.ones(2), "square", "elastic", 0.1
            )


class TestObjective:
    def test_zero_at_minimum(self):
        problem = identity_problem([0.0, 0.0])
        assert glm.objective(problem, np.zeros(2), method="cd") == 0.0

    def test_plugin_value(self):
        problem = identity_problem([1.0, 1.0])
        assert glm.objective(problem, np.zeros(2), method="cd") == 1.0

    def test_logistic_log2_per_sample(self):
        problem = identity_problem([1.0, -1.0, 1.0], loss="logistic")
        cd = glm.objective(problem, np.zeros(3), method="cd")
        sgd = glm.objective(problem, np.zeros(3), method="sgd")
        assert cd == pytest.approx(3 * np.log(2.0), rel=1e-15)
        assert sgd == pytest.approx(np.log(2.0), rel=1e-15)

    def test_regularizers(self):
        x = np.array([1.0, -2.0])
        l1 = identity_problem([0.0, 0.0], reg="l1", lam=0.5)
        l2 = identity_problem([0.0, 0.0], reg="l2", lam=0.5)
        assert glm.regularizer_value(l1, x) == 0.5 * 3.0
        assert glm.regularizer_value(l2, x) == 0.5 * 5.0

    def test_dimension_check(self):
        problem = identity_problem([0.0, 0.0])
        with pytest.raises(ValueError):
            glm.objective(problem, np.zeros(3))


class TestCoordinateGradient:
    def test_identity_residual(self):
        problem = identity_problem([1.0, 1.0])
        state = glm.CdState(problem)
        assert glm.coordinate_gradient(problem, state, 0) == -1.0

    def test_l2_term_added(self):
        problem = identity_problem([0.0, 0.0], reg="l2", lam=0.1)
        state = glm.CdState(problem, np.array([2.0, 0.0]))
        smooth = glm.smooth_coordinate_gradient(problem, state, 0)
        assert glm.coordinate_gradient(problem, state, 0) == pytest.approx(
            smooth + 0.4, rel=1e-15
        )

    @pytest.mark.parametrize("loss", ["square", "logistic", "squared_hinge"])
    def test_matches_finite_difference(self, loss, rng):
        problem = make_problem(d=15, n=7, loss=loss, lam=0.0, seed=21)
        for _ in range(10):
            x = rng.standard_normal(problem.n_features)
            state = glm.CdState(problem, x)
            numeric = finite_difference_gradient(problem, x)
            for i in range(problem.n_features):
                got = glm.smooth_coordinate_gradient(problem, state, i)
                assert got == pytest.approx(numeric[i], rel=1e-5, abs=1e-6)

    def test_full_gradient_consistency(self, rng):
        problem = make_problem(d=15, n=7, reg="l2", lam=0.3, seed=2)
        x = rng.standard_normal(problem.n_features)
        state = glm.CdState(problem, x)
        full = glm.full_gradient(problem, state)
        per = np.array(
            [glm.coordinate_gradient(problem, state, i) for i in range(problem.n_features)]
        )
        np.testing.assert_allclose(full, per, rtol=1e-12, atol=1e-12)


class TestComponentGradient:
    def test_unit_row(self):
        design = np.zeros((2, 3))
        design[0, 0] = 1.0
        design[1, 1] = 1.0
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(design), np.zeros(2), "square", "l2", 0.0
        )
        x = np.array([2.0, 0.0, 0.0])
        assert glm.component_gradient_norm(problem, x, 0) == 2.0

    def test_matches_dense_oracle(self, rng):
        problem = make_problem(d=10, n=6, loss="logistic", seed=5)
        dense = problem.design.toarray()
        x = rng.standard_normal(problem.n_features)
        for i in range(problem.n_samples):
            z = float(dense[i] @ x)
            grad = problem.loss.derivative(z, problem.labels[i]) * dense[i]
            assert glm.component_gradient_norm(problem, x, i) == pytest.approx(
                float(np.linalg.norm(grad)), rel=1e-12
            )

    def test_flat_hinge_region(self):
        problem = identity_problem([1.0, 1.0], loss="squared_hinge")
        x = np.array([2.0, 2.0])
        assert glm.component_gradient_norm(problem, x, 0) == 0.0


class TestLipschitz:
    def test_square_unit_columns(self):
        problem = make_problem(d=30, n=5, lam=0.0, unit_columns=True)
        profile = glm.coordinate_lipschitz(problem)
        np.testing.assert_allclose(profile.values, 1.0, rtol=1e-12)

    def test_logistic_with_l2(self):
        design = np.zeros((4, 1))
        design[:, 0] = 1.0  # norm^2 = 4
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(design), np.ones(4), "logistic", "l2", 0.1
        )
        profile = glm.coordinate_lipschitz(problem)
        assert profile.values[0] == pytest.approx(4.0 / 4.0 + 0.2, rel=1e-12)

    def test_squared_hinge_unit(self):
        problem = make_problem(d=30, n=4, loss="squared_hinge", lam=0.0, unit_columns=True)
        profile = glm.coordinate_lipschitz(problem)
        np.testing.assert_allclose(profile.values, 2.0, rtol=1e-12)

    def test_zero_column_floor(self):
        design = np.zeros((3, 2))
        design[:, 0] = 1.0
        problem = glm.GlmProblem(
            SparseDesign.from_matrix(design), np.ones(3), "square", "l1", 0.0
        )
        profile = glm.coordinate_lipschitz(problem)
        assert profile.values[1] == glm.LIPSCHITZ_FLOOR

    @pytest.mark.parametrize("loss", ["square", "logistic", "squared_hinge"])
    def test_certifies_descent_lemma(self, loss, rng):
        problem = make_problem(d=12, n=6, loss=loss, lam=0.0, seed=11)
        profile = glm.coordinate_lipschitz(problem)
        for _ in range(100):
            x = rng.standard_normal(problem.n_features)
            i = int(rng.integers(problem.n_features))
            eta = rng.uniform(-2.0, 2.0)
            state = glm.CdState(problem, x)
            fx = glm.objective(problem, x, method="cd")
            g = glm.smooth_coordinate_gradient(problem, state, i)
            stepped = x.copy()
            stepped[i] += eta
            f_step = glm.objective(problem, stepped, method="cd")
            bound = fx + eta * g + 0.5 * profile.values[i] * eta * eta
            assert f_step <= bound + 1e-9

    def test_component_lipschitz_uses_rows(self):
        problem = make_problem(d=7, n=4, lam=0.0, seed=8)
        profile = glm.component_lipschitz(problem)
        np.testing.assert_allclose(
            profile.values,
            np.maximum(problem.design.row_norms**2, glm.LIPSCHITZ_FLOOR),
            rtol=1e-12,
        )


class TestProx:
    def test_l1_dead_zone(self):
        assert glm.prox_step("l1", 1.0, 1.0, 0.5) == 0.0

    def test_l1_shrink(self):
        assert glm.prox_step("l1", 1.0, 1.0, 3.0) == 2.0
        assert glm.prox_step("l1", 1.0, 1.0, -3.0) == -2.0

    def test_zero_scale_identity(self):
        assert glm.prox_step("l1", 1.0, 0.0, 0.5) == 0.5
        assert glm.prox_step("l2", 1.0, 0.0, 0.5) == 0.5

    def test_l2_shrink(self):
        assert glm.prox_step("l2", 0.5, 2.0, 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_vectorized(self):
        out = glm.prox_step("l1", 1.0, 0.5, np.array([1.0, -0.2, 0.2]))
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0])

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            glm.prox_step("l1", 1.0, -0.5, 1.0)


class TestCdState:
    def test_margin_cache_tracks_many_updates(self, rng):
        problem = make_problem(d=30, n=15, seed=7)
        state = glm.CdState(problem)
        for _ in range(10_000):
            i = int(rng.integers(problem.n_features))
            state.apply_step(i, float(rng.standard_normal() * 0.1))
        fresh = problem.design.csr @ state.x
        assert np.max(np.abs(state.margins - fresh)) <= 1e-10

    def test_x_view_is_read_only(self):
        state = glm.CdState(make_problem())
        with pytest.raises(ValueError):
            state.x[0] = 1.0
