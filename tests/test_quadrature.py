import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefocp.quadrature import (
    SingularMatrixError,
    condition_estimate,
    gamma,
    gauss_jacobi_left,
    gauss_jacobi_right,
    gauss_legendre,
    graded_breakpoints,
    integrate_piecewise,
    solve_linear,
    solve_spd,
    spd_factor,
)


class TestGamma:
    def test_one(self):
        assert gamma(1.0) == 1.0

    def test_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_recurrence_at_1p9(self):
        assert gamma(1.9) == pytest.approx(0.9 * gamma(0.9), rel=1e-13)

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_recurrence_property(self, x):
        assert abs(gamma(x + 1.0) - x * gamma(x)) <= 1e-12 * gamma(x + 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-1.5)
        with pytest.raises(ValueError):
            gamma(float("nan"))


class TestGaussLegendre:
    def test_midpoint_rule(self):
        rule = gauss_legendre(1, 0.0, 1.0)
        assert rule.nodes[0] == pytest.approx(0.5)
        assert rule.weights[0] == pytest.approx(1.0)

    def test_two_point_rule(self):
        rule = gauss_legendre(2, -1.0, 1.0)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)])
        np.testing.assert_allclose(rule.weights, [1.0, 1.0])

    def test_degree_31_monomial(self):
        rule = gauss_legendre(16, 0.0, 1.0)
        assert rule.integrate(lambda t: t**31) == pytest.approx(1 / 32, rel=1e-13)

    def test_exactness_up_to_2n_minus_1(self):
        for n in (2, 4, 8):
            rule = gauss_legendre(n, 0.0, 1.0)
            for d in range(2 * n):
                assert rule.integrate(lambda t, d=d: t**d) == pytest.approx(
                    1.0 / (d + 1), rel=1e-13
                )

    def test_nodes_interior_weights_positive(self):
        rule = gauss_legendre(12, 0.25, 0.75)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > 0.25 and rule.nodes[-1] < 0.75
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(0.5)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 0.0)


class TestGaussJacobiRight:
    def test_zero_exponent_matches_legendre(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(6)
        poly = np.polynomial.Polynomial(coeffs)
        gj = gauss_jacobi_right(8, 0.0, 1.0, 0.0)
        gl = gauss_legendre(8, 0.0, 1.0)
        assert gj.integrate(poly) == pytest.approx(gl.integrate(poly), abs=1e-12)

    def test_inverse_sqrt_weight(self):
        rule = gauss_jacobi_right(4, 0.0, 1.0, -0.5)
        assert rule.integrate(lambda t: np.ones_like(t)) == pytest.approx(2.0)

    def test_beta_identity(self):
        rule = gauss_jacobi_right(8, 0.0, 1.0, -0.1)
        expected = gamma(2.0) * gamma(0.9) / gamma(2.9)
        assert rule.integrate(lambda t: t) == pytest.approx(expected, rel=1e-12)

    def test_rejects_exponent_at_minus_one(self):
        with pytest.raises(ValueError):
            gauss_jacobi_right(4, 0.0, 1.0, -1.0)

    @pytest.mark.parametrize("exponent", [-0.9, -0.5, -0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [12, 24])
    def test_weights_match_golub_welsch(self, n, exponent):
        """Weights against a 40-digit Golub-Welsch rule (eigenvectors of the
        Jacobi matrix); scipy's roots_jacobi misses this by up to 6e-13."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a = mp.mpf(exponent)
            J = mp.zeros(n, n)
            J[0, 0] = -a / (a + 2)
            for i in range(1, n):
                c = 2 * i + a
                J[i, i] = -a * a / (c * (c + 2))
                J[i, i - 1] = J[i - 1, i] = 2 * i * (i + a) / (c * mp.sqrt((c + 1) * (c - 1)))
            nodes, vectors = mp.eigsy(J)
            total = 2 ** (a + 1) / (a + 1)
            ref = sorted(
                (float(nodes[i]), float(total * vectors[0, i] ** 2)) for i in range(n)
            )
        w_ref = np.array([w for _, w in ref])
        w = gauss_jacobi_right(n, -1.0, 1.0, exponent).weights
        assert np.abs(w - w_ref).sum() <= 5e-14 * w_ref.sum()

    def test_left_rule_mirrors_right(self):
        rule = gauss_jacobi_left(8, 0.0, 2.0, 0.5)
        # int_0^2 t^0.5 t^2 dt = 2^3.5 / 3.5
        assert rule.integrate(lambda t: t**2) == pytest.approx(2**3.5 / 3.5, rel=1e-14)


class TestIntegratePiecewise:
    def test_constant(self):
        assert integrate_piecewise(
            lambda t: np.ones_like(t), [0.0, 0.5, 1.0]
        ) == pytest.approx(1.0)

    def test_quadratic(self):
        assert integrate_piecewise(lambda t: t**2, [0.0, 1.0]) == pytest.approx(
            1 / 3, rel=1e-13
        )

    def test_fractional_power_with_breakpoint(self):
        bp = graded_breakpoints([0.0, 0.5 ** (1 / 0.9), 1.0])
        assert integrate_piecewise(lambda t: t**0.9, bp) == pytest.approx(
            1 / 1.9, rel=1e-12
        )

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            integrate_piecewise(lambda t: t, [0.0, 0.9])
        with pytest.raises(ValueError):
            integrate_piecewise(lambda t: t, [0.0, 0.7, 0.3, 1.0])


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(solve_linear(np.eye(3), b), b)

    def test_gram_column_gives_unit_vector(self, mats_plain):
        D = mats_plain.D
        x = solve_linear(D, D[:, 0])
        expected = np.zeros(D.shape[0])
        expected[0] = 1.0
        np.testing.assert_allclose(x, expected, atol=1e-10)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_spd_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((8, 8))
        A = B @ B.T + 8.0 * np.eye(8)
        x = rng.standard_normal(8)
        b = A @ x
        np.testing.assert_allclose(solve_linear(A, b), x, atol=1e-9)
        residual = np.abs(A @ solve_linear(A, b) - b).max()
        assert residual <= 1e-10 * (1.0 + np.abs(b).max())

    def test_singular_raises_with_pivot(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(A, np.array([1.0, 2.0]))
        assert err.value.pivot >= 0.0

    def test_solve_spd_matches_solve_linear(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((6, 6))
        A = B @ B.T + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        np.testing.assert_allclose(solve_spd(A, b), solve_linear(A, b), atol=1e-11)

    def test_solve_spd_with_stored_factor(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((6, 6))
        A = B @ B.T + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        assert np.array_equal(solve_spd(A, b, spd_factor(A)), solve_spd(A, b))

    def test_indefinite_falls_back_to_pivoted_solve(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        b = np.array([1.0, -1.0])
        assert spd_factor(A) is None
        np.testing.assert_allclose(solve_spd(A, b), solve_linear(A, b), atol=1e-15)
        with pytest.raises(SingularMatrixError):
            solve_spd(np.array([[1.0, 2.0], [2.0, 4.0]]), b)


def test_condition_estimate_identity():
    assert condition_estimate(np.eye(4)) == pytest.approx(1.0)


def test_graded_breakpoints_refine_toward_ends():
    pts = graded_breakpoints([0.0, 1.0], levels=4, ratio=0.2)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)
    assert pts[1] == pytest.approx(0.2**4)
