import math

import numpy as np
import pytest
import scipy.linalg

from conftest import COST_TABLE, POINTWISE_ERR_U, POINTWISE_ERR_X
from wavefocp import solver
from wavefocp.basis import WaveletParams, eval_basis
from wavefocp.fracops import rl_integral
from wavefocp.opmats import build_operational_matrices
from wavefocp.quadrature import gamma
from wavefocp.solver import (
    ConfigurationError,
    FocpProblem,
    _constraint_operators,
    _quadratic_cost,
    cost_via_product_chain,
    discretize,
    reconstruct,
    reconstruct_many,
    solve_discretized,
    solve_focp,
    state_from_coeffs,
)


def example1(mu):
    return FocpProblem(
        p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
        a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
        x0=1.0, mu=mu,
    )


def example3(mu):
    g = gamma(mu + 1.0)
    return FocpProblem(
        p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
        a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
        x0=0.0, mu=mu,
        track_x=lambda z: np.asarray(z, dtype=float) ** mu,
        track_u=lambda z: np.asarray(z, dtype=float) ** mu + g,
    )


class TestProblemValidation:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="q"):
            FocpProblem(
                p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.zeros_like(z),
                a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
                x0=1.0, mu=1.0,
            )

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError, match="p"):
            FocpProblem(
                p_fn=lambda z: -np.ones_like(z), q_fn=lambda z: np.ones_like(z),
                a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
                x0=1.0, mu=1.0,
            )

    def test_allows_zero_p(self):
        FocpProblem(
            p_fn=lambda z: np.zeros_like(z), q_fn=lambda z: np.ones_like(z),
            a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
            x0=1.0, mu=1.0,
        )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            example1(1.2)

    def test_rejects_mismatched_basis_order(self):
        problem = example1(0.8)
        params = WaveletParams(k=2, M=4, mu=0.5)
        with pytest.raises(ConfigurationError):
            discretize(problem, params)

    def test_rejects_mismatched_matrix_order(self):
        problem = example1(0.8)
        params = WaveletParams(k=2, M=4, mu=0.8)
        mats = build_operational_matrices(params, frac_order=0.5)
        with pytest.raises(ConfigurationError):
            discretize(problem, params, mats)


class TestReferenceCosts:
    def test_plain_basis_mu_one(self):
        sol = solve_focp(example1(1.0), WaveletParams(k=2, M=4, mu=1.0),
                         diagnostics=False)
        assert sol.J_value == pytest.approx(0.192909, abs=1e-5)

    @pytest.mark.parametrize("mu", [0.99, 0.95, 0.85, 0.75, 0.5])
    def test_plain_basis_fractional_orders(self, mu):
        sol = solve_focp(example1(mu), WaveletParams(k=2, M=4, mu=1.0),
                         diagnostics=False)
        tol = 1e-4 if mu >= 0.95 else 2e-3
        assert sol.J_value == pytest.approx(COST_TABLE[mu][0], abs=tol)

    def test_pointwise_errors_mu_one(self):
        sol = solve_focp(example1(1.0), WaveletParams(k=2, M=4, mu=1.0),
                         diagnostics=False)
        sqrt2 = math.sqrt(2.0)
        varpi = -0.98
        grid = np.arange(1, 10) / 10.0
        x, u = reconstruct_many(sol, grid)
        ex = np.cosh(sqrt2 * grid) + varpi * np.sinh(sqrt2 * grid)
        eu = (1 + sqrt2 * varpi) * np.cosh(sqrt2 * grid) + (
            sqrt2 + varpi
        ) * np.sinh(sqrt2 * grid)
        assert np.abs(x - ex).max() <= 2e-4
        assert np.abs(u - eu).max() <= 5e-4
        # the published error profile is matched closely, not just bounded
        assert np.abs(x - ex).max() == pytest.approx(max(POINTWISE_ERR_X), abs=2e-5)
        assert np.abs(u - eu).max() == pytest.approx(max(POINTWISE_ERR_U), abs=2e-5)


class TestExactTrackingProblem:
    @pytest.mark.parametrize("mu", [0.5, 0.8, 0.95])
    def test_exact_solution_recovered(self, mu):
        params = WaveletParams(k=2, M=4, mu=mu)
        sol = solve_focp(example3(mu), params, diagnostics=False)
        assert abs(sol.J_value) <= 1e-8
        grid = np.linspace(0.0, 1.0, 200)
        x, u = reconstruct_many(sol, grid)
        assert np.abs(x - grid**mu).max() <= 1e-6
        assert np.abs(u - grid**mu - gamma(mu + 1.0)).max() <= 1e-6


class TestSolutionStructure:
    def test_initial_condition(self):
        # The initial state enters through the integration-matrix identity
        # rather than as a hard constraint, so x(0) matches x0 only up to
        # the basis truncation error; a plain basis solving a fractional
        # problem carries a larger boundary-layer error at the origin.
        for mu, basis_mu, tol in ((1.0, 1.0, 1e-3), (0.7, 0.7, 1e-3),
                                  (0.7, 1.0, 0.1)):
            sol = solve_focp(example1(mu), WaveletParams(k=2, M=4, mu=basis_mu),
                             diagnostics=False)
            x0, _ = reconstruct(sol, 0.0)
            assert x0 == pytest.approx(1.0, abs=tol)

    def test_residual_diagnostics_small(self):
        sol = solve_focp(example1(0.9), WaveletParams(k=2, M=4, mu=0.9))
        assert sol.residuals["constraint"] <= 1e-10
        assert sol.residuals["stationarity"] <= 1e-10
        assert sol.residuals["cost_discrepancy"] <= 1e-10
        assert sol.residuals["dynamics_defect"] <= 1e-2

    @pytest.mark.parametrize("k, M, mu", [(3, 8, 0.9), (2, 4, 0.7)])
    def test_dynamics_defect_matches_scalar_route(self, k, M, mu):
        """The vectorized defect against the point-by-point eval_basis route."""
        problem = FocpProblem(
            p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
            a_fn=lambda z: -1.0 - np.asarray(z), b_fn=lambda z: 1.0 + np.asarray(z) ** 2,
            x0=0.5, mu=mu,
        )
        params = WaveletParams(k=k, M=M, mu=mu)
        sol = solve_focp(problem, params, diagnostics=False)
        C_hat, U_hat = sol.C_hat, sol.U_hat

        def dx(t):
            return np.array([C_hat @ eval_basis(params, ti) for ti in np.atleast_1d(t)])

        scalar = 0.0
        for z in np.linspace(0.02, 1.0, 50):
            x_z = problem.x0 + rl_integral(dx, mu, z, breakpoints=params.breakpoints())
            u_z = U_hat @ eval_basis(params, z)
            residual = dx(z)[0] - (-1.0 - z) * x_z - (1.0 + z**2) * u_z
            scalar = max(scalar, abs(residual))
        vectorized = solver._dynamics_defect(sol.disc, C_hat, U_hat)
        assert vectorized == pytest.approx(scalar, rel=1e-12)

    def test_plain_and_stretched_agree_at_order_one(self):
        """The stretched basis and problem at mu = 1 - 1e-10 approach the plain
        ones at mu = 1; the gaps shrink as about 0.4 (1 - mu)."""
        mu = 1.0 - 1e-10
        sol_a = solve_focp(example1(1.0), WaveletParams(k=2, M=4, mu=1.0),
                           diagnostics=False)
        sol_b = solve_focp(example1(mu), WaveletParams(k=2, M=4, mu=mu),
                           diagnostics=False)
        assert abs(sol_a.J_value - sol_b.J_value) <= 1e-10
        grid = np.linspace(0.0, 1.0, 50)
        xa, ua = reconstruct_many(sol_a, grid)
        xb, ub = reconstruct_many(sol_b, grid)
        assert np.abs(xa - xb).max() <= 1e-10
        assert np.abs(ua - ub).max() <= 1e-10

    def test_cost_scales_with_weights(self):
        base = solve_focp(example1(0.9), WaveletParams(k=2, M=4, mu=0.9),
                          diagnostics=False)
        scaled_problem = FocpProblem(
            p_fn=lambda z: 2.0 * np.ones_like(z),
            q_fn=lambda z: 2.0 * np.ones_like(z),
            a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
            x0=1.0, mu=0.9,
        )
        scaled = solve_focp(scaled_problem, WaveletParams(k=2, M=4, mu=0.9),
                            diagnostics=False)
        assert scaled.J_value == pytest.approx(2.0 * base.J_value, rel=1e-10)
        grid = np.linspace(0.0, 1.0, 20)
        np.testing.assert_allclose(
            reconstruct_many(scaled, grid), reconstruct_many(base, grid), atol=1e-9
        )

    def test_chain_equivalent_cost(self):
        disc = discretize(example1(0.9), WaveletParams(k=2, M=4, mu=0.9))
        sol = solve_discretized(disc, diagnostics=False)
        chained = cost_via_product_chain(disc, sol)
        assert abs(chained - sol.J_value) <= 1e-6

    def test_chain_rejects_tracking_cost(self):
        disc = discretize(example3(0.8), WaveletParams(k=2, M=4, mu=0.8))
        sol = solve_discretized(disc, diagnostics=False)
        with pytest.raises(ValueError):
            cost_via_product_chain(disc, sol)

    def test_constraint_operators_built_once_per_solve(self, monkeypatch):
        calls = []
        original = solver.product_matrix

        def counted(c, mats):
            calls.append(1)
            return original(c, mats)

        monkeypatch.setattr(solver, "product_matrix", counted)
        disc = discretize(example1(0.9), WaveletParams(k=2, M=4, mu=0.9))
        sol = solve_discretized(disc, diagnostics=False)
        assert len(calls) == 2
        assert sol.residuals["constraint"] <= 1e-12

    def test_kkt_feasible_direction_optimality(self):
        disc = discretize(example1(0.9), WaveletParams(k=2, M=4, mu=0.9))
        sol = solve_discretized(disc, diagnostics=False)
        G_A, G_B = _constraint_operators(disc)
        m = disc.params.m_hat
        Pm = disc.mats.Pmu
        G_c = np.eye(m) - G_A @ Pm.T
        constraint = np.hstack([G_c, -G_B])
        null = scipy.linalg.null_space(constraint)
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = null @ rng.standard_normal(null.shape[1])
            d /= np.linalg.norm(d)
            for eps in (1e-3, 1e-2):
                C_pert = sol.C_hat + eps * d[:m]
                U_pert = sol.U_hat + eps * d[m:]
                C2 = state_from_coeffs(C_pert, disc.d1, disc.mats)
                J = _quadratic_cost(disc, C2, U_pert)
                assert J >= sol.J_value - 1e-10
