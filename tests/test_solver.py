import collections
import math

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    COST_TABLE,
    POINTWISE_ERR_U,
    POINTWISE_ERR_X,
    UNSTABLE_PROBLEM_FILE,
    cost_via_product_chain,
    rl_integral_by_segments,
)
from wavefocp import quadrature, solver
from wavefocp.basis import WaveletParams, eval_basis, eval_basis_many
from wavefocp.cli import parse_problem_file
from wavefocp.opmats import build_operational_matrices
from wavefocp.quadrature import SingularMatrixError, gamma, solve_linear
from wavefocp.solver import (
    ConfigurationError,
    FocpProblem,
    _quadratic_cost,
    assemble_kkt,
    discretize,
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

    @pytest.mark.parametrize(
        "built, passed", [((2, 4, 1.0), (2, 4, 0.9)), ((3, 2, 0.9), (2, 4, 0.9))],
        ids=["tw-bundle-ftw-basis", "same-m_hat"],
    )
    def test_rejects_matrices_of_another_basis(self, built, passed):
        """A bundle of the right order built for other basis parameters is
        refused, also where m_hat is the same; solved, the tw bundle with
        ftw params moved the state by 3.6e-2."""
        mats = build_operational_matrices(WaveletParams(*built), frac_order=0.9)
        with pytest.raises(ConfigurationError, match="basis"):
            discretize(example1(0.9), WaveletParams(*passed), mats)


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
            x, _ = reconstruct_many(sol, np.array([0.0]))
            assert x[0] == pytest.approx(1.0, abs=tol)

    def test_residual_diagnostics_small(self):
        sol = solve_focp(example1(0.9), WaveletParams(k=2, M=4, mu=0.9))
        assert sol.residuals["constraint"] <= 1e-10
        assert sol.residuals["stationarity"] <= 1e-10
        assert sol.residuals["cost_discrepancy"] <= 1e-10
        assert sol.residuals["dynamics_defect"] <= 1e-2

    @pytest.mark.parametrize("k, M, mu", [(3, 8, 0.9), (2, 4, 0.7)])
    def test_dynamics_defect_matches_scalar_route(self, k, M, mu):
        """The batched defect against the point-by-point route: eval_basis at
        every node and the segment-by-segment RL reference of conftest."""
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
            x_z = problem.x0 + rl_integral_by_segments(dx, mu, z, params.breakpoints())
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

    def test_discretize_samples_each_function_once(self):
        calls = collections.Counter()

        def counted(name, f):
            def g(z):
                calls[name] += 1
                return f(z)

            return g

        base = example3(0.8)
        problem = FocpProblem(
            p_fn=counted("p", base.p_fn), q_fn=counted("q", base.q_fn),
            a_fn=counted("a", base.a_fn), b_fn=counted("b", base.b_fn), x0=base.x0, mu=0.8,
            track_x=counted("rx", base.track_x), track_u=counted("ru", base.track_u),
        )
        calls.clear()  # the checks of FocpProblem sample p, q and b
        discretize(problem, WaveletParams(k=2, M=4, mu=0.8))
        assert calls == dict.fromkeys(["p", "q", "a", "b", "rx", "ru"], 1)

    def test_kkt_feasible_direction_optimality(self):
        disc = discretize(example1(0.9), WaveletParams(k=2, M=4, mu=0.9))
        sol = solve_discretized(disc, diagnostics=False)
        G_A, G_B = disc.constraint_operators
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


def variable_coefficient(mu):
    return FocpProblem(
        p_fn=lambda z: 1.0 + np.asarray(z), q_fn=lambda z: np.ones_like(z),
        a_fn=lambda z: -1.0 - np.asarray(z) ** 2, b_fn=lambda z: 1.0 + np.sqrt(z),
        x0=1.0, mu=mu, track_x=np.cos,
    )


_PROBLEMS = {"example1": example1, "example3": example3, "variable": variable_coefficient}


class TestStructuredSolve:
    """The reduced-Hessian solve against the dense KKT oracle."""

    @pytest.mark.parametrize("problem", sorted(_PROBLEMS))
    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    @pytest.mark.parametrize("k, M", [(2, 4), (6, 4)])
    def test_matches_dense_kkt(self, k, M, basis, problem):
        mu = 0.8
        params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
        disc = discretize(_PROBLEMS[problem](mu), params)
        sol = solve_discretized(disc, diagnostics=False)
        K, rhs = assemble_kkt(disc)
        dense = solve_linear(K, rhs)
        m = params.m_hat
        C_hat, U_hat, eta = dense[:m], dense[m : 2 * m], dense[2 * m :]
        C2 = state_from_coeffs(C_hat, disc.d1, disc.mats)
        grid = np.linspace(0.0, 1.0, 201)
        basis_vals = eval_basis_many(params, grid)
        x, u = reconstruct_many(sol, grid)
        structured = np.concatenate([sol.C_hat, sol.U_hat, sol.eta_star])
        for ours, ref in (
            (sol.C_hat, C_hat), (sol.U_hat, U_hat), (sol.eta_star, eta),
            (sol.J_value, _quadratic_cost(disc, C2, U_hat)),
            (x, C2 @ basis_vals), (u, U_hat @ basis_vals),
            (sol.residuals["stationarity"], np.abs(K @ structured - rhs).max()),
        ):
            assert np.abs(ours - ref).max() <= 1e-12

    @pytest.mark.parametrize("k, M, mu, basis", [(2, 10, 0.5, "tw"), (2, 10, 0.7, "tw"),
                                                  (3, 10, 0.7, "ftw")])
    def test_reduced_hessian_pivoted_fallback(self, monkeypatch, k, M, mu, basis):
        """At M = 10 (cond(D) 8.5e12 to 3.2e13 here) the reduced Hessian is
        near the edge of numerical definiteness, and rounding decides whether
        its Cholesky factorization succeeds. With Cholesky made to fail, the
        solve assembles the KKT system once and solves it by the pivoted LU;
        J, x and u match a 50-digit solve of that same float system."""
        mp = pytest.importorskip("mpmath")
        params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
        with pytest.warns(UserWarning, match="condition"):
            disc = discretize(example1(mu), params)
        assert disc.mats.cond_D < solver._STRUCTURED_COND_LIMIT
        factored, assembled = [], []
        assemble = solver.assemble_kkt

        def no_cholesky(A):
            factored.append(A.shape)
            return None

        def counted(d):
            assembled.append(d.params.m_hat)
            return assemble(d)

        monkeypatch.setattr(quadrature, "spd_factor", no_cholesky)
        monkeypatch.setattr(solver, "assemble_kkt", counted)
        fallback = solve_discretized(disc, diagnostics=False)
        m = params.m_hat
        assert factored == [(m, m)]
        assert assembled == [m]
        K, rhs = assemble(disc)
        with mp.workdps(50):
            exact = mp.lu_solve(mp.matrix(K.tolist()), mp.matrix(rhs.tolist()))
            exact = np.array([float(v) for v in exact])
        C2, U_hat = state_from_coeffs(exact[:m], disc.d1, disc.mats), exact[m : 2 * m]
        assert fallback.J_value == pytest.approx(_quadratic_cost(disc, C2, U_hat), rel=1e-9)
        grid = np.linspace(0.0, 1.0, 201)
        basis_vals = eval_basis_many(params, grid)
        for ours, ref in zip(reconstruct_many(fallback, grid), (C2 @ basis_vals, U_hat @ basis_vals)):
            assert np.abs(ours - ref).max() <= 1e-5

    @pytest.mark.parametrize("k, M, mu, basis", [(3, 4, 0.9, "ftw"), (2, 6, 0.7, "tw")])
    def test_g_c_matches_dense_product(self, k, M, mu, basis):
        """The block-row G_c against the dense m_hat^3 product it replaces."""
        params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
        disc = discretize(variable_coefficient(mu), params)
        G_A, _ = disc.constraint_operators
        dense = np.eye(params.m_hat) - G_A @ disc.mats.Pmu.T
        G_c = solver._g_c(disc)
        assert np.abs(G_c - dense).max() <= 1e-15 * np.abs(dense).max()

    @pytest.mark.parametrize("route", ["structured", "dense"])
    @pytest.mark.parametrize("problem", sorted(_PROBLEMS))
    def test_constraint_residual_is_kkt_row_three(self, monkeypatch, problem, route):
        """residuals["constraint"] is the dynamics block row of K sol - rhs
        on either route; the dense route is forced by a failing Cholesky."""
        if route == "dense":
            monkeypatch.setattr(quadrature, "spd_factor", lambda A: None)
        disc = discretize(_PROBLEMS[problem](0.8), WaveletParams(k=3, M=4, mu=0.8))
        sol = solve_discretized(disc, diagnostics=False)
        K, rhs = assemble_kkt(disc)
        m = disc.params.m_hat
        residual = K @ np.concatenate([sol.C_hat, sol.U_hat, sol.eta_star]) - rhs
        assert abs(sol.residuals["constraint"] - np.abs(residual[2 * m :]).max()) <= 1e-12
        assert abs(sol.residuals["stationarity"] - np.abs(residual).max()) <= 1e-12

    @pytest.mark.parametrize("route", ["structured", "dense"])
    def test_state_formed_once_per_solve(self, monkeypatch, route):
        """C2 = Pmu^T C_hat + d1 is formed once per solve on either route,
        with the bits of ``state_from_coeffs`` of the returned C_hat."""
        if route == "dense":
            monkeypatch.setattr(quadrature, "spd_factor", lambda A: None)
        calls = []
        original = solver.state_from_coeffs

        def counted(C_hat, d1, mats):
            calls.append(1)
            return original(C_hat, d1, mats)

        monkeypatch.setattr(solver, "state_from_coeffs", counted)
        disc = discretize(example1(0.9), WaveletParams(k=3, M=4, mu=0.9))
        sol = solve_discretized(disc, diagnostics=False)
        assert len(calls) == 1
        assert np.array_equal(sol.C2, original(sol.C_hat, disc.d1, disc.mats))

    def test_g_c_refusal_falls_back_to_dense_kkt(self, monkeypatch):
        """G_c diagonal blocks that ``invert_blocks`` refuses send the solve
        to the dense KKT LU, whose J matches the structured J."""
        disc = discretize(example1(0.9), WaveletParams(k=3, M=4, mu=0.9))
        structured = solve_discretized(disc, diagnostics=False)
        assembled = []
        assemble = solver.assemble_kkt

        def refuse(blocks):
            raise SingularMatrixError("G_c blocks refused", pivot=0.0)

        def counted(d):
            assembled.append(d.params.m_hat)
            return assemble(d)

        monkeypatch.setattr(solver, "invert_blocks", refuse)
        monkeypatch.setattr(solver, "assemble_kkt", counted)
        fallback = solve_discretized(disc, diagnostics=False)
        m = disc.params.m_hat
        assert assembled == [m]
        dense = solve_linear(*assemble(disc))
        assert np.array_equal(fallback.U_hat, dense[m : 2 * m])
        assert fallback.J_value == pytest.approx(structured.J_value, rel=1e-12)

    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    @pytest.mark.parametrize("k", [4, 6])
    def test_unstable_dynamics_solved_by_dense_kkt(self, tmp_path, k, basis):
        """Strongly unstable dynamics (``UNSTABLE_PROBLEM_FILE``): the reduced
        Hessian is not numerically SPD, and the solve returns the J of the
        pivoted LU of the assembled KKT system."""
        path = tmp_path / "unstable.txt"
        path.write_text(UNSTABLE_PROBLEM_FILE, encoding="utf-8")
        problem = parse_problem_file(path)[0].make_problem(0.6)
        disc = discretize(problem, WaveletParams(k=k, M=4, mu=0.6 if basis == "ftw" else 1.0))
        sol = solve_discretized(disc, diagnostics=False)
        m = disc.params.m_hat
        dense = solve_linear(*assemble_kkt(disc))
        C2 = state_from_coeffs(dense[:m], disc.d1, disc.mats)
        assert abs(sol.J_value - _quadratic_cost(disc, C2, dense[m : 2 * m])) <= 1e-12

    def test_dense_kkt_above_cond_limit(self, monkeypatch):
        """Where cond(D) reaches ``_STRUCTURED_COND_LIMIT`` (M = 12 here) the
        reduced Hessian cannot be formed accurately and the dense KKT LU
        solves instead."""
        assembled = []
        original = solver.assemble_kkt

        def counted(disc):
            assembled.append(disc.params.m_hat)
            return original(disc)

        monkeypatch.setattr(solver, "assemble_kkt", counted)
        solve_focp(example1(0.9), WaveletParams(k=2, M=4, mu=0.9), diagnostics=False)
        assert assembled == []
        params = WaveletParams(k=1, M=12, mu=0.9)
        with pytest.warns(UserWarning, match="condition"):
            mats = build_operational_matrices(params)
        assert mats.cond_D >= solver._STRUCTURED_COND_LIMIT
        sol = solve_focp(example1(0.9), params, mats, diagnostics=False)
        assert assembled == [12]
        assert sol.J_value == pytest.approx(0.1795285301, rel=1e-8)

    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    def test_m14_is_refused(self, basis):
        params = WaveletParams(k=1, M=14, mu=1.0 if basis == "tw" else 0.7)
        with pytest.warns(UserWarning, match="condition"):
            with pytest.raises(SingularMatrixError):
                solve_focp(example1(0.7), params, diagnostics=False)
