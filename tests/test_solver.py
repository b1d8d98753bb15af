import collections
import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import route_map
from conftest import (
    COST_TABLE,
    POINTWISE_ERR_U,
    POINTWISE_ERR_X,
    SURVEY_SEEDS,
    UNSTABLE_PROBLEM_FILE,
    cost_via_product_chain,
    count_assembly,
    lu_cost,
    rl_integral_by_segments,
    survey_problem,
)
from wavefocp import opmats, solver
from wavefocp.basis import MIN_ORDER, WaveletParams, eval_basis, eval_basis_many
from wavefocp.cli import _example_spec, parse_problem_file
from wavefocp.fracops import rl_integral
from wavefocp.opmats import build_operational_matrices
from wavefocp.quadrature import SingularMatrixError, apply_blocks, block_diagonal, gamma, solve_linear
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

    def test_order_floor(self):
        """Every check of the order reads MIN_ORDER: below it the Jacobi
        rules of the exponent mu - 1 divide by zero. At the floor the tw
        basis solves, with the diagnostics' RL integral, and no warning."""
        below = MIN_ORDER / 2
        for refuse in (lambda: WaveletParams(k=1, M=1, mu=below), lambda: example1(below),
                       lambda: rl_integral(np.ones_like, below, 0.5),
                       lambda: build_operational_matrices(WaveletParams(k=2, M=2), below)):
            with pytest.raises(ValueError, match=f"^need {MIN_ORDER:g} <= mu <= 1"):
                refuse()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_focp(example1(MIN_ORDER), WaveletParams(k=2, M=4))
        assert np.isfinite(sol.J_value) and np.isfinite(sol.residuals["dynamics_defect"])

    @pytest.mark.parametrize("field, value", [("x0", "nan"), ("x0", "inf")] + [
        (field, value) for field in "pqab" for value in ("nan", "inf", "overflow")])
    def test_rejects_non_finite_data(self, field, value):
        """A non-finite x0, or a coefficient that is not finite on the
        validation grid, is refused by name and without a warning; solved,
        x0 = nan gave J = nan."""
        data = dict(p_fn=np.ones_like, q_fn=np.ones_like, a_fn=lambda z: -np.ones_like(z),
                    b_fn=np.ones_like, x0=1.0, mu=0.9)
        if field == "x0":
            data["x0"] = float(value)
        elif value == "overflow":
            data[f"{field}_fn"] = lambda z: np.exp(1000.0 * np.asarray(z))
        else:
            data[f"{field}_fn"] = lambda z: np.full_like(z, float(value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                FocpProblem(**data)

    @pytest.mark.parametrize("field", ["track_x", "track_u"])
    @pytest.mark.parametrize("value", ["nan", "inf", "overflow"])
    def test_rejects_non_finite_tracking_targets(self, field, value):
        """A tracking target that is not finite on the grid's nodes is
        refused by name and without a warning, where it is sampled; with
        r_x = exp(1000 t) the solve gave J = nan after four RuntimeWarnings."""
        if value == "overflow":
            target = lambda z: np.exp(1000.0 * np.asarray(z))
        else:
            target = lambda z: np.full_like(z, float(value))
        problem = FocpProblem(p_fn=np.ones_like, q_fn=np.ones_like,
                              a_fn=lambda z: -np.ones_like(z), b_fn=np.ones_like,
                              x0=1.0, mu=0.9, **{field: target})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                discretize(problem, WaveletParams(k=2, M=4, mu=0.9))

    @pytest.mark.parametrize("field", ["p", "a"])
    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    def test_rejects_coefficient_non_finite_on_nodes_only(self, field, basis):
        """A coefficient with a spike between the validation grid's points
        (largest value there 1.1e17) that overflows at a quadrature node is
        refused by name and without a warning; it used to reach the solve
        as inf and NaN."""
        def spike(z):
            return np.exp(0.001 / ((np.asarray(z) - 0.00505) ** 2 + 1e-12))

        data = dict(p_fn=np.ones_like, q_fn=np.ones_like, a_fn=lambda z: -np.ones_like(z),
                    b_fn=np.ones_like, x0=1.0, mu=0.9)
        data[f"{field}_fn"] = (lambda z: 1.0 + spike(z)) if field == "p" else (lambda z: -spike(z))
        problem = FocpProblem(**data)
        params = WaveletParams(k=2, M=4, mu=0.9 if basis == "ftw" else 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} must be finite on the quadrature"):
                discretize(problem, params)

    @pytest.mark.parametrize("k", [7, 2])
    @pytest.mark.parametrize("field, rule", [
        ("q", "strictly positive"), ("p", "nonnegative"), ("b", "nonzero")])
    def test_sign_rule_broken_on_nodes_only(self, field, rule, k):
        """q or p = 1 - 20 exp(-((t - 0.5)/0.0013)^2) (a dip to -19) or
        b = 0 on |t - 0.5| < 0.002 (a hole) is at least 0.99999 on the
        validation grid, so the problem constructs, but breaks its sign rule
        at quadrature nodes of the (k, 4, 1) grid: ``discretize`` refuses it
        by name. Solved, these gave J = 0.179507399 and 0.178171825 (q at
        k = 7 and 2), 0.174117897 and 0.175052708 (p), 0.179600546 and
        0.179721552 (b), with Wq indefinite under the dip in q."""
        def dip(z):
            return 1.0 - 20.0 * np.exp(-(((np.asarray(z) - 0.5) / 0.0013) ** 2))

        def hole(z):
            return np.where(np.abs(np.asarray(z) - 0.5) < 0.002, 0.0, 1.0)

        data = dict(p_fn=np.ones_like, q_fn=np.ones_like, a_fn=lambda z: -np.ones_like(z),
                    b_fn=np.ones_like, x0=1.0, mu=0.9)
        data[f"{field}_fn"] = hole if field == "b" else dip
        assert data[f"{field}_fn"](solver._VALIDATION_GRID).min() >= 0.99999
        problem = FocpProblem(**data)
        with pytest.raises(ValueError, match=f"^{field} must be {rule} on the quadrature nodes$"):
            discretize(problem, WaveletParams(k=k, M=4))

    def test_evaluation_error_names_the_field(self):
        """A ValueError raised by a field's function is refused naming the
        field; it used to pass through unnamed."""
        def boom(z):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="^field 'q': boom$"):
            FocpProblem(p_fn=np.ones_like, q_fn=boom, a_fn=lambda z: -np.ones_like(z),
                        b_fn=np.ones_like, x0=1.0, mu=0.9)

    def test_tracking_target_singular_at_zero_solves(self):
        """The check runs on the grid's nodes, none of which is 0, so a
        target infinite only at t = 0 still solves."""
        problem = FocpProblem(p_fn=np.ones_like, q_fn=np.ones_like,
                              a_fn=lambda z: -np.ones_like(z), b_fn=np.ones_like,
                              x0=1.0, mu=0.9, track_x=lambda z: np.asarray(z) ** -0.25)
        sol = solve_focp(problem, WaveletParams(k=2, M=4, mu=0.9), diagnostics=False)
        assert sol.J_value == pytest.approx(0.291146106, rel=1e-8)

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

    @pytest.mark.parametrize("k", [2, 4])
    def test_breakpoint_takes_right_limit(self, k):
        """x and u at each interior breakpoint equal their values one ulp to
        its right (ftw, mu 0.9). The block arithmetic this replaced put some
        breakpoints in the block on the left and missed x and u by 6.3e-5 and
        1.3e-4 at k = 2, by 3.3e-6 and 8.1e-5 at k = 4."""
        params = WaveletParams(k=k, M=4, mu=0.9)
        sol = solve_focp(example1(0.9), params, diagnostics=False)
        bp = params.breakpoints()[1:-1]
        at, right = reconstruct_many(sol, bp), reconstruct_many(sol, np.nextafter(bp, 2))
        for ours, ref in zip(at, right):
            assert np.abs(ours - ref).max() <= 1e-12

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
        calls.clear()  # the checks of FocpProblem sample p, q, a and b
        disc = discretize(problem, WaveletParams(k=2, M=4, mu=0.8))
        # the solve, its re-quadrature cost included, reads discretize's samples
        solve_discretized(disc, diagnostics=False)
        assert calls == dict.fromkeys(["p", "q", "a", "b", "rx", "ru"], 1)

    def test_kkt_feasible_direction_optimality(self):
        disc = discretize(example1(0.9), WaveletParams(k=2, M=4, mu=0.9))
        sol = solve_discretized(disc, diagnostics=False)
        G_A, G_B = block_diagonal(disc.G_A), block_diagonal(disc.G_B)
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


@functools.lru_cache(maxsize=None)
def _reference_j(mu, basis):
    """J of example 1 at (k, M) = (4, 6) on the given basis."""
    params = WaveletParams(k=4, M=6, mu=1.0 if basis == "tw" else mu)
    return solve_focp(example1(mu), params, diagnostics=False).J_value


@functools.lru_cache(maxsize=None)
def _m10_referee(k, M, mu, basis):
    """Example 1's discretization at (k, M), its KKT solution refined to 40
    digits by ``route_map`` (as floats) and the J formed from it in mpmath."""
    params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
    with pytest.warns(UserWarning, match="condition"):
        disc = discretize(example1(mu), params)
    z = route_map.refine(*assemble_kkt(disc))
    assert z is not None
    _, _, J = route_map.exact_state_and_cost(disc, z)
    return disc, np.array([float(v) for v in z]), J


def _refuse_range_space(monkeypatch):
    """Make the range-space route refuse every solve, as a PCG that does not
    converge would: the solve then takes the dense KKT route."""

    def refuse(disc):
        raise SingularMatrixError("range-space route refused")

    monkeypatch.setattr(solver, "_range_space_solve", refuse)


class TestRangeSpaceSolve:
    """The range-space route that solves below cond(D) 3e11."""

    @pytest.mark.parametrize("k, M, route", [(3, 4, "_range_space_solve"), (2, 9, "_range_space_solve"),
                                             (2, 10, "_dense_solve")])
    def test_route_follows_cond_d(self, monkeypatch, k, M, route):
        """cond(D) 1.1e4 at (3, 4), 2.6e11 at (2, 9) and 8.5e12 at (2, 10):
        the solve takes the route of its side of 3e11, and only that route."""
        calls = []

        def spy(name):
            original = getattr(solver, name)

            def spied(disc):
                calls.append(name)
                return original(disc)

            monkeypatch.setattr(solver, name, spied)

        spy("_range_space_solve")
        spy("_dense_solve")
        if route == "_dense_solve":
            with pytest.warns(UserWarning, match="condition"):
                solve_focp(example1(0.9), WaveletParams(k=k, M=M), diagnostics=False)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                solve_focp(example1(0.9), WaveletParams(k=k, M=M), diagnostics=False)
        assert calls == [route]

    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_survey_matches_dense_solve(self, monkeypatch, k, basis):
        """On the M = 4 survey every J is within 1e-12 of the J of
        ``np.linalg.solve`` on the assembled KKT system (2.0e-14 at most,
        measured over k = 2, 4, 6), and no solve assembles that system."""
        assembled = count_assembly(monkeypatch)
        for seed in SURVEY_SEEDS:
            problem = survey_problem(seed)
            params = WaveletParams(k=k, M=4, mu=problem.mu if basis == "ftw" else 1.0)
            disc = discretize(problem, params)
            sol = solve_discretized(disc, diagnostics=False)
            assert abs(sol.J_value - lu_cost(disc)) <= 1e-12, seed
        assert assembled == []

    @pytest.mark.parametrize("k", [7, 8])
    def test_peak_memory(self, k):
        """The route holds at most 1.5 m_hat^2 float64 above its inputs (0.56
        and 0.27 m_hat^2 measured at k = 7 and 8): no m_hat x m_hat matrix
        is formed. A warm call comes first, so that nothing allocated once
        per process is counted."""
        disc = discretize(example1(0.9), WaveletParams(k=k, M=4, mu=0.9))
        solver._range_space_solve(disc)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver._range_space_solve(disc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * disc.params.m_hat ** 2

    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_leaf_takes_one_step(self, monkeypatch, k, basis):
        """Up to m_hat 32 the preconditioner is one leaf, H itself, and one
        PCG step, which refines the start P^-1 g (off by up to 1e-9 in C_hat
        on its own), meets the tolerance."""
        monkeypatch.setattr(solver, "_CG_MAX_ITER", 1)
        for problem in (example1(0.8), variable_coefficient(0.5), survey_problem(2002)):
            params = WaveletParams(k=k, M=4, mu=problem.mu if basis == "ftw" else 1.0)
            disc = discretize(problem, params)
            _, U_hat, _, C2 = solver._range_space_solve(disc)
            assert abs(_quadratic_cost(disc, C2, U_hat) - lu_cost(disc)) <= 1e-12

    def test_pcg_cap_falls_back_to_dense_kkt(self, monkeypatch):
        """A PCG that runs out of steps (a cap of 1 at k = 6, where 8 are
        taken) raises SingularMatrixError; the solve then assembles the KKT
        system once, and its LU gives the same J within 1e-12."""
        disc = discretize(example1(0.9), WaveletParams(k=6, M=4, mu=0.9))
        J = solve_discretized(disc, diagnostics=False).J_value
        monkeypatch.setattr(solver, "_CG_MAX_ITER", 1)
        with pytest.raises(SingularMatrixError, match="did not converge"):
            solver._range_space_solve(disc)
        assembled = count_assembly(monkeypatch)
        fallback = solve_discretized(disc, diagnostics=False)
        assert assembled == [disc.params.m_hat]
        assert abs(fallback.J_value - J) <= 1e-12


class TestStructuredSolve:
    """The two routes (range-space below cond(D) 3e11, the dense KKT LU from
    it up and where the range-space route refuses) against the dense KKT
    oracle."""

    @staticmethod
    def _check_against_dense_kkt(k, M, basis, problem):
        mu = 0.8
        params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
        disc = discretize(_PROBLEMS[problem](mu), params)
        sol = solve_discretized(disc, diagnostics=False)
        K, rhs = assemble_kkt(disc)
        dense = solve_linear(K.copy(), rhs)  # the LU overwrites its K
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

    @pytest.mark.parametrize("problem", sorted(_PROBLEMS))
    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    @pytest.mark.parametrize("k, M", [(2, 4), (6, 4), (7, 4)])
    def test_matches_dense_kkt(self, monkeypatch, k, M, basis, problem):
        """The range-space route: C_hat, U_hat, eta, J, x, u and the
        stationarity residual within 1e-12 of the dense KKT solve's."""
        assembled = count_assembly(monkeypatch)
        self._check_against_dense_kkt(k, M, basis, problem)
        assert assembled == []

    @pytest.mark.parametrize("k, M, mu, basis", [(2, 10, 0.5, "tw"), (2, 10, 0.7, "tw"),
                                                  (3, 10, 0.7, "ftw")])
    def test_reduced_hessian_pivoted_fallback(self, monkeypatch, k, M, mu, basis):
        """At M = 10 (cond(D) 8.5e12 to 3.2e13 here), where the reduced
        Hessian's Cholesky factorization was once tried first, the pivoted
        LU solves directly: the solve assembles the KKT system once, and J,
        x and u match ``route_map``'s 40-digit refinement of that same float
        system."""
        disc, exact, _ = _m10_referee(k, M, mu, basis)
        params = disc.params
        assembled = count_assembly(monkeypatch)
        sol = solve_discretized(disc, diagnostics=False)
        m = params.m_hat
        assert assembled == [m]
        C2, U_hat = state_from_coeffs(exact[:m], disc.d1, disc.mats), exact[m : 2 * m]
        assert sol.J_value == pytest.approx(_quadratic_cost(disc, C2, U_hat), rel=1e-9)
        grid = np.linspace(0.0, 1.0, 201)
        basis_vals = eval_basis_many(params, grid)
        for ours, ref in zip(reconstruct_many(sol, grid), (C2 @ basis_vals, U_hat @ basis_vals)):
            assert np.abs(ours - ref).max() <= 1e-5

    # bounds: twice the relative J error of the solver that formed C2 and
    # J in long double (1.04e-9, 6.39e-12 and 7.61e-12)
    @pytest.mark.parametrize("k, M, mu, basis, bound", [
        (2, 10, 0.5, "tw", 2.1e-9), (2, 10, 0.7, "tw", 1.28e-11), (3, 10, 0.7, "ftw", 1.52e-11),
    ])
    def test_cost_at_m10_against_50_digit_solve(self, k, M, mu, basis, bound):
        """Where D is ill-conditioned, C2 = Pmu^T C_hat + d1 cancels (|Pmu|
        2.6e3 and |C_hat| 7.6e2 give |C2| 6.7e2 at (2, 10) tw). J of the
        solve, with C2 and J summed in double, against J of ``route_map``'s
        40-digit refinement of the same float KKT system, whose state and
        cost are formed in mpmath too."""
        disc, _, J = _m10_referee(k, M, mu, basis)
        sol = solve_discretized(disc, diagnostics=False)
        assert abs((sol.J_value - J) / J) <= bound

    @pytest.mark.parametrize("k, mu", [(7, 1.0), (6, 0.9)], ids=["tw", "ftw"])
    def test_peak_memory(self, k, mu):
        """The dense KKT solve holds at most 11.5 m_hat^2 float64 above its
        inputs (11.00 and 11.01 measured): K (9 m_hat^2) and assembly's one
        m_hat^2 product Pmu Wp Pmu^T with its factor Wp Pmu^T; every other
        block is written into K directly. The LU overwrites K, and LAPACK takes
        the pivot threshold's norm from K itself. A warm call comes first,
        so that nothing allocated once per process is counted. tracemalloc
        misses the copy of K that ``np.linalg.solve(K, rhs)`` makes (9
        m_hat^2, of which it counts 0.014), so with that LU this bound would
        still pass at a true peak of about 20 m_hat^2."""
        disc = discretize(example1(mu), WaveletParams(k=k, M=4, mu=mu))
        solver._dense_solve(disc)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver._dense_solve(disc)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 11.5 * 8 * disc.params.m_hat ** 2

    @pytest.mark.parametrize("example", [1, 2, 3])
    @pytest.mark.parametrize("k, M, mu, basis", [(2, 10, 0.7, "tw"), (1, 13, 0.5, "ftw"),
                                                  (3, 4, 0.8, "ftw")])
    def test_rhs_restated(self, example, k, M, mu, basis):
        """The dense right-hand side, which ``assemble_kkt`` takes from the
        residual rows at zero, against its own statement here:
        (Pmu (wp_track - Wp d1), wq_track, G_A d1), bit for bit."""
        params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the cond(D) warning
            disc = discretize(_example_spec(example).make_problem(mu), params)
        rhs = np.concatenate((disc.mats.Pmu @ (disc.wp_track - apply_blocks(disc.Wp, disc.d1)),
                              disc.wq_track, apply_blocks(disc.G_A, disc.d1)))
        assert np.array_equal(assemble_kkt(disc)[1], rhs)

    @pytest.mark.parametrize("k, M, mu, basis", [(3, 4, 0.9, "ftw"), (2, 6, 0.7, "tw")])
    def test_g_c_matches_dense_product(self, k, M, mu, basis):
        """The block-row G_c in K's dynamics block against the dense m_hat^3
        product it replaces."""
        params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
        disc = discretize(variable_coefficient(mu), params)
        G_A = block_diagonal(disc.G_A)
        dense = np.eye(params.m_hat) - G_A @ disc.mats.Pmu.T
        m = params.m_hat
        G_c = assemble_kkt(disc)[0][2 * m :, :m]
        assert np.abs(G_c - dense).max() <= 1e-15 * np.abs(dense).max()

    @pytest.mark.parametrize("route", ["structured", "dense"])
    @pytest.mark.parametrize("problem", sorted(_PROBLEMS))
    def test_constraint_residual_is_kkt_row_three(self, monkeypatch, problem, route):
        """residuals["constraint"] is the dynamics block row of K sol - rhs
        on both routes: the range-space route ("structured"; cond(D) 2.3e4
        here) and the dense route where that refuses."""
        if route == "dense":
            _refuse_range_space(monkeypatch)
        assembled = count_assembly(monkeypatch)
        disc = discretize(_PROBLEMS[problem](0.8), WaveletParams(k=3, M=4, mu=0.8))
        sol = solve_discretized(disc, diagnostics=False)
        m = disc.params.m_hat
        assert assembled == ([m] if route == "dense" else [])
        K, rhs = assemble_kkt(disc)
        residual = K @ np.concatenate([sol.C_hat, sol.U_hat, sol.eta_star]) - rhs
        assert abs(sol.residuals["constraint"] - np.abs(residual[2 * m :]).max()) <= 1e-12
        assert abs(sol.residuals["stationarity"] - np.abs(residual).max()) <= 1e-12

    @pytest.mark.parametrize("route", ["structured", "dense"])
    def test_state_formed_once_per_solve(self, monkeypatch, route):
        """C2 = Pmu^T C_hat + d1 is formed once per solve on both routes,
        with the bits of ``state_from_coeffs`` of the returned C_hat: the
        range-space route ("structured") and the dense route where that
        refuses."""
        if route == "dense":
            _refuse_range_space(monkeypatch)
        assembled = count_assembly(monkeypatch)
        calls = []
        original = solver.state_from_coeffs

        def counted(C_hat, d1, mats):
            calls.append(1)
            return original(C_hat, d1, mats)

        monkeypatch.setattr(solver, "state_from_coeffs", counted)
        disc = discretize(example1(0.9), WaveletParams(k=3, M=4, mu=0.9))
        sol = solve_discretized(disc, diagnostics=False)
        assert assembled == ([disc.params.m_hat] if route == "dense" else [])
        assert len(calls) == 1
        assert np.array_equal(sol.C2, original(sol.C_hat, disc.d1, disc.mats))

    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    @pytest.mark.parametrize("k", [4, 6])
    def test_unstable_dynamics_solved_by_dense_kkt(self, monkeypatch, tmp_path, k, basis):
        """Strongly unstable dynamics (``UNSTABLE_PROBLEM_FILE``) with the
        range-space route made to refuse: the solve assembles the KKT system
        once, and it returns the J of the pivoted LU of that system."""
        path = tmp_path / "unstable.txt"
        path.write_text(UNSTABLE_PROBLEM_FILE, encoding="utf-8")
        problem = parse_problem_file(path)[0].make_problem(0.6)
        disc = discretize(problem, WaveletParams(k=k, M=4, mu=0.6 if basis == "ftw" else 1.0))
        _refuse_range_space(monkeypatch)
        assembled = count_assembly(monkeypatch)
        sol = solve_discretized(disc, diagnostics=False)
        m = disc.params.m_hat
        assert assembled == [m]
        dense = solve_linear(*assemble_kkt(disc))
        C2 = state_from_coeffs(dense[:m], disc.d1, disc.mats)
        assert abs(sol.J_value - _quadratic_cost(disc, C2, dense[m : 2 * m])) <= 1e-12

    @pytest.mark.parametrize("basis", ["tw", "ftw"])
    @pytest.mark.parametrize("k", [4, 6])
    def test_unstable_dynamics_solved_by_range_space_route(self, monkeypatch, tmp_path, k, basis):
        """Strongly unstable dynamics (``UNSTABLE_PROBLEM_FILE``): the
        range-space route solves with no KKT assembly, to the J of the
        pivoted LU of that system."""
        path = tmp_path / "unstable.txt"
        path.write_text(UNSTABLE_PROBLEM_FILE, encoding="utf-8")
        problem = parse_problem_file(path)[0].make_problem(0.6)
        disc = discretize(problem, WaveletParams(k=k, M=4, mu=0.6 if basis == "ftw" else 1.0))
        assembled = count_assembly(monkeypatch)
        sol = solve_discretized(disc, diagnostics=False)
        m = disc.params.m_hat
        assert assembled == []
        dense = solve_linear(*assemble_kkt(disc))
        C2 = state_from_coeffs(dense[:m], disc.d1, disc.mats)
        assert abs(sol.J_value - _quadratic_cost(disc, C2, dense[m : 2 * m])) <= 1e-12

    def test_reduced_route_at_m12(self, monkeypatch):
        """At M = 12 (cond(D) 1.1e16), once the reduced route's, the solve
        assembles the KKT system once, and its LU solves."""
        assembled = count_assembly(monkeypatch)
        params = WaveletParams(k=1, M=12, mu=0.9)
        mats = build_operational_matrices(params)
        with pytest.warns(UserWarning, match="condition"):
            sol = solve_focp(example1(0.9), params, mats, diagnostics=False)
        assert assembled == [params.m_hat]
        assert sol.J_value == pytest.approx(0.1795285301, rel=1e-8)

    @pytest.mark.parametrize("k, M, mu, basis", [
        (1, 11, 1.0, "tw"), (2, 11, 0.7, "tw"), (3, 11, 0.9, "ftw"),
        (2, 12, 0.9, "tw"), (1, 13, 0.9, "tw"), (2, 13, 1.0, "tw"),
    ])
    def test_reduced_route_above_cond_1e14(self, monkeypatch, k, M, mu, basis):
        """cond(D) 2.8e14 to 2.0e18, where the reduced route once solved
        every case: the solve assembles the KKT system once, and its LU
        either solves, with J within 1e-5 of the (4, 6) reference, or
        refuses on its pivot ratio. Only (1, 11) tw solves."""
        solves = (k, M, mu, basis) == (1, 11, 1.0, "tw")
        params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
        reference = _reference_j(mu, basis)
        assembled = count_assembly(monkeypatch)
        with pytest.warns(UserWarning, match="condition"):
            if solves:
                sol = solve_focp(example1(mu), params, diagnostics=False)
                assert sol.J_value == pytest.approx(reference, rel=1e-5)
            else:
                with pytest.raises(SingularMatrixError, match="pivot"):
                    solve_focp(example1(mu), params, diagnostics=False)
        assert assembled == [params.m_hat]

    def test_dense_fallback_at_m13(self, monkeypatch):
        """At (1, 13) ftw, mu 0.5 (cond(D) 9.6e16) the dense KKT LU solves,
        to within 1e-5 of the (4, 6) reference."""
        params = WaveletParams(k=1, M=13, mu=0.5)
        assembled = count_assembly(monkeypatch)
        with pytest.warns(UserWarning, match="condition"):
            sol = solve_focp(example1(0.5), params, diagnostics=False)
        assert assembled == [params.m_hat]
        assert sol.J_value == pytest.approx(_reference_j(0.5, "ftw"), rel=1e-5)

    def test_m13_tw_refused_by_both_routes(self, monkeypatch):
        """At (1, 13) tw, mu 1 the bundle is built; the range-space route,
        run past its gate, refuses its preconditioner's one leaf, and the solve, which takes
        the dense KKT LU there, assembles it once and refuses too."""
        params = WaveletParams(k=1, M=13)
        with pytest.warns(UserWarning, match="condition"):
            disc = discretize(example1(1.0), params)
        with pytest.raises(SingularMatrixError, match="blocks numerically singular"):
            solver._range_space_solve(disc)
        assembled = count_assembly(monkeypatch)
        with pytest.warns(UserWarning, match="condition"):
            with pytest.raises(SingularMatrixError, match="KKT system singular"):
                solve_focp(example1(1.0), params, diagnostics=False)
        assert assembled == [13]

    @pytest.mark.parametrize("basis, mu", [("tw", 0.5), ("ftw", 0.7)], ids=["tw", "ftw"])
    def test_m14_is_refused(self, basis, mu):
        """Both bundles are built, and the dense KKT LU refuses each."""
        params = WaveletParams(k=1, M=14, mu=1.0 if basis == "tw" else mu)
        with pytest.warns(UserWarning, match="condition"):
            with pytest.raises(SingularMatrixError):
                solve_focp(example1(mu), params, diagnostics=False)


class TestConditionWarning:
    """``discretize`` warns exactly where the dense KKT LU solves by the
    gate, cond(D) >= ``_RANGE_SPACE_COND_LIMIT``; the build never warns."""

    def test_warns_just_above_the_gate(self):
        """Example 2 at (1, 9) ftw, mu 0.9 has cond(D) 3.1e11, just above the
        gate (3e11): one warning, which names the dense KKT LU."""
        params = WaveletParams(k=1, M=9, mu=0.9)
        with pytest.warns(UserWarning, match="condition") as caught:
            disc = discretize(_example_spec(2).make_problem(0.9), params)
        assert disc.mats.cond_D >= solver._RANGE_SPACE_COND_LIMIT
        assert len(caught) == 1
        assert "dense KKT LU" in str(caught[0].message)

    @pytest.mark.parametrize("call", [solve_focp, discretize])
    def test_warning_points_at_the_caller(self, call):
        """The warning is attributed to the line that called ``solve_focp``
        or ``discretize``, here this file; through ``solve_focp`` it used to
        point at ``solve_focp``'s own line in solver.py."""
        params = WaveletParams(k=1, M=9, mu=0.9)
        with pytest.warns(UserWarning, match="condition") as caught:
            call(_example_spec(2).make_problem(0.9), params)
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("at_limit", [False, True], ids=["below", "at"])
    def test_warns_from_the_limit(self, monkeypatch, at_limit):
        limit = solver._RANGE_SPACE_COND_LIMIT
        cond = limit if at_limit else np.nextafter(limit, 0.0)
        monkeypatch.setattr(opmats, "condition_estimate", lambda blocks: cond)
        params = WaveletParams(k=2, M=4, mu=0.9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            disc = discretize(example1(0.9), params)
        assert disc.mats.cond_D == cond
        assert len([w for w in caught if "condition" in str(w.message)]) == at_limit


class TestRefusalMessages:
    def test_dense_refusal_names_m_and_cond_d(self):
        """(2, 12) tw, mu 0.7 (cond(D) 9.1e15): the LU refuses on its pivot
        ratio, and the message names M, m_hat and cond(D), not q, which
        ``FocpProblem`` has already checked."""
        with pytest.warns(UserWarning, match="condition"):
            with pytest.raises(SingularMatrixError) as refused:
                solve_focp(example1(0.7), WaveletParams(k=2, M=12), diagnostics=False)
        message = str(refused.value)
        assert message.startswith("KKT system singular (M=12, m_hat=24, cond(D) ")
        assert "pivot" in message
        assert "q > 0" not in message

    def test_range_space_refusal_is_kept(self, monkeypatch):
        """Below the gate (raised here past cond(D) 1.3e17 at (1, 13) tw)
        the range-space route refuses its one leaf first and the LU its
        pivot ratio; the message carries both refusals."""
        monkeypatch.setattr(solver, "_RANGE_SPACE_COND_LIMIT", math.inf)
        with pytest.raises(SingularMatrixError) as refused:
            solve_focp(example1(1.0), WaveletParams(k=1, M=13), diagnostics=False)
        message = str(refused.value)
        assert "cond(D)" in message and "pivot" in message
        assert "; the range-space route refused first: blocks numerically singular" in message

    @pytest.mark.parametrize("x0", [2e154, 1e160, 1e200])
    def test_non_finite_cost_refused(self, x0):
        """Example 1 at (2, 4, 0.9) ftw with x0 so large that J overflows (it
        returned J = inf at 2e154 and nan from 1e160; at 1e154 J is
        1.795285e307): FloatingPointError naming m_hat."""
        problem = dataclasses.replace(_example_spec(1).make_problem(0.9), x0=x0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            with pytest.raises(FloatingPointError, match="m_hat=8"):
                solve_focp(problem, WaveletParams(k=2, M=4, mu=0.9))
