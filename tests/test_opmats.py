import numpy as np
import pytest
import scipy.linalg
from scipy.special import betainc

from conftest import D1_BLOCK, D09_BLOCK1, D09_BLOCK2, P09_PLAIN
from wavefocp import opmats, quadrature
from wavefocp.basis import WaveletParams, eval_basis_many
from wavefocp.fracops import rl_integral
from wavefocp.opmats import (
    OperationalMatrices,
    basis_moment_vector,
    build_operational_matrices,
    gram_matrix,
    inner_products,
    integration_matrix_fractional,
    integration_matrix_first_order,
    product_matrix,
    project,
    quadrature_grid,
    quadrature_nodes,
    rl_integral_of_wavelet,
    triple_product_tensor,
)
from wavefocp.quadrature import solve_spd, spd_factor
from wavefocp.solver import FocpProblem, _requadrature_cost, discretize


class TestGramMatrix:
    def test_single_wavelet_is_unit(self):
        for mu in (0.5, 0.8, 1.0):
            D = gram_matrix(WaveletParams(k=1, M=1, mu=mu))
            assert D.shape == (1, 1)
            assert D[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_reference_fractional_gram(self, mats_frac09):
        D = mats_frac09.D
        np.testing.assert_allclose(D[:4, :4], D09_BLOCK1, atol=5e-6)
        np.testing.assert_allclose(D[4:, 4:], D09_BLOCK2, atol=5e-6)

    def test_reference_plain_gram(self, mats_plain):
        D = mats_plain.D
        np.testing.assert_allclose(D[:4, :4], D1_BLOCK, atol=5e-6)
        np.testing.assert_allclose(D[4:, 4:], D1_BLOCK, atol=5e-6)

    def test_block_diagonal(self, mats_frac09):
        D = mats_frac09.D
        assert np.all(D[:4, 4:] == 0.0)
        assert np.all(D[4:, :4] == 0.0)

    def test_symmetric_positive_definite(self):
        for mu in (0.5, 0.9, 1.0):
            D = gram_matrix(WaveletParams(k=2, M=4, mu=mu))
            assert np.abs(D - D.T).max() <= 1e-12
            scipy.linalg.cho_factor(D)  # raises if not SPD

    def test_matches_quadrature(self, params_frac09):
        D = gram_matrix(params_frac09)
        nodes, weights = quadrature_nodes(params_frac09)
        vals = eval_basis_many(params_frac09, nodes)
        D_quad = (vals * weights) @ vals.T
        np.testing.assert_allclose(D, D_quad, atol=1e-10)


class TestProjection:
    def test_recovers_span_member(self, params_frac09, mats_frac09):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(params_frac09.m_hat)

        def f(z):
            return coeffs @ eval_basis_many(params_frac09, np.atleast_1d(z))

        recovered = project(f, params_frac09, mats_frac09)
        np.testing.assert_allclose(recovered, coeffs, atol=1e-10)

    def test_idempotent(self, params_plain, mats_plain):
        f = lambda z: np.cosh(np.sqrt(2.0) * np.asarray(z))
        c1 = project(f, params_plain, mats_plain)

        def reconstructed(z):
            return c1 @ eval_basis_many(params_plain, np.atleast_1d(z))

        c2 = project(reconstructed, params_plain, mats_plain)
        assert np.abs(c2 - c1).max() <= 1e-8

    def test_residual_orthogonality(self, params_frac09, mats_frac09):
        f = lambda z: np.exp(np.asarray(z))
        c = project(f, params_frac09, mats_frac09)

        def residual(z):
            z = np.atleast_1d(z)
            return f(z) - c @ eval_basis_many(params_frac09, z)

        orth = inner_products(residual, params_frac09)
        assert np.abs(orth).max() <= 1e-8


class TestIntegrationMatrices:
    def test_reference_fractional(self, params_frac09, mats_frac09):
        """Order-0.9 integration matrix in the mu=0.9 stretched basis.

        The published matrix disagrees with the exact projection by up to
        6e-3 in-block (its construction was less accurate); the strict
        5e-5 comparison is made in the acceptance suite and its outcome is
        documented there. Here we pin our own construction against the
        independent pointwise integral oracle instead.
        """
        P = mats_frac09.Pmu
        # oracle: least-squares residual of (I^0.9 psi_i) - row_i @ Psi must be
        # orthogonal to the basis
        for i in (0, 3, 5):
            def shifted(z, i=i):
                z = np.atleast_1d(z)
                direct = rl_integral_of_wavelet(params_frac09, i, 0.9, z)
                return direct - P[i] @ eval_basis_many(params_frac09, z)

            orth = inner_products(shifted, params_frac09)
            assert np.abs(orth).max() <= 1e-10

    def test_reference_plain(self, params_plain):
        mats = build_operational_matrices(params_plain, frac_order=0.9)
        assert np.abs(mats.Pmu - P09_PLAIN).max() <= 5e-5

    def test_closed_form_matches_oracle(self, params_frac09):
        from wavefocp.quadrature import graded_breakpoints

        bp = graded_breakpoints(params_frac09.breakpoints())
        for i in (0, 2, 5, 7):
            def psi_i(z, i=i):
                z = np.atleast_1d(z)
                return eval_basis_many(params_frac09, z)[i]

            for z in (0.3, 0.55, 0.95):
                closed = rl_integral_of_wavelet(
                    params_frac09, i, 0.9, np.array([z])
                )[0]
                oracle = rl_integral(psi_i, 0.9, z, breakpoints=bp)
                assert closed == pytest.approx(oracle, abs=1e-10)

    def test_first_order_matches_fractional_at_one(self, params_plain, mats_plain):
        P_frac = integration_matrix_fractional(params_plain, mats_plain, order=1.0)
        assert np.abs(P_frac - mats_plain.P1).max() <= 1e-10

    def test_first_order_integrates_polynomials(self, params_plain, mats_plain):
        # running integral of any basis-representable f stays representable
        # only approximately; check against a cubic whose integral is quartic
        # projected: use f = 1 whose integral z is exactly in the span
        c_one = project(lambda z: np.ones_like(np.asarray(z)), params_plain, mats_plain)
        c_z = project(lambda z: np.asarray(z, dtype=float), params_plain, mats_plain)
        np.testing.assert_allclose(mats_plain.P1.T @ c_one, c_z, atol=1e-10)

    def test_semigroup_on_monomials(self):
        """Applying the order-mu matrix twice to coefficients of zeta^(mu*s)
        approximates the order-2mu integral at points inside the blocks."""
        import math

        mu = 0.45
        params = WaveletParams(k=2, M=4, mu=mu)
        mats = build_operational_matrices(params)
        pts = np.array([0.05, 0.1, 0.3, 0.6, 0.8, 0.95])
        for s in (0, 1):
            c = project(
                lambda z, s=s: np.asarray(z, dtype=float) ** (mu * s),
                params, mats,
            )
            twice = mats.Pmu.T @ (mats.Pmu.T @ c)
            vals = twice @ eval_basis_many(params, pts)
            exact = (
                math.gamma(mu * s + 1.0) / math.gamma(mu * s + 2 * mu + 1.0)
            ) * pts ** (mu * s + 2 * mu)
            assert np.abs(vals - exact).max() <= 1e-4

    def test_linearity_in_order_limits(self, params_frac09, mats_frac09):
        # I^mu of the constant block-1 wavelet at small zeta has the exact
        # closed form sqrt(2) * zeta^mu / Gamma(1+mu)
        import math

        z = np.array([0.2])
        val = rl_integral_of_wavelet(params_frac09, 0, 0.9, z)[0]
        expected = math.sqrt(2.0) * 0.2**0.9 / math.gamma(1.9)
        assert val == pytest.approx(expected, rel=1e-12)


class TestTripleProducts:
    def test_symmetry(self, mats_frac09):
        T = mats_frac09.triple
        assert np.abs(T - np.transpose(T, (1, 0, 2))).max() <= 1e-12
        assert np.abs(T - np.transpose(T, (0, 2, 1))).max() <= 1e-12

    def test_cross_block_zero(self, params_frac09, mats_frac09):
        T = mats_frac09.triple
        M = params_frac09.M
        assert np.all(T[:M, M:, :] == 0.0)
        assert np.all(T[:M, :, M:] == 0.0)

    def test_matches_quadrature(self, params_plain):
        T = triple_product_tensor(params_plain)
        nodes, weights = quadrature_nodes(params_plain)
        vals = eval_basis_many(params_plain, nodes)
        T_quad = np.einsum("in,jn,ln,n->ijl", vals, vals, vals, weights)
        np.testing.assert_allclose(T, T_quad, atol=1e-10)

    def test_product_matrix_represents_multiplication(
        self, params_frac09, mats_frac09
    ):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(params_frac09.m_hat)
        C_tilde = product_matrix(c, mats_frac09)

        def product_fn(z):
            z = np.atleast_1d(z)
            vals = eval_basis_many(params_frac09, z)
            return (c @ vals) * vals[2]

        # row 2 of C~ gives the projection of psi_2 * (c^T Psi)
        projected = project(product_fn, params_frac09, mats_frac09)
        np.testing.assert_allclose(C_tilde[2], projected, atol=1e-8)

    def test_product_matrix_linear_in_coefficients(self, mats_frac09):
        rng = np.random.default_rng(9)
        c1 = rng.standard_normal(8)
        c2 = rng.standard_normal(8)
        lhs = product_matrix(2.0 * c1 - 3.0 * c2, mats_frac09)
        rhs = 2.0 * product_matrix(c1, mats_frac09) - 3.0 * product_matrix(
            c2, mats_frac09
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_basis_moments_match_projection_of_one(params_plain, mats_plain):
    moments = basis_moment_vector(params_plain)
    quad = inner_products(lambda z: np.ones_like(np.asarray(z)), params_plain)
    np.testing.assert_allclose(moments, quad, atol=1e-12)


def test_condition_estimate_reported(mats_frac09):
    assert mats_frac09.cond_D > 1.0
    assert np.isfinite(mats_frac09.cond_D)


def _dense_pmu(params, mats, order):
    """Reference assembly of P^order: the closed-form RL integral of every
    wavelet on every quadrature node, projected with the full
    m_hat x n_nodes basis array."""
    nodes, weights = quadrature_nodes(params)
    basis_vals = eval_basis_many(params, nodes)
    rl_vals = np.vstack(
        [rl_integral_of_wavelet(params, i, order, nodes) for i in range(params.m_hat)]
    )
    return mats.solve_D(((rl_vals * weights) @ basis_vals.T).T).T


# blocks of B (1-based) checked against the mpmath oracle where the dense
# closed form cancels: near blocks (2, 2), (2, 3), (14, 15) and far blocks
_ORACLE_BLOCKS = {
    (5, 4, 0.9, 0.9): ((2, 2), (2, 3), (14, 15), (2, 4), (2, 16), (8, 10), (14, 16)),
}


class TestBlockGrid:
    """Block-local grid integrals against their dense eval_basis_many forms.

    M = 4 throughout: at M = 8 the monomial expansion behind D already
    differs by round-off of order 1e-7 between any two summation orders.
    """

    @pytest.mark.parametrize(
        "k, M, mu, order",
        [(3, 4, 1.0, 0.8), (4, 4, 0.7, 0.7), (5, 4, 0.9, 0.9), (7, 1, 0.75, 0.75)],
    )
    def test_pmu_matches_dense_assembly(self, k, M, mu, order):
        """Where the dense closed form cancels (at (5, 4, 0.9) it is 2.1e-12
        from mpmath on B block (14, 15) and 1.4e-12 on (14, 16), where the
        local rules are within 3e-16), only the block-1 row, whose wavelets
        are single powers, is compared with it, and blocks of the other rows
        with the mpmath oracle, at the same bound."""
        params = WaveletParams(k=k, M=M, mu=mu)
        mats = build_operational_matrices(params, frac_order=order)
        dense = _dense_pmu(params, mats, order)
        bound = 1e-10 * np.abs(dense).max()
        oracle_blocks = _ORACLE_BLOCKS.get((k, M, mu, order))
        if oracle_blocks is None:
            assert np.abs(mats.Pmu - dense).max() <= bound
            return
        pytest.importorskip("mpmath")
        from pmu_oracle import b_block_oracle

        assert np.abs(mats.Pmu - dense)[:M].max() <= bound
        for n, b in oracle_blocks:
            B = b_block_oracle(k, M, str(mu), str(order), n, b)
            cols = slice((b - 1) * M, b * M)
            ref = np.linalg.solve(mats.D[cols, cols], B.T).T  # D is symmetric
            assert np.abs(mats.Pmu[(n - 1) * M : n * M, cols] - ref).max() <= bound

    @pytest.mark.parametrize(
        "k, M, mu, order, blocks",
        [
            (5, 4, "0.9", "0.9", [(14, 16)]),
            (6, 4, "0.6", "0.6", [(1, 3), (2, 4)]),
            (7, 4, "1", "0.9", [(50, 64)]),
        ],
        ids=["5-4-0.9-0.9", "6-4-0.6-0.6", "7-4-1-0.9"],
    )
    def test_far_blocks_match_oracle(self, k, M, mu, order, blocks):
        """B = Pmu D on far blocks against 30-digit mpmath: the global-power
        closed form misses (14, 16) at (5, 4, 0.9) by 1.4e-12 and (50, 64)
        at (7, 4, 1) by 3.3e-11."""
        pytest.importorskip("mpmath")
        from pmu_oracle import b_block_oracle

        params = WaveletParams(k=k, M=M, mu=float(mu))
        mats = build_operational_matrices(params, frac_order=float(order))
        B = mats.Pmu @ mats.D
        for n, b in blocks:
            ours = B[(n - 1) * M : n * M, (b - 1) * M : b * M]
            ref = b_block_oracle(k, M, mu, order, n, b)
            assert np.abs(ours - ref).max() <= 1e-14

    @pytest.mark.parametrize(
        "k, M, mu, order, blocks, dps",
        [
            (5, 4, "0.9", "0.9", [(14, 14), (14, 15)], 30),
            (6, 4, "0.6", "0.6", [(32, 32)], 30),
            (7, 4, "1", "0.9", [(50, 51)], 30),
            (3, 8, "0.9", "0.9", [(2, 3), (4, 4)], 30),
            (5, 8, "0.9", "0.9", [(16, 16)], 50),
        ],
        ids=["5-4-0.9-0.9", "6-4-0.6-0.6", "7-4-1-0.9", "3-8-0.9-0.9", "5-8-0.9-0.9"],
    )
    def test_near_blocks_match_oracle(self, k, M, mu, order, blocks, dps):
        """B = Pmu D on same-block and adjacent-block pairs against mpmath.
        The incomplete-beta closed form on the graded grid missed these by
        1e-13 to 5e-11, and by 2.2e-6 at (5, 8), where the 30-digit oracle
        is itself 1.6e-12 off on block (16, 16), hence 50 digits there."""
        pytest.importorskip("mpmath")
        from pmu_oracle import b_block_oracle

        params = WaveletParams(k=k, M=M, mu=float(mu))
        mats = build_operational_matrices(params, frac_order=float(order))
        B = mats.Pmu @ mats.D
        for n, b in blocks:
            ours = B[(n - 1) * M : n * M, (b - 1) * M : b * M]
            ref = b_block_oracle(k, M, mu, order, n, b, dps=dps)
            assert np.abs(ours - ref).max() <= 1e-14

    def test_node_on_breakpoint_side_of_previous_block(self):
        """At (7, 0.75) round-off in zeta**mu assigns a node lying at or below
        a breakpoint to the block above it, so block starts must follow the
        point assignment, not the breakpoints."""
        params = WaveletParams(k=7, M=1, mu=0.75)
        grid = quadrature_grid(params)
        beyond = np.searchsorted(grid.nodes, params.breakpoints(), side="right")
        assert np.any(beyond != grid.starts)

    def test_blocks_follow_point_assignment(self):
        params = WaveletParams(k=3, M=3, mu=0.7)
        grid = quadrature_grid(params, extra_breakpoints=(0.25, 0.8))
        counts = np.diff(grid.starts)
        assert counts.sum() == grid.nodes.size
        assert len(set(counts)) > 1
        vals = eval_basis_many(params, grid.nodes)
        M = params.M
        for b, sl in enumerate(grid.block_slices()):
            np.testing.assert_array_equal(vals[b * M : (b + 1) * M, sl], grid.local[:, sl])
            assert np.count_nonzero(vals[:, sl]) == np.count_nonzero(grid.local[:, sl])

    @pytest.mark.parametrize("extra", [(), (0.3, 0.71)])
    def test_inner_products_match_dense(self, extra):
        params = WaveletParams(k=4, M=4, mu=0.7)
        f = lambda z: np.exp(np.asarray(z)) * np.sqrt(np.asarray(z))
        nodes, weights = quadrature_nodes(params, extra)
        dense = eval_basis_many(params, nodes) @ (weights * f(nodes))
        np.testing.assert_allclose(
            inner_products(f, params, extra), dense, rtol=0.0, atol=1e-13
        )

    def test_weighted_gram_and_evaluation_match_dense(self):
        params = WaveletParams(k=4, M=4, mu=0.7)
        grid = quadrature_grid(params)
        vals = eval_basis_many(params, grid.nodes)
        w = 1.0 + np.cos(3.0 * grid.nodes)
        dense_gram = (vals * (grid.weights * w)) @ vals.T
        np.testing.assert_allclose(grid.weighted_gram(w), dense_gram, rtol=0.0, atol=1e-13)
        c = np.random.default_rng(4).standard_normal(params.m_hat)
        np.testing.assert_allclose(grid.evaluate(c), c @ vals, rtol=0.0, atol=1e-13)

    def test_requadrature_matches_dense(self):
        params = WaveletParams(k=4, M=4, mu=0.7)
        problem = FocpProblem(
            p_fn=lambda z: 1.0 + np.asarray(z), q_fn=lambda z: np.ones_like(z),
            a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
            x0=0.5, mu=0.7,
            track_x=lambda z: np.asarray(z) ** 0.7, track_u=lambda z: np.cos(z),
        )
        disc = discretize(problem, params)
        rng = np.random.default_rng(8)
        C2, U = rng.standard_normal(params.m_hat), rng.standard_normal(params.m_hat)
        nodes, weights = quadrature_nodes(params)
        vals = eval_basis_many(params, nodes)
        integrand = 0.5 * (
            (1.0 + nodes) * (C2 @ vals - nodes**0.7) ** 2 + (U @ vals - np.cos(nodes)) ** 2
        )
        dense = float(np.dot(weights, integrand))
        assert _requadrature_cost(disc, C2, U) == pytest.approx(dense, rel=0.0, abs=1e-13)

    def test_grid_and_extra_breakpoints_are_exclusive(self, params_frac09, mats_frac09):
        with pytest.raises(ValueError):
            inner_products(np.cos, params_frac09, (0.3,), grid=mats_frac09.grid)


def test_pmu_is_built_from_local_rules(monkeypatch):
    """P^mu reads only D (no quadrature grid) and evaluates the incomplete
    beta only for the row of block 1, at its target nodes: 5,056 values at
    (7, 4), where the closed form on the graded grid took 785,664."""
    params = WaveletParams(k=7, M=4, mu=1.0)
    D = gram_matrix(params)
    mats = OperationalMatrices(
        params=params, frac_order=0.9, D=D, Pmu=np.empty(0), triple=np.empty(0),
        cond_D=1.0, grid=None, D_factor=spd_factor(D),
    )
    evaluated = []

    def counting_betainc(a, b, x):
        out = betainc(a, b, x)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(opmats, "betainc", counting_betainc)
    P = integration_matrix_fractional(params, mats, 0.9)
    assert np.all(np.isfinite(P))
    assert 0 < sum(evaluated) < 30_000


def test_p1_built_on_request(params_frac09):
    mats = build_operational_matrices(params_frac09)
    assert "P1" not in vars(mats)
    eager = integration_matrix_first_order(params_frac09, mats)
    assert np.array_equal(mats.P1, eager)


def test_solve_d_reuses_stored_factor(monkeypatch, mats_frac09):
    rhs = np.random.default_rng(2).standard_normal((mats_frac09.params.m_hat, 3))
    expected = solve_spd(mats_frac09.D, rhs)

    def refactor(A):
        raise AssertionError("D factorized again")

    monkeypatch.setattr(quadrature, "spd_factor", refactor)
    assert np.array_equal(mats_frac09.solve_D(rhs), expected)
