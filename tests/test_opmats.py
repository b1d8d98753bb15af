import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    D1_BLOCK,
    D09_BLOCK1,
    D09_BLOCK2,
    P09_PLAIN,
    basis_moment_vector,
    graded_breakpoints,
    graded_nodes,
    project,
    rl_integral_of_wavelet,
)
from wavefocp import opmats
from wavefocp.basis import WaveletParams, eval_basis_many, local_basis_values
from wavefocp.fracops import rl_integral
from wavefocp.opmats import (
    OperationalMatrices,
    build_operational_matrices,
    gram_matrix,
    inner_products,
    integration_matrix_fractional,
    integration_matrix_first_order,
    product_matrix,
    quadrature_grid,
    quadrature_nodes,
    triple_product_tensor,
)
from wavefocp.quadrature import SingularMatrixError, block_diagonal, solve_spd
from wavefocp.solver import FocpProblem, _requadrature_cost, discretize, solve_focp


def diagonal_blocks(matrix: np.ndarray, M: int) -> np.ndarray:
    """The (N, M, M) diagonal blocks of an n-major matrix of size N M."""
    N = matrix.shape[0] // M
    diag = np.arange(N)
    return matrix.reshape(N, M, N, M)[diag, :, diag, :]


# (k, M, mu, first block checked): the whole basis at k = 2 and the last
# block at k = 7, where the global-power expansion cancels
_LAST_BLOCK_CASES = [(2, 4, 0.9, 1), (7, 4, 0.9, 64)]


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

    def test_matches_quadrature(self):
        """D against the graded reference quadrature: in full at (2, 4, 0.9),
        and on the last block at (7, 4, 0.9), where a global-power expansion
        of the wavelets cancels (it misses by 1.6e-3)."""
        for k, M, mu, first in _LAST_BLOCK_CASES:
            params = WaveletParams(k=k, M=M, mu=mu)
            rows = slice((first - 1) * M, None)
            nodes, weights = graded_nodes(params)
            keep = local_basis_values(params, nodes)[0] >= first - 1
            vals = eval_basis_many(params, nodes[keep])
            D_quad = (vals[rows] * weights[keep]) @ vals.T
            np.testing.assert_allclose(gram_matrix(params)[rows], D_quad, atol=1e-10)


class TestProjection:
    def test_recovers_span_member(self, params_frac09, mats_frac09):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal(params_frac09.m_hat)

        def f(z):
            return coeffs @ eval_basis_many(params_frac09, np.atleast_1d(z))

        recovered = project(f, mats_frac09)
        np.testing.assert_allclose(recovered, coeffs, atol=1e-10)

    def test_idempotent(self, params_plain, mats_plain):
        f = lambda z: np.cosh(np.sqrt(2.0) * np.asarray(z))
        c1 = project(f, mats_plain)

        def reconstructed(z):
            return c1 @ eval_basis_many(params_plain, np.atleast_1d(z))

        c2 = project(reconstructed, mats_plain)
        assert np.abs(c2 - c1).max() <= 1e-8

    def test_residual_orthogonality(self, params_frac09, mats_frac09):
        f = lambda z: np.exp(np.asarray(z))
        c = project(f, mats_frac09)

        def residual(z):
            z = np.atleast_1d(z)
            return f(z) - c @ eval_basis_many(params_frac09, z)

        orth = inner_products(residual, mats_frac09.grid)
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
        # orthogonal to the basis; the RL integrals are non-smooth at block
        # starts, so the inner products run on the graded reference
        nodes, weights = graded_nodes(params_frac09)
        vals = eval_basis_many(params_frac09, nodes)
        for i in (0, 3, 5):
            direct = rl_integral_of_wavelet(params_frac09, i, 0.9, nodes)
            orth = vals @ (weights * (direct - P[i] @ vals))
            assert np.abs(orth).max() <= 1e-10

    def test_reference_plain(self, params_plain):
        mats = build_operational_matrices(params_plain, frac_order=0.9)
        assert np.abs(mats.Pmu - P09_PLAIN).max() <= 5e-5

    def test_closed_form_matches_oracle(self, params_frac09):
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

    def test_first_order_matches_fractional_at_one(self):
        """B = P1 D against the order-1 mpmath oracle, on the block-1 row and
        on near blocks of later rows."""
        pytest.importorskip("mpmath")
        from pmu_oracle import b_block_oracle

        k, M, mu = 5, 4, "0.9"
        mats = build_operational_matrices(WaveletParams(k=k, M=M, mu=float(mu)))
        B = mats.P1 @ mats.D
        for n, b in ((1, 2), (2, 2), (2, 3), (14, 15)):
            ours = B[(n - 1) * M : n * M, (b - 1) * M : b * M]
            ref = b_block_oracle(k, M, mu, "1", n, b)
            assert np.abs(ours - ref).max() <= 1e-14

    def test_first_order_integrates_polynomials(self, params_plain, mats_plain):
        # running integral of any basis-representable f stays representable
        # only approximately; check against a cubic whose integral is quartic
        # projected: use f = 1 whose integral z is exactly in the span
        c_one = project(lambda z: np.ones_like(np.asarray(z)), mats_plain)
        c_z = project(lambda z: np.asarray(z, dtype=float), mats_plain)
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
            c = project(lambda z, s=s: np.asarray(z, dtype=float) ** (mu * s), mats)
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
    def test_symmetry(self, params_frac09):
        T = triple_product_tensor(params_frac09)
        assert np.abs(T - np.transpose(T, (0, 2, 1, 3))).max() <= 1e-12
        assert np.abs(T - np.transpose(T, (0, 1, 3, 2))).max() <= 1e-12

    def test_cross_block_zero(self, params_frac09, mats_frac09):
        """T and the product matrix store only their N diagonal blocks, and
        the product they stand for is zero across blocks: the projection of
        psi_i (c^T Psi) vanishes off the block of psi_i."""
        params, M, N = params_frac09, params_frac09.M, params_frac09.n_blocks
        assert triple_product_tensor(params).shape == (N, M, M, M)
        c = np.random.default_rng(3).standard_normal(params.m_hat)
        C_tilde = product_matrix(c, mats_frac09)
        assert C_tilde.shape == (N, M, M)
        assert np.all(C_tilde != 0.0)
        for i in (1, M + 2):

            def product_fn(z, i=i):
                blocks, local = local_basis_values(params, np.atleast_1d(z))
                expansion = np.einsum("mj,jm->j", local, c.reshape(-1, M)[blocks])
                return expansion * np.where(blocks == i // M, local[i % M], 0.0)

            projected = project(product_fn, mats_frac09).reshape(N, M)
            own = i // M
            assert np.all(np.delete(projected, own, axis=0) == 0.0)
            np.testing.assert_allclose(projected[own], C_tilde[own, i % M], atol=1e-12)

    def test_matches_quadrature(self, params_plain):
        T = triple_product_tensor(params_plain)
        nodes, weights = graded_nodes(params_plain)
        vals = eval_basis_many(params_plain, nodes)
        T_quad = np.einsum("in,jn,ln,n->ijl", vals, vals, vals, weights)
        M = params_plain.M
        for n in range(params_plain.n_blocks):
            blk = slice(n * M, (n + 1) * M)
            np.testing.assert_allclose(T[n], T_quad[blk, blk, blk], atol=1e-10)

    def test_product_matrix_represents_multiplication(self):
        """Row i of C~ is the projection of psi_i (c^T Psi): at (2, 4, 0.9)
        for i = 2, and at (7, 4, 0.9) for a row of the last block, where a
        global-power expansion of the wavelets puts T off by 4.9e3
        (relative)."""
        for k, M, mu, first in _LAST_BLOCK_CASES:
            params = WaveletParams(k=k, M=M, mu=mu)
            mats = build_operational_matrices(params)
            c = np.random.default_rng(5).standard_normal(params.m_hat)
            C_tilde = block_diagonal(product_matrix(c, mats))
            i = (first - 1) * M + 2

            def product_fn(z, c=c, i=i):
                blocks, local = local_basis_values(params, np.atleast_1d(z))
                expansion = np.einsum("mj,jm->j", local, c.reshape(-1, M)[blocks])
                return expansion * np.where(blocks == i // M, local[i % M], 0.0)

            projected = project(product_fn, mats)
            np.testing.assert_allclose(C_tilde[i], projected, atol=1e-8)

    def test_product_matrix_linear_in_coefficients(self, mats_frac09):
        rng = np.random.default_rng(9)
        c1 = rng.standard_normal(8)
        c2 = rng.standard_normal(8)
        lhs = product_matrix(2.0 * c1 - 3.0 * c2, mats_frac09)
        rhs = 2.0 * product_matrix(c1, mats_frac09) - 3.0 * product_matrix(
            c2, mats_frac09
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize(
    "k, M, mu",
    [(4, 8, "0.9"), (5, 6, "0.9"), (5, 8, "0.7"), (6, 4, "0.75"), (7, 4, "1"), (2, 16, "0.75")],
    ids=["4-8-0.9", "5-6-0.9", "5-8-0.7", "6-4-0.75", "7-4-1", "2-16-0.75"],
)
def test_local_products_match_oracle(k, M, mu):
    """Moments, D and T on blocks 1, 2 and N against 40-digit mpmath, entry
    by entry. A global-power expansion of the wavelets misses D by 17 at
    (4, 8, 0.9) and T by 5.5e2 at (7, 4, 1), both relative, on block N."""
    pytest.importorskip("mpmath")
    from pmu_oracle import local_block_oracle

    params = WaveletParams(k=k, M=M, mu=float(mu))
    N = params.n_blocks
    moments = basis_moment_vector(params).reshape(N, M)
    D, T = gram_matrix(params), triple_product_tensor(params)
    for n in sorted({1, 2, N}):
        ref_moments, ref_D, ref_T = local_block_oracle(k, M, mu, n)
        blk = slice((n - 1) * M, n * M)
        for ours, ref in ((moments[n - 1], ref_moments), (D[blk, blk], ref_D), (T[n - 1], ref_T)):
            assert np.abs(ours / ref - 1.0).max() <= 1e-12


def test_basis_moments_match_projection_of_one(params_plain, mats_plain):
    """The moments against the inner products of f = 1 and, on the plain
    basis, against their closed form 2^((k-1)/2) sqrt(2m+1) / (N (m+1))."""
    moments = basis_moment_vector(params_plain)
    quad = inner_products(lambda z: np.ones_like(np.asarray(z)), mats_plain.grid)
    np.testing.assert_allclose(moments, quad, atol=1e-12)
    k, M, N = params_plain.k, params_plain.M, params_plain.n_blocks
    m = np.arange(M)
    exact = 2.0 ** ((k - 1) / 2) * np.sqrt(2 * m + 1.0) / (N * (m + 1.0))
    np.testing.assert_allclose(moments, np.tile(exact, N), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("k, M, mu", [(2, 4, 0.9), (6, 4, 0.9), (7, 4, 1.0)])
def test_product_matrix_matches_triple_contraction(k, M, mu):
    """C~ from the weighted Gram of c^T Psi on the grid against the paper's
    route: block n is (sum_b T_n[a, b, c] c_b) D_n^-1, with T from
    ``triple_product_tensor``, solved against the same factors of D."""
    params = WaveletParams(k=k, M=M, mu=mu)
    mats = build_operational_matrices(params)
    N = params.n_blocks
    c = np.random.default_rng(7).standard_normal(params.m_hat)
    G = np.einsum("nabc,nb->nac", triple_product_tensor(params), c.reshape(N, M))
    ref = mats.solve_D(G.transpose(0, 2, 1).reshape(N * M, M)).reshape(N, M, M)
    ref = ref.transpose(0, 2, 1)
    ours = product_matrix(c, mats)
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()


def test_condition_estimate_reported(mats_frac09):
    assert mats_frac09.cond_D > 1.0
    assert np.isfinite(mats_frac09.cond_D)


def test_d_without_cholesky_factor_is_built():
    """A D that can be inverted is built even where a block has no Cholesky
    factor (the Taylor wavelets at M = 13, k = 1, cond(D) 1.3e17), and its
    discretization carries the condition warning; whether a solve on it is
    refused is the solve routes' verdict."""
    mats = build_operational_matrices(WaveletParams(1, 13, 1.0))
    problem = FocpProblem(p_fn=np.ones_like, q_fn=np.ones_like, a_fn=lambda z: -np.ones_like(z),
                          b_fn=np.ones_like, x0=1.0, mu=1.0)
    with pytest.warns(UserWarning, match="condition"):
        discretize(problem, mats.params, mats)
    assert np.isfinite(mats.cond_D)
    assert np.isfinite(mats.Pmu).all()


def test_build_never_warns():
    """The build measures cond(D) and warns at no value of it, here 1.3e17;
    the one condition warning is ``discretize``'s."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mats = build_operational_matrices(WaveletParams(1, 13, 1.0))
    assert mats.cond_D > 1e17


def test_gamma_overflow_in_pmu_is_avoided():
    """At M = 171 the Gamma ratio of B_11 has a factor past Gamma's overflow
    point; Pmu is built from log-Gamma there (it raised OverflowError), and
    both solve routes refuse the solve."""
    params = WaveletParams(1, 171, 1.0)
    mats = build_operational_matrices(params)
    assert np.isfinite(mats.Pmu).all()
    problem = FocpProblem(p_fn=np.ones_like, q_fn=np.ones_like, a_fn=lambda z: -np.ones_like(z),
                          b_fn=np.ones_like, x0=1.0, mu=1.0)
    with pytest.warns(UserWarning, match="condition"):
        with pytest.raises(SingularMatrixError):
            solve_focp(problem, params, mats, diagnostics=False)


@pytest.mark.parametrize("cond", [math.inf, math.nan])
def test_singular_d_is_refused(monkeypatch, cond):
    """A D whose condition estimate is not finite (a block that
    ``np.linalg.inv`` finds singular, so ``solve_D`` could not solve with
    it) is the one bundle the build refuses."""
    monkeypatch.setattr(opmats, "condition_estimate", lambda blocks: cond)
    with pytest.raises(SingularMatrixError, match="Gram matrix D"):
        build_operational_matrices(WaveletParams(2, 4, 0.9))


@pytest.mark.parametrize("k, M, mu", [(2, 4, 0.9), (5, 6, 0.7), (3, 8, 1.0)])
def test_cond_d_from_blocks_matches_dense(k, M, mu):
    """cond_D comes from the diagonal blocks of D; the dense 1-norm
    condition number inverts all of D."""
    mats = build_operational_matrices(WaveletParams(k=k, M=M, mu=mu))
    assert mats.cond_D == pytest.approx(np.linalg.cond(mats.D, 1), rel=1e-6)


@pytest.mark.parametrize("k, M, order", [(3, 4, 0.5), (6, 4, 0.7), (7, 4, 0.9)])
def test_tw_pmu_tiles_row_block_one(k, M, order):
    """For the Taylor wavelets B is block-Toeplitz, and P^mu = B D^-1 is
    built from the row of block 1 copied into the later rows. The near- and
    far-field rules, which fill those rows for the fractional basis, give
    the same B to rounding (at most 1.7e-16 measured); D^-1 amplifies that
    to 1.6e-13 on P^mu at (3, 4)."""
    params = WaveletParams(k=k, M=M, mu=1.0)
    mats = build_operational_matrices(params, frac_order=order)
    tiled = np.zeros((params.m_hat, params.m_hat))
    opmats._row_block_one(params, order, tiled)
    opmats._tile_row_block_one(params, tiled)
    assert np.array_equal(mats.Pmu, mats.solve_D(tiled.T).T)
    B = np.zeros_like(tiled)
    opmats._row_block_one(params, order, B)
    opmats._near_field(params, order, B)
    opmats._far_field(params, order, B)
    assert np.abs(tiled - B).max() <= 1e-15
    assert np.abs(mats.Pmu - mats.solve_D(B.T).T).max() <= 1e-12


@pytest.mark.parametrize("k, M", [(2, 8), (5, 4)])
@pytest.mark.parametrize("order", [0.3, 0.9, 1.0])
def test_tw_row_solve_matches_full_solve(k, M, order):
    """For tw only the row of block 1 is solved against D and tiled; the
    diagonal blocks of rows n >= 2 are solved against D_2, because D_1
    comes from the graded rule and differs from it at rounding. That
    matches solving the whole tiled B against D within 1e-15 relative (bit
    for bit on x86-64 with OpenBLAS)."""
    params = WaveletParams(k=k, M=M, mu=1.0)
    mats = build_operational_matrices(params, frac_order=order)
    assert not np.array_equal(mats.D_blocks[0], mats.D_blocks[1])
    B = np.zeros((params.m_hat, params.m_hat))
    opmats._row_block_one(params, order, B)
    opmats._tile_row_block_one(params, B)
    full = mats.solve_D(B.T).T
    assert np.abs(mats.Pmu - full).max() <= 1e-15 * np.abs(full).max()


@pytest.mark.parametrize(
    "k, M, mu, order, blocks",
    [(5, 4, "0.3", "0.5", [(2, 4), (2, 16), (9, 11), (14, 16)]),
     (4, 4, "0.1", "0.1", [(2, 4), (5, 8)]),
     (5, 4, "0.9", "0.9", [(2, 4), (13, 15)])],
    ids=["5-4-0.3-0.5", "4-4-0.1-0.1", "5-4-0.9-0.9"],
)
def test_far_field_matches_oracle(k, M, mu, order, blocks):
    """Far-field blocks of B, whose gap is the sum of three non-negative
    terms, against 50-digit mpmath within 1e-15 of each block's largest
    entry (at most 6.5e-16 measured; the single-step gap gave 7.9e-16)."""
    pytest.importorskip("mpmath")
    from pmu_oracle import b_block_oracle

    params = WaveletParams(k=k, M=M, mu=float(mu))
    B = np.zeros((params.m_hat, params.m_hat))
    opmats._far_field(params, float(order), B)
    for n, b in blocks:
        ref = b_block_oracle(k, M, mu, order, n, b, dps=50)
        ours = B[(n - 1) * M : n * M, (b - 1) * M : b * M]
        assert np.abs(ours - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize(
    "k, M, mu, order, b",
    [(7, 8, "0.5", "0.9", 2), (7, 8, "0.5", "0.9", 3), (7, 8, "0.5", "0.9", 64),
     (6, 12, "0.9", "0.5", 2), (3, 4, "0.2", "0.5", 2)],
)
def test_row_block_one_matches_oracle(k, M, mu, order, b):
    """B's row of block 1 against 50-digit mpmath, within 1e-15 of each
    block's largest entry; the incomplete-beta closed form at the target
    nodes missed the first four blocks by 3.1e-15, 2.8e-15, 1.1e-15 and
    2.6e-15. At mu = 0.2 a split of block 2's source at y = 1/2, not
    s = 1/2, missed by 1.7e-13."""
    pytest.importorskip("mpmath")
    from pmu_oracle import b_block_oracle

    params = WaveletParams(k=k, M=M, mu=float(mu))
    B = np.zeros((params.m_hat, params.m_hat))
    opmats._row_block_one(params, float(order), B)
    ref = b_block_oracle(k, M, mu, order, 1, b, dps=50)
    assert np.abs(B[:M, (b - 1) * M : b * M] - ref).max() <= 1e-15 * np.abs(ref).max()


def _dense_pmu(params, mats, order):
    """Reference assembly of P^order: the closed-form RL integral of every
    wavelet on every node of the graded reference quadrature, projected with
    the full m_hat x n_nodes basis array."""
    nodes, weights = graded_nodes(params)
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
    """Block-local grid integrals against their dense eval_basis_many forms."""

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

    def test_blocks_follow_point_assignment(self):
        """Every node lies in the block whose rule placed it, under the
        ``local_basis_values`` assignment, also at (7, 1, 0.75), where round-off
        in zeta**mu moves points lying on a breakpoint into the block above."""
        for k, M, mu in ((3, 3, 0.7), (7, 1, 0.75)):
            params = WaveletParams(k=k, M=M, mu=mu)
            grid = quadrature_grid(params)
            counts = np.diff(grid.starts)
            assert counts.sum() == grid.nodes.size
            assert len(set(counts)) > 1
            owner = np.repeat(np.arange(params.n_blocks), counts)
            np.testing.assert_array_equal(local_basis_values(params, grid.nodes)[0], owner)
            # grid.local is taken at the rule's own s, the evaluator recomputes
            # s from zeta: they differ by round-off (2.9e-14 at (3, 3, 0.7))
            vals = eval_basis_many(params, grid.nodes)
            for b, (lo, hi) in enumerate(zip(grid.starts[:-1], grid.starts[1:])):
                sl = slice(lo, hi)
                np.testing.assert_allclose(
                    vals[b * M : (b + 1) * M, sl], grid.local[:, sl], rtol=1e-12, atol=0.0
                )

    def test_inner_products_match_dense(self):
        params = WaveletParams(k=4, M=4, mu=0.7)
        f = lambda z: np.exp(np.asarray(z)) * np.sqrt(np.asarray(z))
        nodes, weights = quadrature_nodes(params)
        dense = eval_basis_many(params, nodes) @ (weights * f(nodes))
        grid = quadrature_grid(params)
        np.testing.assert_allclose(inner_products(f, grid), dense, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k, M, mu", [(2, 4, 0.9), (6, 4, 0.9), (5, 8, 0.7)])
    def test_node_count(self, k, M, mu):
        """17 graded segments on block 1 and one on every later block, with
        Q = 16 + M points each: 960 nodes at (6, 4), where the rule graded
        toward every breakpoint had 33,792."""
        params = WaveletParams(k=k, M=M, mu=mu)
        Q = 16 + M
        nodes, weights = quadrature_nodes(params)
        assert nodes.size == weights.size == 17 * Q + (params.n_blocks - 1) * Q
        assert np.all(np.diff(nodes) > 0.0)

    @pytest.mark.parametrize("k, M, mu", [(7, 4, 0.9), (5, 8, 0.7), (2, 4, 0.5), (3, 4, 1.0)])
    def test_grid_matches_graded_reference(self, k, M, mu):
        """Inner products and weighted Grams on blocks 1, 2 and N against the
        graded reference quadrature, entry by entry, for a function with
        sqrt(zeta) behaviour at 0 and for a smooth positive weight."""
        params = WaveletParams(k=k, M=M, mu=mu)
        N = params.n_blocks
        grid = quadrature_grid(params)
        nodes, weights = graded_nodes(params)
        blocks, local = local_basis_values(params, nodes)
        for f in (lambda z: np.exp(z) * np.sqrt(z), lambda z: 1.0 + np.cos(3.0 * z)):
            ours_ip = grid.inner_products(f(grid.nodes)).reshape(N, M)
            ours_gram = grid.gram_blocks(f(grid.nodes))
            lw = local * (weights * f(nodes))
            for n in sorted({1, 2, N}):
                own = blocks == n - 1
                ref_ip = lw[:, own].sum(axis=1)
                ref_gram = lw[:, own] @ local[:, own].T
                assert np.abs(ours_ip[n - 1] / ref_ip - 1.0).max() <= 1e-13
                assert np.abs(ours_gram[n - 1] / ref_gram - 1.0).max() <= 1e-13

    def test_weighted_gram_and_evaluation_match_dense(self):
        params = WaveletParams(k=4, M=4, mu=0.7)
        grid = quadrature_grid(params)
        vals = eval_basis_many(params, grid.nodes)
        w = 1.0 + np.cos(3.0 * grid.nodes)
        dense_gram = (vals * (grid.weights * w)) @ vals.T
        ours = block_diagonal(grid.gram_blocks(w))
        np.testing.assert_allclose(ours, dense_gram, rtol=0.0, atol=1e-13)
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


def test_pmu_is_built_from_local_rules():
    """P^mu reads only D: a bundle with no quadrature grid builds it."""
    params = WaveletParams(k=7, M=4, mu=1.0)
    mats = OperationalMatrices(
        params=params, frac_order=0.9, Pmu=np.empty(0), cond_D=1.0, grid=None,
        D_blocks=diagonal_blocks(gram_matrix(params), params.M),
    )
    P = integration_matrix_fractional(params, mats, 0.9)
    assert np.all(np.isfinite(P))


def test_graded_rule_built_once_and_read_only():
    """The graded rule is memoized per (points, n_blocks) and shared, so its
    arrays are read-only; a fresh build gives the same arrays."""
    first = opmats._graded_rule(20, 4)
    assert opmats._graded_rule(20, 4) is first
    for shared, fresh in zip(first, opmats._graded_rule.__wrapped__(20, 4)):
        assert not shared.flags.writeable
        assert np.array_equal(shared, fresh)
    with pytest.raises(ValueError):
        first[0][0] = 0.0


def test_pmu_rules_built_once_per_order(monkeypatch):
    """The fixed rules of B are built once per (order, points) (the y-rules
    once per (mu, M, points)) and shared read-only: a second build at the
    same order makes no Gauss-Jacobi rule."""
    params = WaveletParams(k=4, M=4, mu=0.55)
    Q = opmats._rule_points(params)
    mats = build_operational_matrices(params, frac_order=0.45)
    calls = []
    original = opmats.gauss_jacobi_left

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(opmats, "gauss_jacobi_left", counted)
    again = integration_matrix_fractional(params, mats, 0.45)
    assert calls == []
    assert np.array_equal(again, mats.Pmu)
    for rule in (*opmats._singular_rules(0.45, Q), opmats._y_rules(0.55, 4, Q),
                 opmats._near_field_phi(4, 0.45, Q)):
        for array in rule:
            assert not array.flags.writeable


def _unprojected(params, order):
    """B of P^mu = B D^-1 as the build fills it (for mu = 1, its row of
    block 1 only)."""
    B = np.zeros((params.m_hat, params.m_hat))
    opmats._row_block_one(params, order, B)
    if params.mu != 1.0:
        opmats._near_field(params, order, B)
        opmats._far_field(params, order, B)
    return B


def test_pmu_rule_size_map(monkeypatch):
    """B from the rules sized by ``_rule_points`` is within 4e-15 of max|B|
    of a 40-point build of the same rules, on ftw at orders mu and 1 and on
    tw; (6, 4, 0.9) ftw takes 12 points, M = 8 and basis mu 0.05 take 16."""
    points = []
    original = opmats.gauss_legendre

    def recorded(n, *args):
        points.append(n)
        return original(n, *args)

    with monkeypatch.context() as patch:
        patch.setattr(opmats, "gauss_legendre", recorded)
        for (k, M, mu), expected in [((6, 4, 0.9), 12), ((2, 8, 0.9), 16), ((2, 4, 0.05), 16)]:
            points.clear()
            _unprojected(WaveletParams(k=k, M=M, mu=mu), 1.0)
            assert set(points) == {expected}, (k, M, mu)
    cases = [(mu, order) for mu in (0.1, 0.3, 0.5, 0.7, 0.9) for order in (mu, 1.0)]
    cases += [(1.0, order) for order in (0.1, 0.5, 0.9, 1.0)]
    for M in (1, 2, 3, 4, 5, 6, 8):
        for k in (1, 2, 4):
            for mu, order in cases:
                params = WaveletParams(k=k, M=M, mu=mu)
                sized = _unprojected(params, order)
                with monkeypatch.context() as patch:
                    patch.setattr(opmats, "_rule_points", lambda params: 40)
                    fine = _unprojected(params, order)
                error = np.abs(sized - fine).max() / np.abs(fine).max()
                assert error <= 4e-15, (k, M, mu, order, error)


def test_p1_built_on_request(params_frac09):
    mats = build_operational_matrices(params_frac09)
    assert "P1" not in vars(mats)
    eager = integration_matrix_first_order(params_frac09, mats)
    assert np.array_equal(mats.P1, eager)


def test_solve_d_matches_dense_spd_solve(mats_frac09):
    """solve_D, one batched LU solve on the diagonal blocks of D, agrees
    with the Cholesky solve of the dense D on 1-D and 3-column right-hand
    sides."""
    rhs = np.random.default_rng(2).standard_normal((mats_frac09.params.m_hat, 3))
    for b in (rhs[:, 0], rhs):
        x = mats_frac09.solve_D(b)
        assert x.shape == b.shape
        np.testing.assert_allclose(x, solve_spd(mats_frac09.D, b), rtol=1e-12)


@pytest.mark.parametrize("k, M, mu", [(3, 8, 0.9), (5, 8, 0.9), (2, 10, 1.0)])
def test_solve_d_is_backward_stable(k, M, mu):
    """Per block, the normwise backward error of solve_D,
    ||D_n x - b||_inf / (||D_n||_inf ||x||_inf), is at most 2 eps on the
    right-hand side that P^mu = B D^-1 solves and on a random 3-column one
    (the explicit inverse Cholesky factors gave 4 to 12 eps here)."""
    params = WaveletParams(k=k, M=M, mu=mu)
    mats = build_operational_matrices(params)
    N = params.n_blocks
    blocks = mats.D_blocks
    rng = np.random.default_rng(k + M)
    for rhs in ((mats.Pmu @ mats.D).T, rng.standard_normal((params.m_hat, 3))):
        b = rhs.reshape(N, M, -1)
        x = mats.solve_D(rhs).reshape(b.shape)
        residual = np.abs(blocks @ x - b).max(axis=1)
        scale = np.abs(blocks).sum(axis=2).max(axis=1)[:, None] * np.abs(x).max(axis=1)
        solved = scale > 0.0
        assert (residual[solved] / scale[solved]).max() <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("k, M, mu", [(1, 4, 0.5), (3, 4, 1.0)])
def test_gram_matches_exact_rational(k, M, mu):
    """D on the grid is within 1e-15 of the exact D, whose block entries are
    2^(k-1) sqrt(2a+1) sqrt(2b+1) / (N (mu (a + b) + 1)) wherever every
    block is block 1 or mu = 1 (numpy's Legendre weights gave 7.8e-15 and
    5.2e-15 here)."""
    from fractions import Fraction

    params = WaveletParams(k=k, M=M, mu=mu)
    N = params.n_blocks
    assert N == 1 or mu == 1.0
    block = np.array([
        [float(Fraction(2 ** (k - 1), N) / (Fraction(mu) * (a + b) + 1))
         * math.sqrt((2 * a + 1) * (2 * b + 1)) for b in range(M)]
        for a in range(M)
    ])
    D = build_operational_matrices(params).D
    assert np.abs(diagonal_blocks(D, M) - block).max() <= 1e-15


def test_at_order_shares_the_basis_matrices():
    """A bundle at another order shares the grid and the blocks of D, and
    its P^mu has the bits of a fresh build at that order."""
    params = WaveletParams(k=3, M=4, mu=1.0)
    base = build_operational_matrices(params, frac_order=0.5)
    assert base.at_order(0.5) is base
    mats = base.at_order(0.9)
    assert mats.frac_order == 0.9
    assert mats.grid is base.grid and mats.D_blocks is base.D_blocks
    assert np.array_equal(mats.Pmu, build_operational_matrices(params, frac_order=0.9).Pmu)
