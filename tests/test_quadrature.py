import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graded_breakpoints, integrate, integrate_piecewise, survey_problem
from wavefocp import quadrature, solver
from wavefocp.basis import WaveletParams
from wavefocp.quadrature import (
    SingularMatrixError,
    condition_estimate,
    gamma,
    gauss_jacobi_left,
    gauss_jacobi_right,
    gauss_legendre,
    invert_blocks,
    solve_linear,
    solve_spd,
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


def _golub_welsch_weights(n, exponent):
    """Weights, by increasing node, of the n-point Gauss rule for the weight
    (1 - x)^exponent on [-1, 1] from a 40-digit Golub-Welsch computation
    (eigenvectors of the Jacobi matrix)."""
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
        ref = sorted((float(nodes[i]), float(total * vectors[0, i] ** 2)) for i in range(n))
    return np.array([w for _, w in ref])


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [17, 20, 24])
    def test_weights_accurate_to_rounding(self, n):
        """Every weight within 1e-15 relative of the 40-digit rule (numpy's
        leggauss misses by up to 7e-14 at n = 20 and 1.2e-13 at n = 24)."""
        w_ref = _golub_welsch_weights(n, 0.0)
        w = gauss_legendre(n, -1.0, 1.0).weights
        assert np.all(np.abs(w - w_ref) <= 1e-15 * w_ref)

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
        assert integrate(rule, lambda t: t**31) == pytest.approx(1 / 32, rel=1e-13)

    def test_exactness_up_to_2n_minus_1(self):
        for n in (2, 4, 8):
            rule = gauss_legendre(n, 0.0, 1.0)
            for d in range(2 * n):
                assert integrate(rule, lambda t, d=d: t**d) == pytest.approx(
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

    def test_column_intervals_give_one_rule_per_row(self):
        edges = np.array([0.0, 0.1, 0.35, 1.0])
        rules = gauss_legendre(6, edges[:-1, None], edges[1:, None])
        assert rules.nodes.shape == rules.weights.shape == (3, 6)
        for row, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            rule = gauss_legendre(6, lo, hi)
            np.testing.assert_array_equal(rules.nodes[row], rule.nodes)
            np.testing.assert_array_equal(rules.weights[row], rule.weights)
        with pytest.raises(ValueError):
            gauss_legendre(6, np.array([[0.0], [0.5]]), np.array([[0.5], [0.5]]))


class TestGaussJacobiRight:
    def test_column_intervals_give_one_rule_per_row(self):
        lo, hi = np.array([0.0, 0.2, 0.2]), np.array([0.3, 0.9, 1.0])
        rules = gauss_jacobi_right(5, lo[:, None], hi[:, None], -0.4)
        for row in range(3):
            rule = gauss_jacobi_right(5, lo[row], hi[row], -0.4)
            np.testing.assert_array_equal(rules.nodes[row], rule.nodes)
            np.testing.assert_array_equal(rules.weights[row], rule.weights)
        with pytest.raises(ValueError):
            gauss_jacobi_right(5, lo[:, None], lo[:, None] + [[0.1], [0.0], [0.1]], -0.4)

    def test_zero_exponent_matches_legendre(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(6)
        poly = np.polynomial.Polynomial(coeffs)
        gj = gauss_jacobi_right(8, 0.0, 1.0, 0.0)
        gl = gauss_legendre(8, 0.0, 1.0)
        assert integrate(gj, poly) == pytest.approx(integrate(gl, poly), abs=1e-12)

    def test_inverse_sqrt_weight(self):
        rule = gauss_jacobi_right(4, 0.0, 1.0, -0.5)
        assert integrate(rule, lambda t: np.ones_like(t)) == pytest.approx(2.0)

    def test_beta_identity(self):
        rule = gauss_jacobi_right(8, 0.0, 1.0, -0.1)
        expected = gamma(2.0) * gamma(0.9) / gamma(2.9)
        assert integrate(rule, lambda t: t) == pytest.approx(expected, rel=1e-12)

    def test_rejects_exponent_at_minus_one(self):
        with pytest.raises(ValueError):
            gauss_jacobi_right(4, 0.0, 1.0, -1.0)

    # 1/0.7 - 1 and 1.0 are the exponents of block 1 of D at mu = 0.7, 0.5;
    # 2.7 to 11.0 those mu m of the y-rules of P^mu's row of block 1, up to M = 12
    @pytest.mark.parametrize(
        "exponent", [-0.9, -0.5, -0.1, 0.5, 0.9, 1 / 0.7 - 1, 1.0, 2.7, 5.5, 9.9, 11.0]
    )
    @pytest.mark.parametrize("n", [12, 24])
    def test_weights_match_golub_welsch(self, n, exponent):
        """Weights against a 40-digit Golub-Welsch rule (eigenvectors of the
        Jacobi matrix); scipy's roots_jacobi misses this by up to 6e-13."""
        w_ref = _golub_welsch_weights(n, exponent)
        w = gauss_jacobi_right(n, -1.0, 1.0, exponent).weights
        assert np.abs(w - w_ref).sum() <= 5e-14 * w_ref.sum()

    def test_left_rule_mirrors_right(self):
        rule = gauss_jacobi_left(8, 0.0, 2.0, 0.5)
        # int_0^2 t^0.5 t^2 dt = 2^3.5 / 3.5
        assert integrate(rule, lambda t: t**2) == pytest.approx(2**3.5 / 3.5, rel=1e-14)


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
        with pytest.raises(SingularMatrixError, match="pivot"):
            solve_linear(A, np.array([1.0, 2.0]))

    def test_solve_spd_matches_solve_linear(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((6, 6))
        A = B @ B.T + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        np.testing.assert_allclose(solve_spd(A, b), solve_linear(A, b), atol=1e-11)

    def test_solve_spd_refuses_indefinite_and_singular(self):
        """``solve_spd`` has no second route: where Cholesky fails it raises.
        A NaN entry, which
        ``np.linalg.cholesky`` passes through (and, above the diagonal,
        never reads), is refused too."""
        b = np.array([1.0, -1.0])
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        nans = (np.array([[1.0, 0.0], [np.nan, 1.0]]), np.array([[1.0, np.nan], [0.0, 1.0]]))
        for A in (indefinite, *nans, np.array([[1.0, 2.0], [2.0, 4.0]])):
            with pytest.raises(SingularMatrixError):
                solve_spd(A, b)


def test_condition_estimate_identity():
    assert condition_estimate(np.eye(4)) == pytest.approx(1.0)


def _spd_blocks(rng, N, M):
    A = rng.standard_normal((N, M, M))
    return A @ A.transpose(0, 2, 1) + M * np.eye(M)


def test_condition_estimate_of_blocks_is_that_of_block_diagonal():
    blocks = _spd_blocks(np.random.default_rng(4), 5, 3)
    dense = scipy.linalg.block_diag(*blocks)
    assert condition_estimate(blocks) == pytest.approx(np.linalg.cond(dense, 1), rel=1e-13)
    assert condition_estimate(np.zeros((2, 3, 3))) == float("inf")


class TestBlockSolves:
    def test_invert_blocks(self):
        blocks = _spd_blocks(np.random.default_rng(9), 3, 4)
        identity = np.broadcast_to(np.eye(4), blocks.shape)
        np.testing.assert_allclose(invert_blocks(blocks) @ blocks, identity, atol=1e-13)
        singular = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])])
        with pytest.raises(SingularMatrixError):
            invert_blocks(singular)
        with pytest.raises(SingularMatrixError):
            invert_blocks(np.stack([np.eye(2), np.diag([1.0, 1e-15])]))

    def test_invert_blocks_inverts_once(self, monkeypatch):
        """The condition check and the result share one inverse."""
        blocks = _spd_blocks(np.random.default_rng(9), 3, 4)
        inverses = []
        inv = np.linalg.inv

        def counted(A):
            inverses.append(inv(A))
            return inverses[-1]

        monkeypatch.setattr(np.linalg, "inv", counted)
        result = invert_blocks(blocks)
        assert len(inverses) == 1
        assert np.array_equal(result, inv(blocks))


def test_graded_breakpoints_refine_toward_ends():
    pts = graded_breakpoints([0.0, 1.0], levels=4, ratio=0.2)
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)
    assert pts[1] == pytest.approx(0.2**4)


@pytest.mark.parametrize("N, M, rows", [(64, 4, 32), (128, 1, 32), (16, 6, 48), (12, 6, 36),
                                        (2, 12, 24), (10, 4, 40), (4, 40, 40)])
def test_blocks_per_leaf(N, M, rows):
    """A leaf is the fewest whole blocks with at least 32 rows that divide
    the block count, or all N blocks."""
    assert quadrature.blocks_per_leaf(N, M) * M == rows


def _block_lower(rng, N, M):
    """A matrix lower-triangular in M x M blocks, with random entries of
    size 0.5/sqrt(m) below the diagonal and a diagonal in [1, 2]."""
    m = N * M
    return np.tril(rng.standard_normal((m, m)), -1) * (0.5 / np.sqrt(m)) + np.diag(
        rng.uniform(1.0, 2.0, m))


class TestLowerTriangular:
    """Solves with lower-triangular factors and inverses of diagonal leaves:
    ``solve_spd``'s solves with its Cholesky factor, and the leaves of
    ``blocks_per_leaf`` blocks that ``invert_blocks`` inverts for the
    range-space route's preconditioner."""

    @pytest.mark.parametrize("m", [1, 4, 31, 32, 33, 128, 257])
    def test_cholesky_factor_solves_match_solve_triangular(self, m):
        """``solve_spd`` against two ``solve_triangular`` calls with the
        same Cholesky factor, for one right-hand side and for three."""
        rng = np.random.default_rng(m)
        B = rng.standard_normal((m, m))
        A = B @ B.T + m * np.eye(m)
        L = np.linalg.cholesky(A)
        for b in (rng.standard_normal(m), rng.standard_normal((m, 3))):
            y = scipy.linalg.solve_triangular(L, b, lower=True)
            ref = scipy.linalg.solve_triangular(L, y, lower=True, trans="T")
            got = solve_spd(A, b)
            assert got.shape == b.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("N, M, rows", [(64, 4, 32), (128, 1, 32), (16, 6, 48)])
    def test_leaves_from_one_inversion(self, monkeypatch, N, M, rows):
        """The range-space route inverts G_B's N blocks in one
        ``invert_blocks`` call and its preconditioner's leaves, of
        ``blocks_per_leaf`` blocks each, in one more."""
        calls = []
        invert = solver.invert_blocks

        def counted(blocks):
            calls.append(blocks.shape)
            return invert(blocks)

        monkeypatch.setattr(solver, "invert_blocks", counted)
        params = WaveletParams(k=N.bit_length(), M=M)
        assert params.n_blocks == N
        solver._range_space_solve(solver.discretize(survey_problem(2002), params))
        assert calls == [(N, M, M), (N * M // rows, rows, rows)]

    def test_singular_leaf_raises(self):
        """A singular or near-singular diagonal block makes its leaf too
        ill-conditioned to invert, and ``invert_blocks`` refuses the stack
        of leaves."""
        rng = np.random.default_rng(5)
        per_leaf = quadrature.blocks_per_leaf(16, 4)
        assert per_leaf == 8
        for pivot in (0.0, 1e-15):
            T = _block_lower(rng, 16, 4)
            T[45, 45] = pivot  # block 12, in the second of two 32-row leaves
            diag = np.arange(2)
            leaves = T.reshape(2, 32, 2, 32)[diag, :, diag, :]
            invert_blocks(leaves[:1])  # the first leaf alone inverts
            with pytest.raises(SingularMatrixError):
                invert_blocks(leaves)


# 1/mu - 1, the exponent of block 1's weight w_1(s), and order - 1, of the
# same-block rule of P^mu
@pytest.mark.parametrize("exponent", sorted(
    {0.0} | {1.0 / mu - 1.0 for mu in (0.3, 0.5, 0.75, 0.9, 1.0)}
    | {order - 1.0 for order in (0.2, 0.3, 0.5, 0.75, 0.9, 1.0)}))
def test_jacobi_rule_does_not_depend_on_its_start(monkeypatch, exponent):
    """The Newton polish of the Gauss-Jacobi nodes gives the same nodes and
    weights from the Jacobi-matrix eigenvalues as from SciPy's roots."""
    from scipy.special import roots_jacobi

    rules = [quadrature._jacobi_reference.__wrapped__(n, exponent) for n in range(1, 41)]
    monkeypatch.setattr(quadrature, "_jacobi_matrix_eigenvalues",
                        lambda n, a: roots_jacobi(n, a, 0.0)[0])
    for n, (x, w) in enumerate(rules, start=1):
        x_scipy, w_scipy = quadrature._jacobi_reference.__wrapped__(n, exponent)
        assert np.array_equal(x, x_scipy) and np.array_equal(w, w_scipy)
