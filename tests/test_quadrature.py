import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integrate_piecewise
from wavefocp import quadrature
from wavefocp.quadrature import (
    LowerTriangular,
    SingularMatrixError,
    betainc,
    condition_estimate,
    gamma,
    gauss_jacobi_left,
    gauss_jacobi_right,
    gauss_legendre,
    graded_breakpoints,
    invert_blocks,
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

    # 1/0.7 - 1 and 1.0 are the exponents of block 1 of D at mu = 0.7, 0.5
    @pytest.mark.parametrize("exponent", [-0.9, -0.5, -0.1, 0.5, 0.9, 1 / 0.7 - 1, 1.0])
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

    def test_solve_spd_refuses_indefinite_and_singular(self):
        """``solve_spd`` has no second route: where Cholesky fails it raises,
        and the solver re-solves by its dense KKT LU."""
        b = np.array([1.0, -1.0])
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert spd_factor(indefinite) is None
        for A in (indefinite, np.array([[1.0, 2.0], [2.0, 4.0]])):
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


# The incomplete-beta grid: a = q + 1, q = mu m for m < M (M = 12 holds the
# a of M = 4 and 8), at the orders b that the operational matrices use.
BETAINC_MU = (0.3, 0.5, 0.75, 0.9, 1.0)
BETAINC_B = (0.2, 0.3, 0.5, 0.75, 0.9, 1.0)


def _betainc_edges(a, b):
    """x on both sides of every point where betainc changes its series or
    the series' size, for a single a, located by bisection (none at b = 1,
    where I_x(a, 1) = x^a)."""
    if b == 1.0:
        return np.empty(0)

    def plan(x):
        rows = np.zeros(x.size, dtype=np.intp)
        comp, code = quadrature._series_choice(np.array([a]), np.full(x.size, a), rows, b, x)
        return comp * 100 + code

    grid = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 2001), 10.0 ** -np.linspace(1, 15, 400),
        1.0 - 10.0 ** -np.linspace(1, 15, 400),
    ]))
    kinds = plan(grid)
    change = np.flatnonzero(kinds[1:] != kinds[:-1])
    lo, hi = grid[change], grid[change + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = plan(mid) == plan(lo)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return np.concatenate([lo, hi])


class TestBetainc:
    @pytest.mark.parametrize("mu", [0.3, 0.75, 1.0])
    @pytest.mark.parametrize("b", [0.2, 0.5, 0.9, 1.0])
    def test_rows_have_the_bits_of_their_own_calls(self, mu, b):
        """An element's value does not depend on the other elements of the
        call: the (M, n) call equals its per-row and per-element calls."""
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.random(200), 10.0 ** -rng.uniform(1, 12, 40),
                            1.0 - 10.0 ** -rng.uniform(1, 12, 60), [0.0, 1.0]])
        a = 1.0 + mu * np.arange(12)[:, None]
        full = betainc(a, b, x)
        assert full.shape == (12, x.size)
        for i in range(12):
            assert np.array_equal(betainc(a[i : i + 1], b, x), full[i : i + 1])
            assert np.array_equal(betainc(a[i, 0], b, x[::7]), full[i, ::7])
        assert betainc(a[3, 0], b, x[5]) == full[3, 5]

    @pytest.mark.parametrize("mu", BETAINC_MU)
    def test_matches_mpmath(self, mu):
        """Relative error against 30-digit mpmath at random x, x near 0 and
        near 1, and both sides of every switch of series or size: at most
        5e-15 for b >= 0.5 and 1e-14 below (SciPy's own worst on this grid
        is 5.0e-15)."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(mu * 100))
        worst = {True: 0.0, False: 0.0}
        with mp.workdps(30):
            for a in 1.0 + mu * np.arange(12):
                for b in BETAINC_B:
                    x = np.concatenate([rng.random(14), 10.0 ** -rng.uniform(1, 12, 4),
                                        1.0 - 10.0 ** -rng.uniform(1, 12, 6),
                                        _betainc_edges(a, b)])
                    got = betainc(a, b, x)
                    ref = np.array([float(mp.betainc(a, b, 0, v, regularized=True)) for v in x])
                    err = np.abs(got - ref) / ref
                    worst[b >= 0.5] = max(worst[b >= 0.5], err.max())
        assert worst[True] <= 5e-15
        assert worst[False] <= 1e-14

    def test_ends_and_order_one(self):
        a = np.array([[1.0], [2.5], [7.0]])
        assert np.array_equal(betainc(a, 0.6, np.array([0.0, 1.0])), [[0.0, 1.0]] * 3)
        x = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(betainc(a, 1.0, x), x ** a)

    @pytest.mark.parametrize("a, b, x", [(0.9, 0.5, 0.3), (2.0, 0.0, 0.3), (2.0, 1.5, 0.3),
                                         (2.0, 0.5, 1.2), (2.0, 0.5, -0.1)])
    def test_rejects_outside_its_domain(self, a, b, x):
        with pytest.raises(ValueError):
            betainc(a, b, x)


def _unit_block_lower(rng, N, M):
    m = N * M
    T = np.eye(m) + np.tril(rng.standard_normal((m, m)), -1) * (0.5 / np.sqrt(m))
    for n in range(N):
        T[n * M : (n + 1) * M, n * M : (n + 1) * M] = np.eye(M)
    return T


class TestLowerTriangular:
    def _check(self, factor, L, rng):
        m = L.shape[0]
        for b in (rng.standard_normal(m), rng.standard_normal((m, 3))):
            for trans, got in ((0, factor.solve(b)), ("T", factor.solve_transposed(b))):
                ref = scipy.linalg.solve_triangular(L, b, lower=True, trans=trans)
                assert got.shape == b.shape
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [1, 4, 31, 32, 33, 128, 257])
    def test_cholesky_factor_solves_match_solve_triangular(self, m):
        rng = np.random.default_rng(m)
        B = rng.standard_normal((m, m))
        A = B @ B.T + m * np.eye(m)
        factor = spd_factor(A)
        np.testing.assert_allclose(factor.L, np.linalg.cholesky(A), rtol=0, atol=1e-13 * m)
        self._check(factor, factor.L, rng)

    @pytest.mark.parametrize("N, M", [(1, 1), (4, 1), (32, 1), (128, 1), (8, 4), (64, 4), (16, 6), (2, 12)])
    def test_unit_block_solves_match_solve_triangular(self, N, M):
        rng = np.random.default_rng(N + M)
        T = _unit_block_lower(rng, N, M)
        self._check(LowerTriangular.unit_block(T, M), T, rng)


@pytest.mark.parametrize("exponent", sorted(
    {0.0} | {1.0 / mu - 1.0 for mu in BETAINC_MU} | {b - 1.0 for b in BETAINC_B}))
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
