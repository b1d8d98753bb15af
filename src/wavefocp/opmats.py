"""Gram, integration, and product operational matrices for the wavelet basis.

Each wavelet is nonzero on a single block n, where it is the plain monomial
phi_m(s) of the local coordinate s = N zeta^mu - n + 1 in [0, 1). Every
integral of a product of wavelets, or of a given function against the
basis, runs on one QuadratureGrid per bundle: a rule per block in s,
graded toward s = 0 on block 1, that keeps the M local basis values of
every node. The Gram matrix D is its weighted Gram of the constant 1, the
product matrix G D^-1 comes from the weighted Gram G of the expansion
c^T Psi, and the triple products T (stored as N blocks of M x M x M) from
the weighted Grams of the wavelets, so D, G and the product matrices are
block-diagonal. The integration matrices are least-squares projections of
the (fractionally) integrated basis functions, solved against D.

P^mu does not use the grid: every block of its unprojected matrix comes
from a fixed rule in the local block coordinates, where each wavelet is a
plain monomial. Kernel differences are formed from the exact step in the
local coordinate, so nothing cancels near the diagonal. The weakly singular
same-block kernel gets Gauss-Jacobi rules after s = s'(1 - v); the
adjacent block, singular at one corner, gets Duffy's split into two
triangles; blocks further apart get tensor Gauss-Legendre; and the row of
block 1, whose wavelets are single powers, the incomplete-beta closed form
at the target nodes only.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .basis import WaveletParams, local_wavelet_values
from .quadrature import (
    QuadratureRule,
    SingularMatrixError,
    betainc,
    condition_estimate,
    gamma,
    gauss_jacobi_left,
    gauss_legendre,
)

_COND_WARN_LIMIT = 1e12
# points per local coordinate of every rule that fills B in P^mu = B D^-1;
# the projection grid uses this many plus M
_LOCAL_RULE_POINTS = 16
# power behaviour at s = 0 (the block-2 targets of block 1 in P^mu, smooth
# functions of zeta on block 1): a composite rule on [0, ratio^levels], ...,
# [ratio, 1]
_GRADED_RATIO = 0.2
_GRADED_LEVELS = 16


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The dense n-major matrix with the (N, M, M) blocks on its diagonal."""
    N, M, _ = blocks.shape
    out = np.zeros((N * M, N * M))
    diag = np.arange(N)
    out.reshape(N, M, N, M)[diag, :, diag, :] = blocks
    return out


def diagonal_blocks(matrix: np.ndarray, M: int) -> np.ndarray:
    """The (N, M, M) diagonal blocks of an n-major matrix of size N M."""
    N = matrix.shape[0] // M
    diag = np.arange(N)
    return matrix.reshape(N, M, N, M)[diag, :, diag, :]


@lru_cache(maxsize=64)
def _graded_rule(points: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local nodes s, 0-based block offsets and weights in s of a rule over
    n_blocks consecutive blocks, ``points`` Gauss-Legendre points per segment.

    The first block gets a composite rule on [0, r^L], [r^L, r^(L-1)], ...,
    [r, 1] (r = ``_GRADED_RATIO``, L = ``_GRADED_LEVELS``), for integrands
    with power behaviour at s = 0; every later block gets a single segment.
    The caller multiplies the weights by the w_n of its blocks. The rule is
    built once per (points, n_blocks) and its arrays are read-only.
    """
    edges = np.concatenate([[0.0], _GRADED_RATIO ** np.arange(_GRADED_LEVELS, -1, -1)])
    graded = [gauss_legendre(points, a, b) for a, b in zip(edges[:-1], edges[1:])]
    rules = graded + [gauss_legendre(points, 0.0, 1.0)] * (n_blocks - 1)
    s = np.concatenate([rule.nodes for rule in rules])
    block = np.repeat(np.arange(n_blocks), [len(graded) * points] + [points] * (n_blocks - 1))
    rule = (s, block, np.concatenate([rule.weights for rule in rules]))
    for array in rule:
        array.flags.writeable = False
    return rule


def quadrature_nodes(params: WaveletParams) -> tuple[np.ndarray, np.ndarray]:
    """Sorted nodes zeta and weights of the projection rule over [0, 1].

    Block n gets ``_graded_rule`` in its local coordinate s, with
    Q = ``_LOCAL_RULE_POINTS`` + M points per segment, at
    zeta = t_n(s)^(1/mu) with weights times w_n(s): Gauss-Legendre for
    n >= 2, and on block 1, where a smooth f(zeta) is f((s/N)^(1/mu)), a
    rule graded toward s = 0; 17 Q + (N - 1) Q nodes in all. The rule is
    accurate for f analytic in s on every block, which covers f analytic in
    zeta and every product of wavelets, and on block 1 also for power
    behaviour zeta^a at zeta = 0, such as w_1(s), a multiple of s^(1/mu - 1).
    It does not resolve f that is non-smooth at an interior breakpoint.
    """
    s, block, w = _graded_rule(_LOCAL_RULE_POINTS + params.M, params.n_blocks)
    t = (s + block) / params.n_blocks
    return t ** (1.0 / params.mu), w * _dzeta(params, t)


@dataclass(frozen=True)
class QuadratureGrid:
    """The ``quadrature_nodes`` rule, grouped by wavelet block.

    Nodes are sorted; block b (0-based) owns nodes ``starts[b]:starts[b+1]``,
    the nodes its own rule placed, and ``local[m, j]`` is psi_{b+1, m} at
    node j of block b, taken at the local coordinate s of the rule. Integrals
    against the basis are per-block sums, so no m_hat x n_nodes array is
    formed.
    """

    nodes: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    local: np.ndarray

    def inner_products(self, values: np.ndarray) -> np.ndarray:
        """Integrals of f * psi_j (n-major) from f sampled at the nodes (or
        a constant f)."""
        terms = self.local * (self.weights * values)
        return np.add.reduceat(terms, self.starts[:-1], axis=1).T.ravel()

    def gram_blocks(self, values: np.ndarray) -> np.ndarray:
        """The (N, M, M) diagonal blocks of ``weighted_gram(values)``."""
        terms = self.local[:, None] * (self.local * (self.weights * values))
        return np.add.reduceat(terms, self.starts[:-1], axis=2).transpose(2, 0, 1)

    def weighted_gram(self, values: np.ndarray) -> np.ndarray:
        """Block-diagonal matrix of integrals of w * psi_i * psi_j from w
        sampled at the nodes (or a constant w)."""
        return _block_diagonal(self.gram_blocks(values))

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of the expansion with the given coefficients."""
        M = self.local.shape[0]
        blocks = np.repeat(np.arange(self.starts.size - 1), np.diff(self.starts))
        return np.einsum("mj,jm->j", self.local, coeffs.reshape(-1, M)[blocks])


def quadrature_grid(params: WaveletParams) -> QuadratureGrid:
    """Build the block-grouped grid of ``quadrature_nodes(params)``; every
    node belongs to the block whose rule placed it."""
    nodes, weights = quadrature_nodes(params)
    s, block, _ = _graded_rule(_LOCAL_RULE_POINTS + params.M, params.n_blocks)
    starts = np.searchsorted(block, np.arange(params.n_blocks + 1))
    return QuadratureGrid(
        nodes=nodes, weights=weights, starts=starts, local=local_wavelet_values(params, s)
    )


def inner_products(f: Callable[[np.ndarray], np.ndarray], grid: QuadratureGrid) -> np.ndarray:
    """Vector of integrals of f * psi_j over [0, 1] on the grid, normally
    ``mats.grid`` (see ``quadrature_nodes`` for the f it resolves)."""
    return grid.inner_products(np.asarray(f(grid.nodes), dtype=float))


def gram_matrix(params: WaveletParams) -> np.ndarray:
    """D(mu) = integral of Psi Psi^T over [0, 1]: the weighted Gram of the
    constant 1 on the projection grid; entries across distinct blocks are
    zero."""
    return quadrature_grid(params).weighted_gram(1.0)


def triple_product_tensor(params: WaveletParams) -> np.ndarray:
    """T[n-1, a, b, c] = integral of psi_{n,a} psi_{n,b} psi_{n,c}, shape
    (N, M, M, M), on the projection grid: triple products across distinct
    blocks vanish and are not stored. Slice c is the weighted Gram of
    psi_{., c}, whose values at the nodes are row c of ``grid.local``."""
    grid = quadrature_grid(params)
    return np.stack([grid.gram_blocks(values) for values in grid.local], axis=-1)


@dataclass(frozen=True)
class OperationalMatrices:
    """Immutable bundle of the matrices a solve needs.

    ``grid`` is the quadrature that D and every integral against the basis
    (projections, weighted and product Grams) run on. D is block-diagonal
    and stored once, as its N diagonal blocks ``D_blocks``, shape
    (N, M, M). The dense ``D`` and ``P1``, the integration matrix of order
    1, are built on first access; a solve reads neither.
    """

    params: WaveletParams
    frac_order: float
    D_blocks: np.ndarray
    Pmu: np.ndarray
    cond_D: float
    grid: QuadratureGrid

    @cached_property
    def D(self) -> np.ndarray:
        return _block_diagonal(self.D_blocks)

    @cached_property
    def P1(self) -> np.ndarray:
        return integration_matrix_first_order(self.params, self)

    def solve_D(self, rhs: np.ndarray) -> np.ndarray:
        """Solve D x = rhs block by block, by one batched LU solve with
        partial pivoting on ``D_blocks``; rhs is (m_hat,) or (m_hat, k),
        n-major."""
        N, M, _ = self.D_blocks.shape
        rhs = np.asarray(rhs, dtype=float)
        return np.linalg.solve(self.D_blocks, rhs.reshape(N, M, -1)).reshape(rhs.shape)

    def at_order(self, frac_order: float) -> OperationalMatrices:
        """The bundle of the same basis with ``Pmu`` of the given order
        (this bundle if it has that order). The grid, ``D_blocks`` and
        cond(D) depend on the basis only and are shared; only ``Pmu`` is
        built."""
        if frac_order == self.frac_order:
            return self
        Pmu = integration_matrix_fractional(self.params, self, frac_order)
        return dataclasses.replace(self, frac_order=frac_order, Pmu=Pmu)


def project(
    f: Callable[[np.ndarray], np.ndarray],
    params: WaveletParams,
    mats: OperationalMatrices,
) -> np.ndarray:
    """Least-squares coefficients of f in the wavelet basis, from inner
    products on ``mats.grid`` (accurate for the f that ``quadrature_nodes``
    describes)."""
    return mats.solve_D(inner_products(f, mats.grid))


def integration_matrix_first_order(
    params: WaveletParams, mats: OperationalMatrices
) -> np.ndarray:
    """P1: row i projects the running integral of psi_i back onto the basis,
    which is the RL integral of order 1."""
    return _integration_matrix(params, mats, 1.0)


def integration_matrix_fractional(
    params: WaveletParams, mats: OperationalMatrices, order: float | None = None
) -> np.ndarray:
    """P^mu of the stated order: projection of the RL integral of each psi_i.

    B[i, j] = int (I^order psi_i) psi_j vanishes for psi_j before psi_i's
    block n, so row block n has entries in target blocks b >= n only, and
    P = B D^-1. In the local coordinates s, s' in [0, 1) of blocks n and b,
    psi_{n,m} is phi_m(s) = 2^((k-1)/2) sqrt(2m+1) s^m at
    zeta_n(s) = t_n(s)^(1/mu), t_n(s) = (s+n-1)/N, with dzeta = w_n(s) ds:

        B[(n,m),(b,m')] = Gamma(order)^-1 int int (zeta_b(s') - zeta_n(s))^(order-1)
                          phi_m(s) phi_m'(s') w_n(s) w_b(s') ds ds'.

    Every block comes from a fixed rule in (s, s') with
    ``_LOCAL_RULE_POINTS`` points per coordinate: ``_row_block_one`` fills
    the row of block 1, whose wavelets are single powers of zeta;
    ``_near_field`` the same-block and adjacent-block pairs of the other
    rows, whose kernel is singular; and ``_far_field`` the rest, where it is
    smooth. No rule uses the cancelling global-power expansion of the
    wavelets, and none reads the graded grid. For the Taylor wavelets
    (mu = 1) every block is a translate of block 1 and the kernel depends
    on zeta - zeta' only, so B is block-Toeplitz, B_{n,n+d} = B_{1,1+d}, and
    the later rows are copies of the row of block 1.
    """
    return _integration_matrix(params, mats, params.mu if order is None else order)


def _integration_matrix(
    params: WaveletParams, mats: OperationalMatrices, order: float
) -> np.ndarray:
    """P = B D^-1 at the given order: the body of both public builders."""
    if not 0.0 < order <= 1.0:
        raise ValueError(f"need 0 < order <= 1, got {order}")
    B = np.zeros((params.m_hat, params.m_hat))
    _row_block_one(params, order, B)
    if params.mu == 1.0:
        _tile_row_block_one(params, B)
    else:
        _near_field(params, order, B)
        _far_field(params, order, B)
    return mats.solve_D(B.T).T


def _dzeta(params: WaveletParams, t: np.ndarray) -> np.ndarray:
    """w_n(s) = dzeta/ds at t = t_n(s)."""
    return t ** (1.0 / params.mu - 1.0) / (params.mu * params.n_blocks)


def _zeta_gap(t: np.ndarray, dt: np.ndarray, mu: float) -> np.ndarray:
    """zeta(t + dt) - zeta(t) for zeta = t^(1/mu), from the step dt itself,
    so that nothing cancels when dt is small."""
    return t ** (1.0 / mu) * np.expm1(np.log1p(dt / t) / mu)


def _row_block_one(params: WaveletParams, order: float, B: np.ndarray) -> None:
    """Fill row block 1 of B.

    psi_{1,m} = c_m (N zeta^mu)^m with c_m = phi_m(1), a single power, so
    its closed form does not cancel:

    - B_11 = c_m c_m' Gamma(mu m + 1) / Gamma(mu m + 1 + order)
      N^(-(order+1)/mu) / (mu (m + m') + order + 1);
    - for b >= 2, ``_block_one_integrals`` at the target nodes only, under
      Gauss-Legendre in s' for b >= 3 and, for b = 2, where the integral
      behaves like (zeta - bp_1)^order near s' = 0, a composite rule graded
      geometrically toward s' = 0.
    """
    N, M, mu = params.n_blocks, params.M, params.mu
    m = np.arange(M)
    c = local_wavelet_values(params, 1.0)
    ratio = _gamma_ratios(mu * m, order)
    B[:M, :M] = (
        (c * ratio)[:, None] * c * N ** (-(order + 1.0) / mu)
        / (mu * (m[:, None] + m) + order + 1.0)
    )
    if N == 1:
        return
    s, block, weights = _graded_rule(_LOCAL_RULE_POINTS, N - 1)
    block = block + 1
    t = (s + block) / N  # in target block b = block + 1
    rl = _block_one_integrals(params, order, t ** (1.0 / mu))
    weights = weights * _dzeta(params, t)
    terms = rl[:, :, None] * (local_wavelet_values(params, s) * weights).T
    starts = np.searchsorted(block, np.arange(1, N))
    B[:M, M:] = np.add.reduceat(terms, starts, axis=1).reshape(M, -1)


def _gamma_ratios(q: np.ndarray, order: float) -> np.ndarray:
    """Gamma(q + 1) / Gamma(q + 1 + order) for every q."""
    return np.array([gamma(x + 1.0) / gamma(x + 1.0 + order) for x in q])


def _block_one_integrals(params: WaveletParams, order: float, zeta: np.ndarray) -> np.ndarray:
    """(M, len(zeta)) Riemann-Liouville integrals of order ``order`` of the
    block-1 wavelets at points zeta past block 1 (zeta > bp_1).

    psi_{1,m} = c_m N^m zeta^q on [0, bp_1), q = mu m, and
    int_0^bp_1 (z - t)^(order-1) t^q dt
        = z^(q+order) B(q+1, order) I_{bp_1/z}(q+1, order),
    so one incomplete-beta call covers every wavelet and point. N^m is a
    float power: an integer one overflows from N = 64, M = 12.
    """
    N, M, mu = params.n_blocks, params.M, params.mu
    q = mu * np.arange(M)
    coef = local_wavelet_values(params, 1.0) * float(N) ** np.arange(M) * _gamma_ratios(q, order)
    q, zeta = q[:, None], np.asarray(zeta, dtype=float)
    frac = betainc(q + 1.0, order, params.breakpoints()[1] / zeta)
    return coef[:, None] * zeta ** (q + order) * frac


def _tile_row_block_one(params: WaveletParams, B: np.ndarray) -> None:
    """Fill the rows of blocks n >= 2 of a block-Toeplitz B from the row of
    block 1: B_{n,n+d} = B_{1,1+d}."""
    N = params.n_blocks
    blocks = B.reshape(N, params.M, N, params.M)
    for n in range(1, N):
        blocks[n, :, n:, :] = blocks[0, :, : N - n, :]


def _near_field(params: WaveletParams, order: float, B: np.ndarray) -> None:
    """Fill the blocks B_{n,n+d}, d = 0 and 1, of source blocks n >= 2.

    For n >= 2, w_n and w_b are smooth on [0, 1], so only the kernel needs
    care; its argument comes from ``_zeta_gap`` with the step
    t_{n+d}(s') - t_n(s) = (s' - s + d) / N written without cancellation.

    - d = 0: with s = s'(1 - v), the inner integral over s < s' runs over
      v in (0, 1], and zeta_n(s') - zeta_n(s) = s' v g(s', v) with g smooth
      and positive, so the integrand is s'^order v^(order-1) times a smooth
      factor: Gauss-Jacobi in s' (weight s'^order) times Gauss-Jacobi in v
      (weight v^(order-1)).
    - d = 1: with u = 1 - s, the kernel is singular only at the corner
      (u, s') = (0, 0). Duffy's transform splits the square along u = s'
      and maps the halves by (u, s') = (r, r theta) and (r theta, r): both
      have Jacobian r and kernel (r h(r, theta))^(order-1) with h smooth, so
      the integrand is r^order times a smooth factor: Gauss-Jacobi in r
      (weight r^order) times Gauss-Legendre in theta.

    Each rule lists points (s, s') with weights, the step N (t' - t) and the
    factor of it that the rule's weight absorbs (s' v, or r), so that
    (gap / factor)^(order-1) is smooth.
    """
    N, M, Q = params.n_blocks, params.M, _LOCAL_RULE_POINTS
    jacobi = gauss_jacobi_left(Q, 0.0, 1.0, order)

    def tensor(a: QuadratureRule, b: QuadratureRule):
        x, y = np.meshgrid(a.nodes, b.nodes, indexing="ij")
        return x.ravel(), y.ravel(), np.outer(a.weights, b.weights).ravel()

    sp, v, w = tensor(jacobi, gauss_jacobi_left(Q, 0.0, 1.0, order - 1.0))
    same = (sp * (1.0 - v), sp, sp * v, sp * v, w)
    r, theta, w = tensor(jacobi, gauss_legendre(Q, 0.0, 1.0))
    u = np.concatenate([r, r * theta])
    adjacent = (
        1.0 - u, np.concatenate([r * theta, r]),
        np.tile(r * (1.0 + theta), 2), np.tile(r, 2), np.tile(w, 2),
    )
    blocks = B.reshape(N, M, N, M)
    for d, (s, s_to, step, factor, weights) in enumerate((same, adjacent)):
        n = np.arange(2, N - d + 1)[:, None]
        t, t_to = (s + n - 1.0) / N, (s_to + n - 1.0 + d) / N
        gap = _zeta_gap(t, step / N, params.mu)
        kernel = weights * (gap / factor) ** (order - 1.0) / gamma(order)
        kernel *= _dzeta(params, t) * _dzeta(params, t_to)
        phi = local_wavelet_values(params, s)[:, None] * local_wavelet_values(params, s_to)
        rows = n.ravel() - 1
        blocks[rows, :, rows + d, :] = (kernel @ phi.reshape(M * M, -1).T).reshape(-1, M, M)


def _far_field(params: WaveletParams, order: float, B: np.ndarray) -> None:
    """Fill the blocks b >= n + 2 of source blocks n >= 2 of B.

    The blocks are at least one block apart and w_n is smooth for n >= 2,
    so a fixed tensor Gauss-Legendre rule resolves the integrand: one
    kernel matrix per source block, contracted with the weighted local
    values of the source and of every far target block.
    """
    N, M, mu = params.n_blocks, params.M, params.mu
    rule = gauss_legendre(_LOCAL_RULE_POINTS, 0.0, 1.0)
    s, Q = rule.nodes, _LOCAL_RULE_POINTS
    t = (s + np.arange(N)[:, None]) / N  # t_n(s) for block n = row n - 1
    vals = local_wavelet_values(params, s) * (_dzeta(params, t) * rule.weights)[:, None, :]
    for n in range(2, N - 1):
        step = (s - s[:, None])[:, None, :] + np.arange(2, N - n + 1)[:, None]
        kernel = _zeta_gap(t[n - 1][:, None, None], step / N, mu) ** (order - 1.0)
        src = (vals[n - 1] @ kernel.reshape(Q, -1)).reshape(M, N - n - 1, Q)
        far = np.einsum("mbl,bpl->mbp", src, vals[n + 1 :]) / gamma(order)
        B[(n - 1) * M : n * M, (n + 1) * M :] = far.reshape(M, -1)


def product_matrix(c: np.ndarray, mats: OperationalMatrices) -> np.ndarray:
    """Matrix C~ with Psi Psi^T c ~= C~ Psi; linear in c.

    G = sum_j T_ijl c_j is the weighted Gram of the expansion c^T Psi, so it
    comes from the grid without T. G is block-diagonal and symmetric, and so
    C~ = G D^-1 is block-diagonal with block n equal to G_n D_n^-1 =
    (D_n^-1 G_n)^T, solved against the N diagonal blocks of D.
    """
    N, M = mats.params.n_blocks, mats.params.M
    c = np.asarray(c, dtype=float)
    if c.shape != (N * M,):
        raise ValueError(f"coefficient vector must have length {N * M}")
    grid = mats.grid
    G = grid.gram_blocks(grid.evaluate(c))
    blocks = mats.solve_D(G.reshape(N * M, M)).reshape(N, M, M)
    return _block_diagonal(blocks.transpose(0, 2, 1))


def build_operational_matrices(
    params: WaveletParams, frac_order: float | None = None
) -> OperationalMatrices:
    """Construct the bundle for the given basis and integration order; raises
    SingularMatrixError where a diagonal block of D is not numerically SPD."""
    frac_order = params.mu if frac_order is None else frac_order
    grid = quadrature_grid(params)
    D_blocks = grid.gram_blocks(1.0)
    cond_D = condition_estimate(D_blocks)
    if cond_D > _COND_WARN_LIMIT:
        warnings.warn(
            f"Gram matrix condition estimate {cond_D:.2e} exceeds "
            f"{_COND_WARN_LIMIT:.0e}; results may lose accuracy",
            stacklevel=2,
        )
    try:
        np.linalg.cholesky(D_blocks)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"Gram matrix D not numerically SPD (cond {cond_D:.2e})", pivot=1.0 / cond_D
        ) from exc
    shell = OperationalMatrices(
        params=params, frac_order=frac_order, D_blocks=D_blocks,
        Pmu=np.empty(0), cond_D=cond_D, grid=grid,
    )
    Pmu = integration_matrix_fractional(params, shell, frac_order)
    return dataclasses.replace(shell, Pmu=Pmu)
