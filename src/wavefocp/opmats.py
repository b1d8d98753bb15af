"""Gram, integration, and product operational matrices for the wavelet basis.

Each wavelet is nonzero on a single block n, where it is the plain monomial
phi_m(s) of the local coordinate s = N zeta^mu - n + 1 in [0, 1). Every
integral of a product of wavelets, or of a given function against the
basis, runs on one QuadratureGrid per bundle: a rule per block in s,
graded toward s = 0 on block 1, that keeps the M local basis values of
every node. The Gram matrix D is its weighted Gram of the constant 1, and
the product matrix G D^-1 comes from the weighted Gram G of the expansion
c^T Psi; no bundle forms the triple products T, which only
``triple_product_tensor`` gives. D, G and the product matrices are
block-diagonal and are stored and returned as their (N, M, M) diagonal
blocks; ``gram_matrix`` and ``OperationalMatrices.D`` give the dense D.
The integration matrices are least-squares projections of the
(fractionally) integrated basis functions, solved against D.

P^mu does not use the grid: every block of its unprojected matrix comes
from a fixed rule in the local block coordinates, where each wavelet is a
plain monomial, with 12 points per coordinate at M <= 5 and mu >= 0.1 and
16 elsewhere; the rules are built once per order. Kernel differences are
formed from the exact step, so nothing cancels: the weakly singular
same-block kernel gets Gauss-Jacobi rules after s = s'(1 - v); the
adjacent block, singular at one corner, Duffy's split into two triangles;
blocks further apart tensor Gauss-Legendre, with the gap a sum of three
non-negative terms (node to breakpoint, between breakpoints, breakpoint to
node). The row of block 1, whose wavelets are single powers y^(mu m) of
y = zeta / bp_1, gets Gauss-Jacobi rules in y (weight y^(mu m)) where its
kernel is smooth, and the same corner split next to block 2. For the
Taylor wavelets only that row is solved against D; P^mu is tiled from it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .basis import WaveletParams, check_order, local_wavelet_values
from .quadrature import (
    QuadratureRule,
    SingularMatrixError,
    block_diagonal,
    condition_estimate,
    gamma,
    gauss_jacobi_left,
    gauss_legendre,
)

# points per local coordinate of the projection grid: this many plus M. The
# rules that fill B in P^mu = B D^-1 take theirs from ``_rule_points``
_LOCAL_RULE_POINTS = 16
# power behaviour at s = 0 (smooth functions of zeta on block 1 of the
# projection rule): a composite rule on [0, ratio^levels], ..., [ratio, 1]
_GRADED_RATIO = 0.2
_GRADED_LEVELS = 16


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays of a memoized rule, which its callers share."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


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
    return _read_only(s, block, np.concatenate([rule.weights for rule in rules]))


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
        """The weighted Gram of w, integrals of w * psi_i * psi_j from w
        sampled at the nodes (or a constant w): block-diagonal, as its
        (N, M, M) diagonal blocks."""
        terms = self.local[:, None] * (self.local * (self.weights * values))
        return np.add.reduceat(terms, self.starts[:-1], axis=2).transpose(2, 0, 1)

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
    return block_diagonal(quadrature_grid(params).gram_blocks(1.0))


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
    1, are built on first access (``P1`` is ``Pmu`` at order 1).
    """

    params: WaveletParams
    frac_order: float
    D_blocks: np.ndarray
    Pmu: np.ndarray
    cond_D: float
    grid: QuadratureGrid

    @cached_property
    def D(self) -> np.ndarray:
        return block_diagonal(self.D_blocks)

    @cached_property
    def P1(self) -> np.ndarray:
        return (self.Pmu if self.frac_order == 1.0
                else integration_matrix_first_order(self.params, self))

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
        built, and at order 1 it is this bundle's ``P1``."""
        if frac_order == self.frac_order:
            return self
        Pmu = (self.P1 if frac_order == 1.0
               else integration_matrix_fractional(self.params, self, frac_order))
        return dataclasses.replace(self, frac_order=frac_order, Pmu=Pmu)


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

    Every block comes from a fixed rule in (s, s') with ``_rule_points``
    points per coordinate (12 or 16, by M and mu), built once per order:
    ``_row_block_one`` fills the row of block 1, whose wavelets are single
    powers of zeta, in (zeta / bp_1, s'); ``_near_field`` the same-block and
    adjacent-block pairs of the other rows, whose kernel is singular; and
    ``_far_field`` the rest, where it is smooth and the gap is a sum of
    three non-negative terms. No rule uses the cancelling global-power
    expansion of the wavelets, and none reads the graded grid. For the
    Taylor wavelets (mu = 1) every block is a translate of block 1 and the
    kernel depends on zeta - zeta' only, so B is block-Toeplitz,
    B_{n,n+d} = B_{1,1+d}, and D_b is the same for b >= 2: only the row of
    block 1 is solved against D and the later rows of P copy it, except
    P_nn = B_11 D_2^-1 (D_1, from the graded rule, differs at rounding).
    """
    return _integration_matrix(params, mats, params.mu if order is None else order)


def _integration_matrix(
    params: WaveletParams, mats: OperationalMatrices, order: float
) -> np.ndarray:
    """P = B D^-1 at the given order: the body of both public builders."""
    check_order(order)
    N, M = params.n_blocks, params.M
    B = np.zeros((params.m_hat, params.m_hat))
    _row_block_one(params, order, B)
    if params.mu != 1.0:
        _near_field(params, order, B)
        _far_field(params, order, B)
        return mats.solve_D(B.T).T
    diagonal = np.linalg.solve(mats.D_blocks[-1], B[:M, :M].T).T  # D_N = D_2 if N > 1
    B[:M] = mats.solve_D(B[:M].T).T
    _tile_row_block_one(params, B)  # B now holds P
    B.reshape(N, M, N, M)[range(1, N), :, range(1, N)] = diagonal
    return B


def _rule_points(params: WaveletParams) -> int:
    """Points per local coordinate of every rule that fills B.

    Against a 40-point build of the same rules (M 1..6, 8, 9, 10, 12; basis
    mu 0.1 to 1; k 1, 2, 4, 6 with m_hat <= 256; ftw at orders mu and 1, tw
    at orders 0.1 to 1), 12 points give B within 2.0e-15 of max|B| at every
    M <= 5, and 16 points within 1.9e-15 everywhere. Elsewhere 12 are not
    enough: 4.3e-15 at M = 6, 1.6e-12 at M = 8, and at basis mu 0.05, (2, 4),
    5.5e-13 at order mu and 1.4e-10 at order 1.
    """
    return 12 if params.M <= 5 and params.mu >= 0.1 else 16


def _dzeta(params: WaveletParams, t: np.ndarray) -> np.ndarray:
    """w_n(s) = dzeta/ds at t = t_n(s)."""
    return t ** (1.0 / params.mu - 1.0) / (params.mu * params.n_blocks)


def _zeta_gap(t: np.ndarray, dt: np.ndarray, mu: float) -> np.ndarray:
    """zeta(t + dt) - zeta(t) for zeta = t^(1/mu), from the step dt itself,
    so that nothing cancels when dt is small."""
    return t ** (1.0 / mu) * np.expm1(np.log1p(dt / t) / mu)


@lru_cache(maxsize=64)
def _y_rules(mu: float, M: int, Q: int) -> tuple[np.ndarray, ...]:
    """Nodes and weights, (M, Q) each, of ``_row_block_one``'s y-rules."""
    rules = [gauss_jacobi_left(Q, 0.0, 1.0, mu * m) for m in range(M)]
    return _read_only(np.array([g.nodes for g in rules]), np.array([g.weights for g in rules]))


def _row_block_one(params: WaveletParams, order: float, B: np.ndarray) -> None:
    """Fill row block 1 of B.

    In y = zeta / bp_1 in [0, 1], psi_{1,m} = c_m y^(mu m) with
    c_m = phi_m(1), dzeta = bp_1 dy, and the kernel's argument is
    zeta_b(s') - bp_1 y = (zeta_b(s') - bp_1) + bp_1 (1 - y), two terms from
    the exact step that do not cancel:

    - B_11 = c_m c_m' Gamma(mu m + 1) / Gamma(mu m + 1 + order)
      N^(-(order+1)/mu) / (mu (m + m') + order + 1);
    - target blocks b >= 3, and b = 2 over s = y^mu <= 1/2, where the kernel
      is smooth: Gauss-Jacobi in y (weight y^(mu m), one rule per m, built
      on [0, 1] and scaled to [0, 2^(-1/mu)]) times Gauss-Legendre in s',
      summed over y before the target values enter;
    - b = 2 over s >= 1/2, where w_1(s) is smooth, in u = 1 - s as
      ``_near_field`` takes d = 1: tensor Gauss-Legendre on s' >= 1/2, and
      ``_duffy_corner`` on the square u, s' <= 1/2, whose corner (0, 0) is
      the kernel's singularity.

    The split at s = 1/2, not y = 1/2, keeps the kernel's singularity in
    s' at least 1/2 from the rules for every mu.
    """
    N, M, mu, Q = params.n_blocks, params.M, params.mu, _rule_points(params)
    m = np.arange(M)
    c = local_wavelet_values(params, 1.0)
    ratio = np.empty(M)
    for i, q in enumerate(mu * m):
        # by lgamma only where Gamma overflows (M > 170): elsewhere the
        # rounding of math.gamma is kept
        denominator = gamma(q + 1.0 + order)
        ratio[i] = (gamma(q + 1.0) / denominator if math.isfinite(denominator)
                    else math.exp(math.lgamma(q + 1.0) - math.lgamma(q + 1.0 + order)))
    B[:M, :M] = (
        (c * ratio)[:, None] * c * N ** (-(order + 1.0) / mu)
        / (mu * (m[:, None] + m) + order + 1.0)
    )
    if N == 1:
        return
    bp1 = params.breakpoints()[1]
    rule = gauss_legendre(Q, 0.0, 1.0)
    s_to = rule.nodes
    t = (s_to + np.arange(1, N)[:, None]) / N  # t_b(s') for block b = row b - 2
    gap = _zeta_gap(1.0 / N, (s_to + np.arange(N - 1)[:, None]) / N, mu)
    y_nodes, y_weights = _y_rules(mu, M, Q)
    # the y-rules of target block b at row b - 2: on [0, 2^(-1/mu)] for b = 2
    scale = np.r_[0.5 ** (1.0 / mu), np.ones(N - 2)][:, None]
    y = y_nodes[:, None] * scale
    wy = y_weights[:, None] * scale ** (mu * m[:, None, None] + 1.0)
    kernel = gap[:, None] + bp1 * (1.0 - y)[..., None]
    kernel **= order - 1.0
    row = (wy[:, :, None] @ kernel)[:, :, 0] * (_dzeta(params, t) * rule.weights)
    row = (row.reshape(-1, Q) @ local_wavelet_values(params, s_to).T).reshape(M, N - 1, M)
    row *= (c * bp1)[:, None, None]
    s, s_to, step, factor, weights = _singular_rules(order, Q)[2]
    t = s / N
    kernel = weights * (_zeta_gap(t, step / N, mu) / factor) ** (order - 1.0)
    source = local_wavelet_values(params, s) * (_dzeta(params, t) * kernel)
    target = local_wavelet_values(params, s_to) * _dzeta(params, (s_to + 1.0) / N)
    row[:, 0] += source @ target.T
    B[:M, M:] = (row / gamma(order)).reshape(M, -1)


def _tile_row_block_one(params: WaveletParams, B: np.ndarray) -> None:
    """Fill the rows of blocks n >= 2 of a block-Toeplitz B from the row of
    block 1: B_{n,n+d} = B_{1,1+d}."""
    N = params.n_blocks
    blocks = B.reshape(N, params.M, N, params.M)
    for n in range(1, N):
        blocks[n, :, n:, :] = blocks[0, :, : N - n, :]


def _tensor(a: QuadratureRule, b: QuadratureRule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points (x, y) and weights of the tensor rule of a and b, flattened."""
    x, y = np.meshgrid(a.nodes, b.nodes, indexing="ij")
    return x.ravel(), y.ravel(), np.outer(a.weights, b.weights).ravel()


def _duffy_corner(order: float, Q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Points (u, v), radius r and weights of Duffy's rule on the unit square
    for a kernel gap^(order-1) whose gap vanishes like u + v at the corner
    (0, 0) only.

    The split along u = v and the maps (u, v) = (r, r theta) and
    (r theta, r) have Jacobian r, and gap = r h(r, theta) with h smooth and
    positive, so the integrand is r^order times a smooth factor: Gauss-Jacobi
    in r (weight r^order) times Gauss-Legendre in theta. The caller raises
    gap / r to order - 1.
    """
    r, theta, w = _tensor(gauss_jacobi_left(Q, 0.0, 1.0, order), gauss_legendre(Q, 0.0, 1.0))
    return (
        np.concatenate([r, r * theta]), np.concatenate([r * theta, r]),
        np.tile(r, 2), np.tile(w, 2),
    )


@lru_cache(maxsize=64)
def _singular_rules(order: float, Q: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The Q-point rules of B that depend on the order, each listed as
    ``_near_field`` describes: its own for d = 0 and d = 1, then
    ``_row_block_one``'s for block 2 over s >= 1/2 (tensor Gauss-Legendre,
    Duffy on u, s' <= 1/2)."""
    sp, v, w = _tensor(*(gauss_jacobi_left(Q, 0.0, 1.0, e) for e in (order, order - 1.0)))
    u, s_to, r, w_corner = _duffy_corner(order, Q)
    cu, cs, cw = _tensor(gauss_legendre(Q, 0.0, 0.5), gauss_legendre(Q, 0.5, 1.0))
    cu, cs = np.concatenate([cu, u / 2.0]), np.concatenate([cs, s_to / 2.0])
    cw, cf = np.concatenate([cw, w_corner / 4.0]), np.concatenate([np.ones_like(cw), r])
    return (
        _read_only(sp * (1.0 - v), sp, sp * v, sp * v, w),
        _read_only(1.0 - u, s_to, u + s_to, r, w_corner),
        _read_only(1.0 - cu, cs, cu + cs, cf, cw),
    )


@lru_cache(maxsize=64)
def _near_field_phi(M: int, order: float, Q: int) -> tuple[np.ndarray, ...]:
    """phi_m(s) phi_m'(s') at the points of ``_near_field``'s rules for d = 0
    and 1, as (points, M M), without the factor 2^((k-1)/2) of each wavelet."""
    phi = [local_wavelet_values(WaveletParams(k=1, M=M), np.array(rule[:2]))
           for rule in _singular_rules(order, Q)[:2]]
    return _read_only(*(np.einsum("ip,jp->pij", v[:, 0], v[:, 1]).reshape(-1, M * M) for v in phi))


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
      (u, s') = (0, 0), and ``_duffy_corner`` gives the rule.

    Each rule lists points (s, s') with weights, the step N (t' - t) and the
    factor of it that the rule's weight absorbs (s' v, or r), so that
    (gap / factor)^(order-1) is smooth.
    """
    N, M, Q = params.n_blocks, params.M, _rule_points(params)
    blocks = B.reshape(N, M, N, M)
    for d, (s, s_to, step, factor, weights) in enumerate(_singular_rules(order, Q)[:2]):
        n = np.arange(2, N - d + 1)[:, None]
        t, t_to = (s + n - 1.0) / N, (s_to + n - 1.0 + d) / N
        gap = _zeta_gap(t, step / N, params.mu)
        kernel = weights * (gap / factor) ** (order - 1.0) / gamma(order)
        kernel *= 2.0 ** (params.k - 1) * _dzeta(params, t) * _dzeta(params, t_to)
        rows = n.ravel() - 1
        blocks[rows, :, rows + d, :] = (kernel @ _near_field_phi(M, order, Q)[d]).reshape(-1, M, M)


def _far_field(params: WaveletParams, order: float, B: np.ndarray) -> None:
    """Fill the blocks b >= n + 2 of source blocks n >= 2 of B.

    The blocks are at least one block apart and w_n is smooth for n >= 2,
    so a fixed tensor Gauss-Legendre rule resolves the integrand. The gap
    zeta_b(s') - zeta_n(s) is the sum of three non-negative ``_zeta_gap``
    terms, zeta_n(s) to bp_n, bp_n to bp_{b-1} and bp_{b-1} to zeta_b(s'),
    so a node pair costs one add and one power. Each source block's kernel
    over all its far targets is contracted by two matrix products.
    """
    N, M, mu, Q = params.n_blocks, params.M, params.mu, _rule_points(params)
    rule = gauss_legendre(Q, 0.0, 1.0)
    s = rule.nodes
    t = (s + np.arange(N)[:, None]) / N  # t_n(s) for block n = row n - 1
    weighted = _dzeta(params, t) * rule.weights
    phi = local_wavelet_values(params, s)
    target = phi.T / gamma(order)
    to_end = _zeta_gap(t, (1.0 - s) / N, mu)
    j = np.arange(1, N)
    from_start = _zeta_gap(j[:, None] / N, s / N, mu)  # block b at row b - 2
    between = _zeta_gap(j[:, None] / N, j / N, mu)  # bp_{n+j} - bp_n at [n - 1, j - 1]
    for n in range(2, N - 1):
        kernel = (to_end[n - 1][:, None] + between[n - 1, : N - n - 1])[..., None] + from_start[n:]
        kernel **= order - 1.0
        src = (phi * weighted[n - 1]) @ kernel.reshape(Q, -1) * weighted[n + 1 :].ravel()
        B[(n - 1) * M : n * M, (n + 1) * M :] = (src.reshape(-1, Q) @ target).reshape(M, -1)


def product_matrix(c: np.ndarray, mats: OperationalMatrices) -> np.ndarray:
    """Matrix C~ with Psi Psi^T c ~= C~ Psi, as its (N, M, M) diagonal
    blocks; linear in c.

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
    return blocks.transpose(0, 2, 1)


def build_operational_matrices(
    params: WaveletParams, frac_order: float | None = None
) -> OperationalMatrices:
    """Construct the bundle for the given basis and integration order. It
    measures cond_D, raises SingularMatrixError only where D cannot be
    inverted (cond_D not finite), and warns at no cond_D: every other verdict
    on an ill-conditioned D is the solve's, whose ``discretize`` warns."""
    frac_order = params.mu if frac_order is None else frac_order
    grid = quadrature_grid(params)
    D_blocks = grid.gram_blocks(1.0)
    cond_D = condition_estimate(D_blocks)
    if not np.isfinite(cond_D):
        raise SingularMatrixError("Gram matrix D is singular")
    shell = OperationalMatrices(
        params=params, frac_order=frac_order, D_blocks=D_blocks,
        Pmu=np.empty(0), cond_D=cond_D, grid=grid,
    )
    Pmu = integration_matrix_fractional(params, shell, frac_order)
    return dataclasses.replace(shell, Pmu=Pmu)
