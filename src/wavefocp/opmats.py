"""Gram, integration, and product operational matrices for the wavelet basis.

Gram and triple-product entries are exact monomial integrals; the
integration matrices are least-squares projections of the (fractionally)
integrated basis functions, solved against the Gram matrix. Every other
integral against the basis runs block by block on one QuadratureGrid per
bundle: each wavelet is nonzero on a single block, so the grid keeps only
the M local basis values of every node.

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
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.special import betainc

from .basis import (
    WaveletParams,
    local_basis_values,
    local_wavelet_values,
    monomial_coefficients,
    support_interval,
)
from .quadrature import (
    QuadratureRule,
    condition_estimate,
    gamma,
    gauss_jacobi_left,
    gauss_legendre,
    graded_breakpoints,
    solve_spd,
    spd_factor,
)

_COND_WARN_LIMIT = 1e12
# points per local coordinate of every rule that fills B in P^mu = B D^-1
_LOCAL_RULE_POINTS = 16
# the block-2 targets of block 1 see (zeta - bp_1)^order at s' = 0: a
# composite rule on [0, ratio^levels], ..., [ratio, 1]
_GRADED_RATIO = 0.2
_GRADED_LEVELS = 16


def _power_integral(p: float, lo: float, hi: float) -> float:
    """Integral of zeta**p over [lo, hi] for p > -1."""
    return (hi ** (p + 1.0) - lo ** (p + 1.0)) / (p + 1.0)


def gram_matrix(params: WaveletParams) -> np.ndarray:
    """D(mu) = integral of Psi Psi^T over [0, 1], by exact monomial integration."""
    D = np.zeros((params.m_hat, params.m_hat))
    for n in range(1, params.n_blocks + 1):
        lo, hi = support_interval(params, n)
        coefs = [monomial_coefficients(params, n, m) for m in range(params.M)]
        for m1 in range(params.M):
            for m2 in range(m1, params.M):
                total = 0.0
                for s1, c1 in enumerate(coefs[m1]):
                    for s2, c2 in enumerate(coefs[m2]):
                        total += c1 * c2 * _power_integral(
                            params.mu * (s1 + s2), lo, hi
                        )
                i, j = params.flat_index(n, m1), params.flat_index(n, m2)
                D[i, j] = D[j, i] = total
    return D


def triple_product_tensor(params: WaveletParams) -> np.ndarray:
    """T[i, j, l] = integral of psi_i psi_j psi_l; zero across distinct blocks."""
    T = np.zeros((params.m_hat, params.m_hat, params.m_hat))
    for n in range(1, params.n_blocks + 1):
        lo, hi = support_interval(params, n)
        coefs = [monomial_coefficients(params, n, m) for m in range(params.M)]
        base = (n - 1) * params.M
        for m1 in range(params.M):
            for m2 in range(m1, params.M):
                for m3 in range(m2, params.M):
                    total = 0.0
                    for s1, c1 in enumerate(coefs[m1]):
                        for s2, c2 in enumerate(coefs[m2]):
                            for s3, c3 in enumerate(coefs[m3]):
                                total += c1 * c2 * c3 * _power_integral(
                                    params.mu * (s1 + s2 + s3), lo, hi
                                )
                    for a, b, c in {
                        (m1, m2, m3), (m1, m3, m2), (m2, m1, m3),
                        (m2, m3, m1), (m3, m1, m2), (m3, m2, m1),
                    }:
                        T[base + a, base + b, base + c] = total
    return T


def quadrature_nodes(
    params: WaveletParams,
    extra_breakpoints: Sequence[float] = (),
    points_per_segment: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """Graded composite Gauss-Legendre nodes/weights over [0, 1].

    Segments split at every wavelet subinterval boundary (plus any extra
    breakpoints), geometrically refined toward the segment endpoints.
    """
    base = np.unique(np.concatenate([params.breakpoints(), np.asarray(extra_breakpoints, dtype=float)]))
    if base[0] < 0.0 or base[-1] > 1.0:
        raise ValueError("breakpoints must lie in [0, 1]")
    pieces = graded_breakpoints(base)
    nodes, weights = [], []
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        rule = gauss_legendre(points_per_segment, lo, hi)
        nodes.append(rule.nodes)
        weights.append(rule.weights)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class QuadratureGrid:
    """The graded ``quadrature_nodes`` rule, grouped by wavelet block.

    Nodes are sorted; block b (0-based) owns nodes ``starts[b]:starts[b+1]``
    under the ``block_of_point``/``eval_basis_many`` assignment, and
    ``local[m, j]`` is psi_{b+1, m} at node j of block b. Integrals against
    the basis are per-block sums, so no m_hat x n_nodes array is formed.
    """

    nodes: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    local: np.ndarray

    def block_slices(self) -> list[slice]:
        return [slice(a, b) for a, b in zip(self.starts[:-1], self.starts[1:])]

    def inner_products(self, values: np.ndarray) -> np.ndarray:
        """Integrals of f * psi_j (n-major) from f sampled at the nodes."""
        fw = self.weights * values
        return np.concatenate(
            [self.local[:, sl] @ fw[sl] for sl in self.block_slices()]
        )

    def weighted_gram(self, values: np.ndarray) -> np.ndarray:
        """Block-diagonal matrix of integrals of w * psi_i * psi_j from w
        sampled at the nodes."""
        M = self.local.shape[0]
        lw = self.local * (self.weights * values)
        out = np.zeros((M * (self.starts.size - 1),) * 2)
        for b, sl in enumerate(self.block_slices()):
            blk = slice(b * M, (b + 1) * M)
            out[blk, blk] = lw[:, sl] @ self.local[:, sl].T
        return out

    def evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of the expansion with the given coefficients."""
        M = self.local.shape[0]
        return np.concatenate(
            [
                coeffs[b * M : (b + 1) * M] @ self.local[:, sl]
                for b, sl in enumerate(self.block_slices())
            ]
        )


def quadrature_grid(
    params: WaveletParams, extra_breakpoints: Sequence[float] = ()
) -> QuadratureGrid:
    """Build the block-grouped grid of ``quadrature_nodes(params, extra_breakpoints)``.

    Block starts come from each node's block assignment, not from node
    counts: extra breakpoints, merged graded breakpoints and round-off at
    block edges all change how many nodes a block owns.
    """
    nodes, weights = quadrature_nodes(params, extra_breakpoints)
    blocks, local = local_basis_values(params, nodes)
    starts = np.searchsorted(blocks, np.arange(params.n_blocks + 1))
    return QuadratureGrid(nodes=nodes, weights=weights, starts=starts, local=local)


def inner_products(
    f: Callable[[np.ndarray], np.ndarray],
    params: WaveletParams,
    extra_breakpoints: Sequence[float] = (),
    grid: QuadratureGrid | None = None,
) -> np.ndarray:
    """Vector of integrals of f * psi_j over [0, 1].

    ``grid`` (normally ``mats.grid``) must be the grid of params; without
    it one is built with the extra breakpoints.
    """
    if grid is None:
        grid = quadrature_grid(params, extra_breakpoints)
    elif len(extra_breakpoints):
        raise ValueError("pass either a grid or extra breakpoints, not both")
    fv = np.asarray(f(grid.nodes), dtype=float)
    if fv.ndim == 0:
        fv = np.full(grid.nodes.shape, float(fv))
    return grid.inner_products(fv)


def rl_integral_of_wavelet(
    params: WaveletParams, i: int, order: float, zeta: np.ndarray
) -> np.ndarray:
    """Riemann-Liouville integral of order `order` of basis function i.

    Closed form via the regularized incomplete beta function:
    the wavelet is a sum of powers zeta**(mu*s) on [lo, hi), and
    int_lo^up (z - t)^(order-1) t^q dt
        = z^(q+order) B(q+1, order) [I_{up/z} - I_{lo/z}](q+1, order).
    """
    if not 0.0 < order <= 1.0:
        raise ValueError(f"need 0 < order <= 1, got {order}")
    zeta = np.asarray(zeta, dtype=float)
    n = params.block_of_index(i)
    m = params.degree_of_index(i)
    lo, hi = support_interval(params, n)
    coefs = monomial_coefficients(params, n, m)
    out = np.zeros_like(zeta)
    active = zeta > lo
    z = zeta[active]
    up = np.minimum(z, hi)
    acc = np.zeros_like(z)
    for s, c in enumerate(coefs):
        if c == 0.0:  # block 1 wavelets are single powers
            continue
        q = params.mu * s
        beta_qo = gamma(q + 1.0) * gamma(order) / gamma(q + 1.0 + order)
        frac = betainc(q + 1.0, order, up / z)
        if lo > 0.0:
            frac = frac - betainc(q + 1.0, order, lo / z)
        acc += c * z ** (q + order) * beta_qo * frac
    out[active] = acc / gamma(order)
    return out


@dataclass(frozen=True)
class OperationalMatrices:
    """Immutable bundle of the matrices a solve needs.

    ``grid`` is the quadrature every basis integral of a solve runs on and
    ``D_factor`` the Cholesky factor of D (None if D is not numerically
    SPD). ``P1`` is built on first access; a solve never reads it.
    """

    params: WaveletParams
    frac_order: float
    D: np.ndarray
    Pmu: np.ndarray
    triple: np.ndarray
    cond_D: float
    grid: QuadratureGrid
    D_factor: tuple[np.ndarray, bool] | None

    @cached_property
    def P1(self) -> np.ndarray:
        return integration_matrix_first_order(self.params, self)

    def solve_D(self, rhs: np.ndarray) -> np.ndarray:
        """Solve D x = rhs (D is SPD)."""
        return solve_spd(self.D, rhs, self.D_factor)


def project(
    f: Callable[[np.ndarray], np.ndarray],
    params: WaveletParams,
    mats: OperationalMatrices,
    extra_breakpoints: Sequence[float] = (),
) -> np.ndarray:
    """Least-squares coefficients of f in the wavelet basis."""
    grid = None if len(extra_breakpoints) else mats.grid
    return mats.solve_D(inner_products(f, params, extra_breakpoints, grid))


def _integrate_power_against_wavelet(
    params: WaveletParams, j: int, p: float, alpha: float, beta: float
) -> float:
    """Exact integral of zeta**p * psi_j(zeta) over [alpha, beta] (clipped to support)."""
    n = params.block_of_index(j)
    m = params.degree_of_index(j)
    lo, hi = support_interval(params, n)
    a, b = max(alpha, lo), min(beta, hi)
    if a >= b:
        return 0.0
    coefs = monomial_coefficients(params, n, m)
    return sum(
        c * _power_integral(p + params.mu * s, a, b) for s, c in enumerate(coefs)
    )


def integration_matrix_first_order(
    params: WaveletParams, mats: OperationalMatrices
) -> np.ndarray:
    """P1: row i projects the running integral of psi_i back onto the basis.

    Antiderivatives are exact (piecewise powers of zeta), as are the
    projection inner products, so the only approximation is the
    least-squares truncation itself.
    """
    m_hat = params.m_hat
    B = np.zeros((m_hat, m_hat))
    for i in range(m_hat):
        n_i = params.block_of_index(i)
        m_i = params.degree_of_index(i)
        lo_i, hi_i = support_interval(params, n_i)
        coefs = monomial_coefficients(params, n_i, m_i)
        # F(z) = sum_s c_s z**(mu*s+1)/(mu*s+1); running integral is
        # 0 before lo_i, F(z) - F(lo_i) inside, F(hi_i) - F(lo_i) after.
        def F(z: float) -> float:
            return sum(
                c * z ** (params.mu * s + 1.0) / (params.mu * s + 1.0)
                for s, c in enumerate(coefs)
            )

        F_lo, F_hi = F(lo_i), F(hi_i)
        for j in range(m_hat):
            n_j = params.block_of_index(j)
            if n_j < n_i:
                continue
            val = 0.0
            if n_j == n_i:
                for s, c in enumerate(coefs):
                    p = params.mu * s + 1.0
                    val += (c / p) * _integrate_power_against_wavelet(
                        params, j, p, lo_i, hi_i
                    )
                val -= F_lo * _integrate_power_against_wavelet(
                    params, j, 0.0, lo_i, hi_i
                )
            else:
                val = (F_hi - F_lo) * _integrate_power_against_wavelet(
                    params, j, 0.0, 0.0, 1.0
                )
            B[i, j] = val
    return mats.solve_D(B.T).T


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
    wavelets, and none reads the graded grid.
    """
    order = params.mu if order is None else order
    if not 0.0 < order <= 1.0:
        raise ValueError(f"need 0 < order <= 1, got {order}")
    B = np.zeros((params.m_hat, params.m_hat))
    _row_block_one(params, order, B)
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
    - for b >= 2, ``rl_integral_of_wavelet`` at the target nodes only,
      under Gauss-Legendre in s' for b >= 3 and, for b = 2, where the
      integral behaves like (zeta - bp_1)^order near s' = 0, a composite
      rule graded geometrically toward s' = 0.
    """
    N, M, mu = params.n_blocks, params.M, params.mu
    m = np.arange(M)
    c = local_wavelet_values(params, 1.0)
    ratio = np.array([gamma(mu * j + 1.0) / gamma(mu * j + 1.0 + order) for j in m])
    B[:M, :M] = (
        (c * ratio)[:, None] * c * N ** (-(order + 1.0) / mu)
        / (mu * (m[:, None] + m) + order + 1.0)
    )
    if N == 1:
        return
    Q = _LOCAL_RULE_POINTS
    edges = np.concatenate([[0.0], _GRADED_RATIO ** np.arange(_GRADED_LEVELS, -1, -1)])
    graded = [gauss_legendre(Q, a, b) for a, b in zip(edges[:-1], edges[1:])]
    rules = graded + [gauss_legendre(Q, 0.0, 1.0)] * (N - 2)
    s = np.concatenate([rule.nodes for rule in rules])
    block = np.repeat(np.arange(1, N), [len(graded) * Q] + [Q] * (N - 2))
    t = (s + block) / N  # in target block b = block + 1
    rl = np.vstack(
        [rl_integral_of_wavelet(params, i, order, t ** (1.0 / mu)) for i in range(M)]
    )
    weights = np.concatenate([rule.weights for rule in rules]) * _dzeta(params, t)
    terms = rl[:, :, None] * (local_wavelet_values(params, s) * weights).T
    starts = np.searchsorted(block, np.arange(1, N))
    B[:M, M:] = np.add.reduceat(terms, starts, axis=1).reshape(M, -1)


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
    """Matrix C~ with Psi Psi^T c ~= C~ Psi; linear in c."""
    c = np.asarray(c, dtype=float)
    if c.shape != (mats.params.m_hat,):
        raise ValueError(f"coefficient vector must have length {mats.params.m_hat}")
    G = np.einsum("ijl,j->il", mats.triple, c)
    return mats.solve_D(G.T).T


def build_operational_matrices(
    params: WaveletParams, frac_order: float | None = None
) -> OperationalMatrices:
    """Construct the bundle for the given basis and integration order."""
    frac_order = params.mu if frac_order is None else frac_order
    D = gram_matrix(params)
    cond_D = condition_estimate(D)
    if cond_D > _COND_WARN_LIMIT:
        warnings.warn(
            f"Gram matrix condition estimate {cond_D:.2e} exceeds "
            f"{_COND_WARN_LIMIT:.0e}; results may lose accuracy",
            stacklevel=2,
        )
    shell = OperationalMatrices(
        params=params, frac_order=frac_order, D=D, Pmu=np.empty(0),
        triple=triple_product_tensor(params), cond_D=cond_D,
        grid=quadrature_grid(params), D_factor=spd_factor(D),
    )
    Pmu = integration_matrix_fractional(params, shell, frac_order)
    return dataclasses.replace(shell, Pmu=Pmu)


def basis_moment_vector(params: WaveletParams) -> np.ndarray:
    """Exact integrals of each psi_j over [0, 1]."""
    return np.array(
        [
            _integrate_power_against_wavelet(params, j, 0.0, 0.0, 1.0)
            for j in range(params.m_hat)
        ]
    )
