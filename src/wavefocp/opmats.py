"""Gram, integration, and product operational matrices for the wavelet basis.

Gram and triple-product entries are exact monomial integrals; the
integration matrices are least-squares projections of the (fractionally)
integrated basis functions, solved against the Gram matrix. Every other
integral against the basis runs block by block on one QuadratureGrid per
bundle: each wavelet is nonzero on a single block, so the grid keeps only
the M local basis values of every node.

P^mu uses the grid only where its kernel is singular or nearly so: the
incomplete-beta closed form fills the target blocks n and n+1 of source
block n (and every target of block 1, whose wavelets are single powers).
Blocks at least one block apart have a smooth kernel in the local block
coordinates and get a fixed tensor Gauss-Legendre rule instead.
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
    monomial_coefficients,
    support_interval,
)
from .quadrature import (
    condition_estimate,
    gamma,
    gauss_legendre,
    graded_breakpoints,
    solve_spd,
    spd_factor,
)

_COND_WARN_LIMIT = 1e12
# points per local coordinate of the far-field tensor rule of P^mu
_FAR_RULE_POINTS = 24


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
    P = B D^-1. Two rules fill B:

    - Near blocks (b = n, n + 1), and every target of source block 1: the
      closed form of ``rl_integral_of_wavelet`` on ``mats.grid``. With
      q_s = mu*s, every wavelet of block n on [lo, hi) shares the powers
      z**(q_s + order) and the incomplete-beta tables I_{lo/z}, I_{hi/z}
      (q_s + 1, order); block n's right table is block n+1's left one, and
      inside the block up/z = 1. A table covers the nodes of the two blocks
      above its breakpoint (all nodes for the breakpoint of block 1, whose
      wavelets are single powers, so their closed form does not cancel).
    - Far blocks (b >= n + 2, n >= 2): ``_far_field``, a tensor Gauss rule
      in the local block coordinates, where the kernel is smooth. It needs
      no betainc and avoids the cancelling global-power expansion.
    """
    order = params.mu if order is None else order
    if not 0.0 < order <= 1.0:
        raise ValueError(f"need 0 < order <= 1, got {order}")
    grid = mats.grid
    z, M, N = grid.nodes, params.M, params.n_blocks
    bp = params.breakpoints()
    beyond = np.searchsorted(z, bp, side="right")  # nodes z > bp[b] start here

    def near_end(n: int) -> int:
        """End of the closed-form nodes of source block n: those of blocks
        n and n + 1, and every node for block 1."""
        return z.size if n == 1 else grid.starts[min(n + 1, N)]

    qs = [params.mu * s for s in range(M)]
    a = np.array(qs)[:, None] + 1.0
    zpow = [z ** (q + order) for q in qs]
    beta = [gamma(q + 1.0) * gamma(order) / gamma(q + 1.0 + order) for q in qs]

    B = np.zeros((params.m_hat, params.m_hat))
    left = np.zeros((M, z.size - beyond[0]))  # I_{0/z} = 0
    for n in range(1, N + 1):
        i_lo, i_hi, end = beyond[n - 1], beyond[n], near_end(n)
        # the table at bp[n] is also the left table of block n + 1
        right_end = max(end, near_end(min(n + 1, N)))
        right = betainc(a, order, bp[n] / z[i_hi:right_end])
        inside = i_hi - i_lo
        frac = np.hstack(
            [1.0 - left[:, :inside], right[:, : end - i_hi] - left[:, inside : end - i_lo]]
        )
        coefs = np.zeros((M, M))
        for m in range(M):
            coefs[m, : m + 1] = monomial_coefficients(params, n, m)
        acc = np.zeros((M, end - i_lo))
        for s in range(M):
            acc += coefs[:, s, None] * zpow[s][i_lo:end] * beta[s] * frac[s]
        weighted = acc / gamma(order) * grid.weights[i_lo:end]
        rows = slice((n - 1) * M, n * M)
        for b in range(n - 1, N if n == 1 else min(n + 1, N)):
            # round-off can assign a node at or below lo to block n; it adds 0
            first, last = max(grid.starts[b], i_lo), grid.starts[b + 1]
            B[rows, b * M : (b + 1) * M] = (
                weighted[:, first - i_lo : last - i_lo] @ grid.local[:, first:last].T
            )
        left = right
    _far_field(params, order, B)
    return mats.solve_D(B.T).T


def _far_field(params: WaveletParams, order: float, B: np.ndarray) -> None:
    """Fill the blocks b >= n + 2 of source blocks n >= 2 of B.

    In the local coordinate s in [0, 1) of block n, psi_{n,m} is
    phi_m(s) = 2^((k-1)/2) sqrt(2m+1) s^m at zeta_n(s) = ((s+n-1)/N)^(1/mu),
    with dzeta = w_n(s) ds, so

        B[(n,m),(b,m')] = Gamma(order)^-1 int int (zeta_b(s') - zeta_n(s))^(order-1)
                          phi_m(s) phi_m'(s') w_n(s) w_b(s') ds ds'.

    The blocks are at least one block apart and w_n is smooth for n >= 2,
    so a fixed tensor Gauss-Legendre rule resolves the integrand: one
    kernel matrix per source block, contracted with the weighted local
    values of the source and of every far target block.
    """
    N, M, mu = params.n_blocks, params.M, params.mu
    rule = gauss_legendre(_FAR_RULE_POINTS, 0.0, 1.0)
    s, Q = rule.nodes, _FAR_RULE_POINTS
    t = (s + np.arange(N)[:, None]) / N  # (s + n - 1) / N for block n = row n - 1
    zeta = t ** (1.0 / mu)
    w = t ** (1.0 / mu - 1.0) / (mu * N)
    phi = 2 ** ((params.k - 1) / 2) * np.sqrt(2 * np.arange(M) + 1.0)[:, None] * (
        s ** np.arange(M)[:, None]
    )
    vals = phi * (w * rule.weights)[:, None, :]  # (N, M, Q)
    for n in range(2, N - 1):
        targets = zeta[n + 1 :]  # blocks n + 2 .. N
        kernel = (targets[None, :, :] - zeta[n - 1][:, None, None]) ** (order - 1.0)
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
