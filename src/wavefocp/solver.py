"""Wavelet discretization and structured KKT solve for the linear-quadratic FOCP.

Minimize  (1/2) * integral of p*(x - rx)^2 + q*(u - ru)^2  over [0, 1]
subject to the Caputo dynamics  D^mu x = a*x + b*u,  x(0) = x0.

The fractional derivative of the state and the control are expanded in the
wavelet basis; the fractional integration matrix recovers the state, the
triple-product tensor turns the dynamics into linear algebraic constraints,
and the Lagrange-multiplier (KKT) conditions yield the coefficients.

The 3 m_hat KKT system is not formed. The constraint
G_c C_hat = G_B U_hat + G_A d1 has G_c = I - G_A Pmu^T block
lower-triangular (G_A is block-diagonal and Pmu block upper-triangular,
because the RL integral is causal); ``_g_c`` forms it by block rows for
both routes. ``_structured_solve`` scales G_c by the inverses of its
diagonal blocks and eliminates C_hat by one unit block-triangular solve.
What remains is the SPD reduced Hessian in U_hat, of size m_hat; the
multipliers come from a transposed G_c solve (the null-space method,
Nocedal & Wright, Numerical Optimization, 2nd ed., section 16.2).
``assemble_kkt`` builds the full system, whose pivoted LU is the one other
route: where cond(D) reaches ``_STRUCTURED_COND_LIMIT`` and wherever the
reduced route raises SingularMatrixError. Either route returns
(C_hat, U_hat, eta_star) and the state coefficients C2; one residual pass,
``_kkt_residual_rows``, then forms the three KKT block rows from G_A, G_B,
Pmu, Wp and Wq without G_c.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .basis import WaveletParams, eval_basis_many, local_basis_values
from .fracops import rl_integral
from .opmats import (
    OperationalMatrices,
    build_operational_matrices,
    diagonal_blocks,
    product_matrix,
    project,
)
from .quadrature import (
    LowerTriangular,
    SingularMatrixError,
    invert_blocks,
    solve_linear,
    solve_spd,
)

_VALIDATION_GRID = np.linspace(0.0, 1.0, 100)
# Above this cond(D), Pmu and L = Pmu^T G_c^-1 G_B are so large (|Pmu| 7.4e3
# at cond(D) 1.8e14, 1.5e5 at 8.9e15) that forming L^T Wp L cancels the
# digits of the reduced Hessian's small eigendirections: at M = 11 to 14 the
# reduced solve returned J off by up to 11 % where the dense KKT LU solves
# the same system to 1e-6 or refuses it. Below it (M <= 10 tested) both give
# J and trajectories that agree to the rounding noise of cond(D).
_STRUCTURED_COND_LIMIT = 1e14

Fn = Callable[[np.ndarray], np.ndarray]


class ConfigurationError(ValueError):
    """Problem and basis are inconsistent (e.g. mismatched orders)."""


def _as_grid_fn(f: Fn) -> Callable[[np.ndarray], np.ndarray]:
    def g(z: np.ndarray) -> np.ndarray:
        out = np.asarray(f(z), dtype=float)
        if out.ndim == 0:
            out = np.full(np.shape(z), float(out))
        return out

    return g


@dataclass(frozen=True)
class FocpProblem:
    """Problem data on [0, 1]; track_x/track_u are optional tracking targets."""

    p_fn: Fn
    q_fn: Fn
    a_fn: Fn
    b_fn: Fn
    x0: float
    mu: float
    track_x: Fn | None = None
    track_u: Fn | None = None

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"need 0 < mu <= 1, got {self.mu}")
        q_vals = _as_grid_fn(self.q_fn)(_VALIDATION_GRID)
        if np.any(q_vals <= 0.0):
            raise ValueError("q must be strictly positive on [0, 1]")
        p_vals = _as_grid_fn(self.p_fn)(_VALIDATION_GRID)
        if np.any(p_vals < 0.0):
            raise ValueError("p must be nonnegative on [0, 1]")
        b_vals = _as_grid_fn(self.b_fn)(_VALIDATION_GRID)
        if np.any(b_vals == 0.0):
            raise ValueError("b must be nonzero on [0, 1]")


@dataclass(frozen=True)
class DiscretizedFocp:
    """Projected problem data plus the weighted Gram matrices."""

    problem: FocpProblem
    params: WaveletParams
    mats: OperationalMatrices
    A_hat: np.ndarray
    B_hat: np.ndarray
    d1: np.ndarray
    Wp: np.ndarray
    Wq: np.ndarray
    wp_track: np.ndarray
    wq_track: np.ndarray
    track_p_const: float
    track_q_const: float

    @cached_property
    def constraint_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """Linear maps G_A, G_B with the dynamics constraint
        C_hat - G_A (Pmu^T C_hat + d1) - G_B U_hat = 0, built once and shared
        by the solve, the KKT assembly and the residual rows."""
        G_A = product_matrix(self.A_hat, self.mats).T
        G_B = product_matrix(self.B_hat, self.mats).T
        return G_A, G_B

    @cached_property
    def kkt_rhs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right-hand side of the KKT system, one block per row block."""
        G_A, _ = self.constraint_operators
        return self.mats.Pmu @ (self.wp_track - self.Wp @ self.d1), self.wq_track, G_A @ self.d1


@dataclass(frozen=True)
class FocpSolution:
    """Solved coefficients, multipliers, cost, and residual diagnostics."""

    disc: DiscretizedFocp
    C_hat: np.ndarray
    U_hat: np.ndarray
    eta_star: np.ndarray
    C2: np.ndarray
    J_value: float
    J_requad: float
    residuals: dict = field(default_factory=dict)


def discretize(
    problem: FocpProblem,
    params: WaveletParams,
    mats: OperationalMatrices | None = None,
) -> DiscretizedFocp:
    """Project all coefficient functions and assemble the weighted Grams."""
    if params.mu not in (problem.mu, 1.0):
        raise ConfigurationError(
            f"basis order {params.mu} matches neither the dynamics order "
            f"{problem.mu} nor the Taylor-wavelet order 1"
        )
    if mats is None:
        mats = build_operational_matrices(params, frac_order=problem.mu)
    elif mats.params != params:
        raise ConfigurationError(
            f"operational matrices built for {mats.params}, basis is {params}"
        )
    elif mats.frac_order != problem.mu:
        raise ConfigurationError(
            f"operational matrices built for order {mats.frac_order}, "
            f"problem has order {problem.mu}"
        )
    A_hat = project(problem.a_fn, params, mats)
    B_hat = project(problem.b_fn, params, mats)
    d1 = project(lambda z: np.full(np.shape(z), problem.x0), params, mats)

    grid = mats.grid

    def tracking(w: np.ndarray, target: Fn | None) -> tuple[np.ndarray, float]:
        """Integrals of w r psi_j and of w r^2 for the target r, or zeros."""
        if target is None:
            return np.zeros(params.m_hat), 0.0
        r = _as_grid_fn(target)(grid.nodes)
        wr = w * r
        return grid.inner_products(wr), float(np.dot(grid.weights, wr * r))

    # each function is sampled once on the grid
    p = _as_grid_fn(problem.p_fn)(grid.nodes)
    q = _as_grid_fn(problem.q_fn)(grid.nodes)
    wp_track, track_p_const = tracking(p, problem.track_x)
    wq_track, track_q_const = tracking(q, problem.track_u)

    return DiscretizedFocp(
        problem=problem, params=params, mats=mats,
        A_hat=A_hat, B_hat=B_hat, d1=d1,
        Wp=grid.weighted_gram(p), Wq=grid.weighted_gram(q),
        wp_track=wp_track, wq_track=wq_track,
        track_p_const=track_p_const, track_q_const=track_q_const,
    )


def state_from_coeffs(
    C_hat: np.ndarray, d1: np.ndarray, mats: OperationalMatrices
) -> np.ndarray:
    """Coefficients of x(zeta) from the Caputo-derivative coefficients."""
    return mats.Pmu.T @ np.asarray(C_hat, dtype=float) + np.asarray(d1, dtype=float)


def _g_c(disc: DiscretizedFocp) -> np.ndarray:
    """G_c = I - G_A Pmu^T, the Jacobian of the dynamics constraint in C_hat.
    G_A is block-diagonal, so row block n is (G_A)_n times the rows of block
    n of Pmu^T; Pmu is block upper-triangular (the RL integral is causal), so
    G_c is block lower-triangular."""
    N, M = disc.params.n_blocks, disc.params.M
    m = N * M
    G_A, _ = disc.constraint_operators
    product = diagonal_blocks(G_A, M) @ disc.mats.Pmu.T.reshape(N, M, m)
    return np.eye(m) - product.reshape(m, m)


def assemble_kkt(disc: DiscretizedFocp) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric KKT system in (C_hat, U_hat, eta_star), size 3 m_hat: the
    dense form of what ``solve_discretized`` solves, for the tests and for
    its dense route (``_dense_solve``)."""
    m = disc.params.m_hat
    Pm = disc.mats.Pmu
    _, G_B = disc.constraint_operators
    G_c = _g_c(disc)

    K = np.zeros((3 * m, 3 * m))
    K[:m, :m] = Pm @ disc.Wp @ Pm.T
    K[m : 2 * m, m : 2 * m] = disc.Wq
    K[:m, 2 * m :] = G_c.T
    K[2 * m :, :m] = G_c
    K[m : 2 * m, 2 * m :] = -G_B.T
    K[2 * m :, m : 2 * m] = -G_B
    return K, np.concatenate(disc.kkt_rhs)


def _apply_blocks(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with the (N, M, M) blocks times x, whose
    rows are n-major."""
    N, M, _ = blocks.shape
    return (blocks @ x.reshape(N, M, -1)).reshape(x.shape)


def _structured_solve(
    disc: DiscretizedFocp,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(C_hat, U_hat, eta_star) of the KKT system and the state coefficients
    C2 = Pmu^T C_hat + d1.

    G_c is stored as G_c = Dg T: Dg holds its N diagonal blocks, which are
    close to the identity, and T = Dg^-1 G_c is unit block lower-triangular,
    so G_c and G_c^T solve by one blocked triangular solve and N small block
    products. C_hat = G_c^-1 (G_B U_hat + G_A d1) makes the state
    L U_hat + x_aff with L = Pmu^T G_c^-1 G_B, so U_hat solves the reduced
    Hessian system (L^T Wp L + Wq) U_hat = L^T (wp_track - Wp x_aff) +
    wq_track, and the first KKT row gives G_c^T eta_star = Pmu (wp_track -
    Wp C2).
    """
    N, M, m = disc.params.n_blocks, disc.params.M, disc.params.m_hat
    Pm = disc.mats.Pmu
    _, G_B = disc.constraint_operators
    G_c = _g_c(disc)
    Dg_inv = invert_blocks(diagonal_blocks(G_c, M))
    T = _apply_blocks(Dg_inv, G_c)
    diag = np.arange(N)
    T.reshape(N, M, N, M)[diag, :, diag, :] = np.eye(M)
    T = LowerTriangular.unit_block(T, M)
    Z = T.solve(_apply_blocks(Dg_inv, np.column_stack([G_B, disc.kkt_rhs[2]])))
    state = Pm.T @ Z
    L, x_aff = state[:, :m], state[:, m] + disc.d1
    H = L.T @ _apply_blocks(diagonal_blocks(disc.Wp, M), L) + disc.Wq
    g = L.T @ (disc.wp_track - disc.Wp @ x_aff) + disc.wq_track
    U_hat = solve_spd(0.5 * (H + H.T), g)
    C_hat = Z[:, :m] @ U_hat + Z[:, m]
    C2 = state_from_coeffs(C_hat, disc.d1, disc.mats)
    eta = T.solve_transposed(Pm @ (disc.wp_track - disc.Wp @ C2))
    return C_hat, U_hat, _apply_blocks(Dg_inv.transpose(0, 2, 1), eta), C2


def _dense_solve(
    disc: DiscretizedFocp,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What ``_structured_solve`` returns, from the pivoted LU of the
    assembled KKT matrix."""
    m = disc.params.m_hat
    sol = solve_linear(*assemble_kkt(disc))
    C_hat = sol[:m]
    return C_hat, sol[m : 2 * m], sol[2 * m :], state_from_coeffs(C_hat, disc.d1, disc.mats)


def _kkt_residual_rows(
    disc: DiscretizedFocp, C_hat: np.ndarray, U_hat: np.ndarray, eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three block rows of K sol - rhs, as matrix-vector products with
    G_c C = C - G_A (Pmu^T C) and G_c^T eta = eta - Pmu (G_A^T eta); the
    third row is the dynamics constraint."""
    Pm = disc.mats.Pmu
    G_A, G_B = disc.constraint_operators
    rhs_c, rhs_u, rhs_eta = disc.kkt_rhs
    return (
        Pm @ (disc.Wp @ (Pm.T @ C_hat)) + eta - Pm @ (G_A.T @ eta) - rhs_c,
        disc.Wq @ U_hat - G_B.T @ eta - rhs_u,
        C_hat - G_A @ (Pm.T @ C_hat) - G_B @ U_hat - rhs_eta,
    )


def _quadratic_cost(disc: DiscretizedFocp, C2: np.ndarray, U_hat: np.ndarray) -> float:
    J = 0.5 * float(C2 @ disc.Wp @ C2) - float(C2 @ disc.wp_track)
    J += 0.5 * disc.track_p_const
    J += 0.5 * float(U_hat @ disc.Wq @ U_hat) - float(U_hat @ disc.wq_track)
    J += 0.5 * disc.track_q_const
    return J


def _requadrature_cost(disc: DiscretizedFocp, C2: np.ndarray, U_hat: np.ndarray) -> float:
    grid = disc.mats.grid
    nodes, weights = grid.nodes, grid.weights
    x = grid.evaluate(C2)
    u = grid.evaluate(U_hat)
    prob = disc.problem
    rx = _as_grid_fn(prob.track_x)(nodes) if prob.track_x is not None else 0.0
    ru = _as_grid_fn(prob.track_u)(nodes) if prob.track_u is not None else 0.0
    integrand = 0.5 * (
        _as_grid_fn(prob.p_fn)(nodes) * (x - rx) ** 2
        + _as_grid_fn(prob.q_fn)(nodes) * (u - ru) ** 2
    )
    return float(np.dot(weights, integrand))


def _dynamics_defect(disc: DiscretizedFocp, C_hat: np.ndarray, U_hat: np.ndarray) -> float:
    """Max dynamics residual on a 50-point grid.

    The state comes from the independent RL-integral oracle applied to
    D^mu x = C_hat^T Psi, so that identity holds exactly and the defect
    isolates the product-projection error. One batched ``rl_integral``
    call covers the grid; the expansions read each point's M nonzero
    wavelets from ``local_basis_values``.
    """
    prob = disc.problem
    params = disc.params

    def expand(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
        blocks, vals = local_basis_values(params, t)
        return np.einsum("mj,jm->j", vals, coeffs.reshape(-1, params.M)[blocks])

    def dx(t: np.ndarray) -> np.ndarray:
        return expand(C_hat, t)

    grid = np.linspace(0.02, 1.0, 50)
    x = prob.x0 + rl_integral(dx, prob.mu, grid, breakpoints=params.breakpoints())
    u = expand(U_hat, grid)
    a = _as_grid_fn(prob.a_fn)(grid)
    b = _as_grid_fn(prob.b_fn)(grid)
    return float(np.abs(dx(grid) - a * x - b * u).max())


def solve_discretized(disc: DiscretizedFocp, diagnostics: bool = True) -> FocpSolution:
    """Solve the KKT conditions and package diagnostics.

    The reduced Hessian solves below ``_STRUCTURED_COND_LIMIT`` of cond(D).
    The dense KKT LU solves above it and wherever the reduced route raises
    SingularMatrixError (a reduced Hessian not numerically SPD, or G_c
    blocks that ``invert_blocks`` refuses); if it refuses too, so does this.
    """
    m = disc.params.m_hat
    solved = None
    if disc.mats.cond_D < _STRUCTURED_COND_LIMIT:
        with contextlib.suppress(SingularMatrixError):
            solved = _structured_solve(disc)
    try:
        C_hat, U_hat, eta, C2 = _dense_solve(disc) if solved is None else solved
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"KKT system singular (m_hat={m}); check q > 0 and the "
            f"dynamics coefficients: {exc}",
            pivot=exc.pivot,
        ) from exc

    J_quad = _quadratic_cost(disc, C2, U_hat)
    J_requad = _requadrature_cost(disc, C2, U_hat)

    rows = [float(np.abs(row).max()) for row in _kkt_residual_rows(disc, C_hat, U_hat, eta)]
    residuals: dict = {
        "cost_discrepancy": abs(J_quad - J_requad),
        "constraint": rows[2],
        "stationarity": max(rows),
    }
    if diagnostics:
        residuals["dynamics_defect"] = _dynamics_defect(disc, C_hat, U_hat)

    return FocpSolution(
        disc=disc, C_hat=C_hat, U_hat=U_hat, eta_star=eta, C2=C2,
        J_value=J_quad, J_requad=J_requad, residuals=residuals,
    )


def solve_focp(
    problem: FocpProblem,
    params: WaveletParams,
    mats: OperationalMatrices | None = None,
    diagnostics: bool = True,
) -> FocpSolution:
    """Discretize and solve in one call."""
    return solve_discretized(discretize(problem, params, mats), diagnostics)


def reconstruct_many(
    solution: FocpSolution, zetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    basis_vals = eval_basis_many(solution.disc.params, np.asarray(zetas, dtype=float))
    return solution.C2 @ basis_vals, solution.U_hat @ basis_vals
