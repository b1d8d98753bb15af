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
because the RL integral is causal), so C_hat is eliminated by one
triangular solve. What remains is the SPD reduced Hessian in U_hat, of
size m_hat; the multipliers come from a transposed G_c solve (the
null-space method, Nocedal & Wright, Numerical Optimization, 2nd ed.,
section 16.2). ``assemble_kkt`` builds the full system, whose pivoted LU
is the one other route: where cond(D) reaches ``_STRUCTURED_COND_LIMIT``
and wherever the reduced route raises SingularMatrixError.
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
        """(G_A, G_B) of ``_constraint_operators``, built once and shared by
        the solve, the KKT assembly and the residual checks."""
        return _constraint_operators(self)


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


def _constraint_operators(disc: DiscretizedFocp) -> tuple[np.ndarray, np.ndarray]:
    """Linear maps G_A, G_B with the dynamics constraint
    C_hat - G_A (Pmu^T C_hat + d1) - G_B U_hat = 0."""
    mats = disc.mats
    G_A = product_matrix(disc.A_hat, mats).T
    G_B = product_matrix(disc.B_hat, mats).T
    return G_A, G_B


def _kkt_rhs(disc: DiscretizedFocp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-hand side of the KKT system, one block per row block."""
    Pm = disc.mats.Pmu
    G_A, _ = disc.constraint_operators
    return Pm @ (disc.wp_track - disc.Wp @ disc.d1), disc.wq_track, G_A @ disc.d1


def assemble_kkt(disc: DiscretizedFocp) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric KKT system in (C_hat, U_hat, eta_star), size 3 m_hat: the
    dense form of what ``solve_discretized`` solves, for the tests and for
    its dense route (``_dense_solve``)."""
    m = disc.params.m_hat
    Pm = disc.mats.Pmu
    G_A, G_B = disc.constraint_operators

    H_cc = Pm @ disc.Wp @ Pm.T
    G_c = np.eye(m) - G_A @ Pm.T

    K = np.zeros((3 * m, 3 * m))
    K[:m, :m] = H_cc
    K[m : 2 * m, m : 2 * m] = disc.Wq
    K[:m, 2 * m :] = G_c.T
    K[2 * m :, :m] = G_c
    K[m : 2 * m, 2 * m :] = -G_B.T
    K[2 * m :, m : 2 * m] = -G_B
    return K, np.concatenate(_kkt_rhs(disc))


@dataclass(frozen=True)
class _BlockTriangular:
    """G_c = I - G_A Pmu^T, block lower-triangular, stored as G_c = Dg T:
    Dg holds its N diagonal blocks, which are close to the identity, and
    T = Dg^-1 G_c is unit lower-triangular, so G_c and G_c^T solve by one
    blocked triangular solve and N small block products."""

    G_c: np.ndarray
    T: LowerTriangular
    Dg_inv: np.ndarray

    @classmethod
    def build(cls, disc: DiscretizedFocp) -> "_BlockTriangular":
        N, M = disc.params.n_blocks, disc.params.M
        m = N * M
        Pm = disc.mats.Pmu
        G_A, _ = disc.constraint_operators
        # row block n of G_A Pmu^T is (G_A)_n times the rows of block n of Pmu^T
        G_c = np.eye(m) - (diagonal_blocks(G_A, M) @ Pm.T.reshape(N, M, m)).reshape(m, m)
        Dg_inv = invert_blocks(diagonal_blocks(G_c, M))
        T = _apply_blocks(Dg_inv, G_c)
        diag = np.arange(N)
        T.reshape(N, M, N, M)[diag, :, diag, :] = np.eye(M)
        return cls(G_c=G_c, T=LowerTriangular.unit_block(T, M), Dg_inv=Dg_inv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """G_c^-1 rhs."""
        return self.T.solve(_apply_blocks(self.Dg_inv, rhs))

    def solve_transposed(self, rhs: np.ndarray) -> np.ndarray:
        """G_c^-T rhs."""
        return _apply_blocks(self.Dg_inv.transpose(0, 2, 1), self.T.solve_transposed(rhs))


def _apply_blocks(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with the (N, M, M) blocks times x, whose
    rows are n-major."""
    N, M, _ = blocks.shape
    return (blocks @ x.reshape(N, M, -1)).reshape(x.shape)


def _structured_solve(
    disc: DiscretizedFocp,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(C_hat, U_hat, eta_star) of the KKT system, and G_c.

    C_hat = G_c^-1 (G_B U_hat + G_A d1) makes the state L U_hat + x_aff with
    L = Pmu^T G_c^-1 G_B, so U_hat solves the reduced Hessian system
    (L^T Wp L + Wq) U_hat = L^T (wp_track - Wp x_aff) + wq_track, and the
    first KKT row gives G_c^T eta_star = Pmu (wp_track - Wp C2).
    """
    M, m = disc.params.M, disc.params.m_hat
    Pm = disc.mats.Pmu
    _, G_B = disc.constraint_operators
    _, _, rhs_eta = _kkt_rhs(disc)
    G_c = _BlockTriangular.build(disc)
    Z = G_c.solve(np.column_stack([G_B, rhs_eta]))
    state = Pm.T @ Z
    L, x_aff = state[:, :m], state[:, m] + disc.d1
    H = L.T @ _apply_blocks(diagonal_blocks(disc.Wp, M), L) + disc.Wq
    g = L.T @ (disc.wp_track - disc.Wp @ x_aff) + disc.wq_track
    U_hat = solve_spd(0.5 * (H + H.T), g)
    C_hat = Z[:, :m] @ U_hat + Z[:, m]
    C2 = state_from_coeffs(C_hat, disc.d1, disc.mats)
    eta = G_c.solve_transposed(Pm @ (disc.wp_track - disc.Wp @ C2))
    return C_hat, U_hat, eta, G_c.G_c


def _dense_solve(
    disc: DiscretizedFocp,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What ``_structured_solve`` returns, from the pivoted LU of the
    assembled KKT matrix."""
    m = disc.params.m_hat
    K, rhs = assemble_kkt(disc)
    sol = solve_linear(K, rhs)
    return sol[:m], sol[m : 2 * m], sol[2 * m :], K[2 * m :, :m]


def _stationarity(
    disc: DiscretizedFocp, G_c: np.ndarray, C_hat: np.ndarray, U_hat: np.ndarray, eta: np.ndarray
) -> float:
    """Largest entry of K sol - rhs, from the three KKT block rows as
    matrix-vector products."""
    Pm = disc.mats.Pmu
    _, G_B = disc.constraint_operators
    rhs_c, rhs_u, rhs_eta = _kkt_rhs(disc)
    rows = (
        Pm @ (disc.Wp @ (Pm.T @ C_hat)) + G_c.T @ eta - rhs_c,
        disc.Wq @ U_hat - G_B.T @ eta - rhs_u,
        G_c @ C_hat - G_B @ U_hat - rhs_eta,
    )
    return max(float(np.abs(row).max()) for row in rows)


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
        C_hat, U_hat, eta, G_c = _dense_solve(disc) if solved is None else solved
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"KKT system singular (m_hat={m}); check q > 0 and the "
            f"dynamics coefficients: {exc}",
            pivot=exc.pivot,
        ) from exc
    C2 = state_from_coeffs(C_hat, disc.d1, disc.mats)

    J_quad = _quadratic_cost(disc, C2, U_hat)
    J_requad = _requadrature_cost(disc, C2, U_hat)

    residuals: dict = {"cost_discrepancy": abs(J_quad - J_requad)}
    G_A, G_B = disc.constraint_operators
    constraint = C_hat - G_A @ C2 - G_B @ U_hat
    residuals["constraint"] = float(np.abs(constraint).max())
    residuals["stationarity"] = _stationarity(disc, G_c, C_hat, U_hat, eta)
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
