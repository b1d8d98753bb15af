"""Wavelet discretization and KKT solve for the linear-quadratic FOCP.

Minimize  (1/2) * integral of p*(x - rx)^2 + q*(u - ru)^2  over [0, 1]
subject to the Caputo dynamics  D^mu x = a*x + b*u,  x(0) = x0.

The fractional derivative of the state and the control are expanded in the
wavelet basis; the fractional integration matrix recovers the state, the
product matrices of a and b, weighted Grams on the bundle's quadrature grid,
turn the dynamics into linear algebraic constraints,
and the Lagrange-multiplier (KKT) conditions yield the coefficients.

The weighted Grams Wp, Wq and the constraint operators G_A, G_B are
block-diagonal and stored as their (N, M, M) blocks, applied by
``apply_blocks``. The constraint G_c C_hat = G_B U_hat + G_A d1 has
G_c = I - G_A Pmu^T block lower-triangular (Pmu is block upper-triangular,
because the RL integral is causal). There are two routes, each returning
(C_hat, U_hat, eta_star) and the state coefficients C2:

- ``_range_space_solve``, below cond(D) 3e11, eliminates the control and
  the multipliers through G_B^-1 (b != 0): C_hat solves an SPD system of
  size m_hat, which preconditioned CG solves without forming it, two
  products with Pmu per step (the range-space method, Nocedal & Wright,
  Numerical Optimization, 2nd ed., sections 16.2-16.3). The 3 m_hat KKT
  system is not formed.
- ``_dense_solve``, the pivoted LU of the system ``assemble_kkt`` writes
  block by block into one Fortran-ordered K, from cond(D) 3e11 up, where
  ``discretize`` warns, and wherever the range-space route refuses.

One residual pass, ``_kkt_residual_rows``, then forms the three KKT block
rows from C2, G_A, G_B, Pmu, Wp and Wq without G_c or the right-hand
side.
"""

from __future__ import annotations

import functools
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import WaveletParams, check_order, eval_basis_many, local_basis_values
from .fracops import rl_integral
from .opmats import OperationalMatrices, build_operational_matrices, product_matrix
from .quadrature import (
    SingularMatrixError,
    apply_blocks,
    blocks_per_leaf,
    invert_blocks,
    solve_linear,
)

_VALIDATION_GRID = np.linspace(0.0, 1.0, 100)
# the data contract's sign rules: the cost has a minimum only where q > 0 and
# p >= 0, and the control enters the dynamics only where b != 0
_SIGN_RULES = [("q", lambda v: v > 0.0, "strictly positive"),
               ("p", lambda v: v >= 0.0, "nonnegative"), ("b", lambda v: v != 0.0, "nonzero")]

# below this cond(D) the range-space route solves, from it up the pivoted
# LU of the assembled KKT system. The range-space route costs O(m_hat^2)
# per PCG step and forms no m_hat x m_hat array; the LU costs O(m_hat^3)
# and holds 9 m_hat^2 floats. On the grid of tests/route_map.py at
# M = 4..14 (four problems, mu 0.5 to 0.9, both bases, k = 1..3), against
# a 40-digit refinement of each float KKT system: below 3e11 (396 solves,
# M <= 9) the range-space route misses J by 6.5e-11 at most. From 3e11 up
# (262 converged solves) it refuses 180 and the LU 127, neither misses J
# by 1e-6, and the median relative u error is 6.8e-4 for the range-space
# route and 8.3e-5 for the LU
_RANGE_SPACE_COND_LIMIT = 3e11
# PCG stops at ||r||_2 <= _CG_RTOL ||g||_2 and refuses after _CG_MAX_ITER
# steps; at M = 4 and m_hat 64 to 1024 it takes 6 to 15 steps on drawn
# problems and up to 35 under the unstable dynamics a = 8
_CG_RTOL = 1e-14
_CG_MAX_ITER = 200

Fn = Callable[[np.ndarray], np.ndarray]


class ConfigurationError(ValueError):
    """Problem and basis are inconsistent (e.g. mismatched orders)."""


def _sample(f: Fn, points: np.ndarray) -> np.ndarray:
    out = np.asarray(f(points), dtype=float)
    return np.full(np.shape(points), float(out)) if out.ndim == 0 else out


def sample_checked(fns: dict[str, Fn | None], points: np.ndarray, where: str) -> dict:
    """Each function's values at the points by name, None skipped. A ValueError
    from a function is raised again naming its field; then the first field not
    finite, or else the first of q, p and b that breaks its ``_SIGN_RULES``
    entry, is refused by name, ``where`` naming the points."""
    samples = {}
    # an overflow is reported as a non-finite value, not as a warning
    with np.errstate(all="ignore"):
        for name, f in fns.items():
            try:
                if f is not None:
                    samples[name] = _sample(f, points)
            except ValueError as exc:
                raise ValueError(f"field {name!r}: {exc}") from exc
    rules = [(name, np.isfinite, "finite") for name in samples] + _SIGN_RULES
    for name, holds, rule in rules:
        if name in samples and not holds(samples[name]).all():
            raise ValueError(f"{name} must be {rule} {where}")
    return samples


@dataclass(frozen=True)
class FocpProblem:
    """Problem data on [0, 1], track_x/track_u optional tracking targets. q, p, b
    and a are held to ``sample_checked``'s contract here, on a 100-point grid,
    and every field is held to it again by ``discretize``, on the nodes it samples."""

    p_fn: Fn
    q_fn: Fn
    a_fn: Fn
    b_fn: Fn
    x0: float
    mu: float
    track_x: Fn | None = None
    track_u: Fn | None = None

    def __post_init__(self):
        check_order(self.mu)
        if not np.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        sample_checked({name: getattr(self, f"{name}_fn") for name in ("q", "p", "b", "a")},
                       _VALIDATION_GRID, "on [0, 1]")


@dataclass(frozen=True)
class DiscretizedFocp:
    """What the KKT solve reads: the constraint operators G_A, G_B of
    C_hat - G_A (Pmu^T C_hat + d1) - G_B U_hat = 0 and the weighted Grams Wp,
    Wq, each as its (N, M, M) diagonal blocks, plus the projection d1 of x0
    and the tracking terms; ``samples`` holds the values, by field name, of
    p, q, a, b and the targets given (track_x, track_u) on the nodes of
    ``mats.grid``, from which these were formed."""

    problem: FocpProblem
    params: WaveletParams
    mats: OperationalMatrices
    G_A: np.ndarray
    G_B: np.ndarray
    d1: np.ndarray
    Wp: np.ndarray
    Wq: np.ndarray
    wp_track: np.ndarray
    wq_track: np.ndarray
    track_p_const: float
    track_q_const: float
    samples: dict[str, np.ndarray]


@dataclass(frozen=True)
class FocpSolution:
    """Solved coefficients, multipliers, cost, and residual diagnostics."""

    disc: DiscretizedFocp
    C_hat: np.ndarray
    U_hat: np.ndarray
    eta_star: np.ndarray
    C2: np.ndarray
    J_value: float
    residuals: dict = field(default_factory=dict)


def discretize(
    problem: FocpProblem,
    params: WaveletParams,
    mats: OperationalMatrices | None = None,
) -> DiscretizedFocp:
    """Sample the problem's functions once on the grid's nodes, held to
    ``sample_checked``'s contract, and form the constraint operators, the
    weighted Grams and the tracking terms from the samples, which the
    discretization keeps. Warns from cond(D) 3e11 up, the dense LU's range."""
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
    if mats.cond_D >= _RANGE_SPACE_COND_LIMIT:
        # at the line that called solve_focp, where solve_focp called this
        warnings.warn(f"Gram matrix condition estimate cond(D) {mats.cond_D:.2e} is at or above "
                      f"{_RANGE_SPACE_COND_LIMIT:.0e}: the dense KKT LU solves",
                      stacklevel=2 + (sys._getframe(1).f_code is solve_focp.__code__))
    grid = mats.grid
    fns = {"p": problem.p_fn, "q": problem.q_fn, "a": problem.a_fn, "b": problem.b_fn,
           "track_x": problem.track_x, "track_u": problem.track_u}
    samples = sample_checked(fns, grid.nodes, "on the quadrature nodes")

    def constraint_operator(values: np.ndarray) -> np.ndarray:
        return product_matrix(mats.solve_D(grid.inner_products(values)), mats).transpose(0, 2, 1)

    def tracking(w: np.ndarray, r: np.ndarray | None) -> tuple[np.ndarray, float]:
        """Integrals of w r psi_j and of w r^2 for the target r, or zeros."""
        if r is None:
            return np.zeros(params.m_hat), 0.0
        wr = w * r
        return grid.inner_products(wr), float(np.dot(grid.weights, wr * r))

    wp_track, track_p_const = tracking(samples["p"], samples.get("track_x"))
    wq_track, track_q_const = tracking(samples["q"], samples.get("track_u"))

    return DiscretizedFocp(
        problem=problem, params=params, mats=mats,
        G_A=constraint_operator(samples["a"]), G_B=constraint_operator(samples["b"]),
        d1=mats.solve_D(grid.inner_products(problem.x0)),
        Wp=grid.gram_blocks(samples["p"]), Wq=grid.gram_blocks(samples["q"]),
        wp_track=wp_track, wq_track=wq_track,
        track_p_const=track_p_const, track_q_const=track_q_const, samples=samples,
    )


def state_from_coeffs(
    C_hat: np.ndarray, d1: np.ndarray, mats: OperationalMatrices
) -> np.ndarray:
    """Coefficients of x(zeta) from the Caputo-derivative coefficients."""
    return mats.Pmu.T @ C_hat + d1


def assemble_kkt(disc: DiscretizedFocp) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric KKT system in (C_hat, U_hat, eta_star), size 3 m_hat: the
    dense form of what ``solve_discretized`` solves, for the tests and for
    its dense route (``_dense_solve``). K is Fortran-ordered, the layout
    that ``solve_linear`` factors in place. Each block is written once,
    into K: G_c = I - G_A Pmu^T (block lower-triangular) is one batched
    product, G_A being block-diagonal, and K's upper blocks are copied
    from its lower ones."""
    N, M, m = disc.params.n_blocks, disc.params.M, disc.params.m_hat
    Pm = disc.mats.Pmu
    K = np.zeros((3 * m, 3 * m), order="F")
    K[:m, :m] = Pm @ apply_blocks(disc.Wp, Pm.T)
    # each reshape below only splits axes of a slice of K: a view, not a copy
    diag = np.arange(N)
    for view, blocks in ((K[m : 2 * m, m : 2 * m], disc.Wq), (K[2 * m :, m : 2 * m], -disc.G_B)):
        view.reshape(N, M, N, M)[diag, :, diag, :] = blocks
    G_c = K[2 * m :, :m]
    np.matmul(disc.G_A, Pm.T.reshape(N, M, m), out=G_c.reshape(N, M, m))
    np.negative(G_c, out=G_c)
    G_c[np.arange(m), np.arange(m)] += 1.0
    K[:m, 2 * m :] = G_c.T
    K[m : 2 * m, 2 * m :] = K[2 * m :, m : 2 * m].T
    rhs = np.concatenate((
        Pm @ (disc.wp_track - apply_blocks(disc.Wp, disc.d1)),
        disc.wq_track,
        apply_blocks(disc.G_A, disc.d1),
    ))
    return K, rhs


def _range_space_solve(
    disc: DiscretizedFocp,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(C_hat, U_hat, eta_star) of the KKT system and the state coefficients
    C2 = Pmu^T C_hat + d1, with the control and the multipliers eliminated:
    the range-space method (Nocedal & Wright, section 16.2; Benzi, Golub &
    Liesen, Acta Numerica 14 (2005), section 5), which forms no forward shot
    of the dynamics.

    With S^-1 = G_B^-T Wq G_B^-1, E = S^-1 G_A and W = Wp + G_A^T E, C_hat
    solves the SPD system H C_hat = g, where
    H = Pmu Wp Pmu^T + G_c^T S^-1 G_c = [Pmu | I] K [Pmu | I]^T with the
    block-diagonal K = [[W, -E^T], [-E, S^-1]], and
    g = Pmu (wp_track - Wp d1 - G_A^T z) + z, z = E d1 + G_B^-T wq_track.
    PCG applies H as one product by Pmu^T, one batched (N, 2M, 2M) product
    by K and one product by Pmu, preconditioned by the inverses of H's
    diagonal leaves of ``blocks_per_leaf`` blocks. Then
    U_hat = G_B^-1 (C_hat - G_A C2) and eta_star = G_B^-T (Wq U_hat - wq_track).
    """
    N, M = disc.params.n_blocks, disc.params.M
    Pm, G_A = disc.mats.Pmu, disc.G_A
    G_A_T = G_A.transpose(0, 2, 1)
    B_inv = invert_blocks(disc.G_B)
    B_inv_T = B_inv.transpose(0, 2, 1)
    S_inv = B_inv_T @ disc.Wq @ B_inv
    S_inv = 0.5 * (S_inv + S_inv.transpose(0, 2, 1))
    E = S_inv @ G_A
    W = disc.Wp + G_A_T @ E
    K = np.empty((N, 2 * M, 2 * M))
    K[:, :M, :M] = 0.5 * (W + W.transpose(0, 2, 1))
    K[:, M:, :M] = -E
    K[:, :M, M:] = -E.transpose(0, 2, 1)
    K[:, M:, M:] = S_inv

    def apply_H(p: np.ndarray) -> np.ndarray:
        yp = np.concatenate(((Pm.T @ p).reshape(N, M, 1), p.reshape(N, M, 1)), axis=1)
        vw = K @ yp
        return Pm @ vw[:, :M].ravel() + vw[:, M:].ravel()

    # leaf j of H is Z^T K Z, Z the leaf's columns of [Pmu | I]^T, which are
    # zero above the leaf: Pmu is block upper-triangular
    per_leaf = blocks_per_leaf(N, M)
    rows = per_leaf * M
    leaves = np.empty((N // per_leaf, rows, rows))
    for j, leaf in enumerate(leaves):
        k, n = j * rows, j * per_leaf
        Z = np.zeros((N - n, 2 * M, rows))
        Z[:, :M] = Pm[k : k + rows, k:].T.reshape(N - n, M, rows)
        Z[:per_leaf, M:] = np.eye(rows).reshape(per_leaf, M, rows)
        leaf[:] = Z.reshape(-1, rows).T @ (K[n:] @ Z).reshape(-1, rows)
    P_inv = invert_blocks(0.5 * (leaves + leaves.transpose(0, 2, 1)))

    z = apply_blocks(E, disc.d1) + apply_blocks(B_inv_T, disc.wq_track)
    g = Pm @ (disc.wp_track - apply_blocks(disc.Wp, disc.d1) - apply_blocks(G_A_T, z)) + z
    C_hat = _pcg(apply_H, functools.partial(apply_blocks, P_inv), g)
    C2 = state_from_coeffs(C_hat, disc.d1, disc.mats)
    U_hat = apply_blocks(B_inv, C_hat - apply_blocks(G_A, C2))
    eta = apply_blocks(B_inv_T, apply_blocks(disc.Wq, U_hat) - disc.wq_track)
    return C_hat, U_hat, eta, C2


def _pcg(apply_H: Fn, apply_P: Fn, g: np.ndarray) -> np.ndarray:
    """Preconditioned CG for H x = g from x = P^-1 g, to
    ||r||_2 <= _CG_RTOL ||g||_2 (Nocedal & Wright, algorithm 5.3). Raises
    SingularMatrixError after _CG_MAX_ITER steps, or at a step along which
    H is not numerically positive."""
    x = apply_P(g)
    r = g - apply_H(x)
    tol = _CG_RTOL**2 * (g @ g)
    d = rz = None
    for step in range(_CG_MAX_ITER + 1):
        if r @ r <= tol:
            return x
        if step == _CG_MAX_ITER:
            break
        z = apply_P(r)
        rz, rz_prev = r @ z, rz
        d = z if d is None else z + (rz / rz_prev) * d
        Hd = apply_H(d)
        alpha = rz / (d @ Hd)
        if not alpha > 0.0:  # also NaN
            raise SingularMatrixError("range-space system not numerically positive definite")
        x += alpha * d
        r -= alpha * Hd
    raise SingularMatrixError(f"PCG did not converge in {_CG_MAX_ITER} steps")


def _dense_solve(
    disc: DiscretizedFocp,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What ``_range_space_solve`` returns, from the pivoted LU of the
    assembled KKT matrix. The LU overwrites K, so the route holds one K
    (9 m_hat^2 float64); its peak, about 11 m_hat^2, is assembly's."""
    m = disc.params.m_hat
    sol = solve_linear(*assemble_kkt(disc))
    C_hat = sol[:m]
    return C_hat, sol[m : 2 * m], sol[2 * m :], state_from_coeffs(C_hat, disc.d1, disc.mats)


def _kkt_residual_rows(
    disc: DiscretizedFocp, C_hat: np.ndarray, U_hat: np.ndarray, eta: np.ndarray,
    C2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three block rows of K sol - rhs, written with the route's state
    coefficients C2 = Pmu^T C_hat + d1, which carry the right-hand side's d1
    terms: stationarity in C_hat and in U_hat, then the dynamics constraint."""
    G_A, G_B = disc.G_A, disc.G_B
    return (
        disc.mats.Pmu @ (apply_blocks(disc.Wp, C2) - disc.wp_track
                         - apply_blocks(G_A.transpose(0, 2, 1), eta)) + eta,
        apply_blocks(disc.Wq, U_hat) - apply_blocks(G_B.transpose(0, 2, 1), eta) - disc.wq_track,
        C_hat - apply_blocks(G_A, C2) - apply_blocks(G_B, U_hat),
    )


def _quadratic_cost(disc: DiscretizedFocp, C2: np.ndarray, U_hat: np.ndarray) -> float:
    """J = 1/2 c^T W c - c^T w_track + 1/2 const over the state and the control."""
    M = disc.params.M
    J = 0.5 * (disc.track_p_const + disc.track_q_const)
    for W, c, track in ((disc.Wp, C2, disc.wp_track), (disc.Wq, U_hat, disc.wq_track)):
        J += 0.5 * np.einsum("ni,nij,nj->", c.reshape(-1, M), W, c.reshape(-1, M)) - c @ track
    return float(J)


def _requadrature_cost(disc: DiscretizedFocp, C2: np.ndarray, U_hat: np.ndarray) -> float:
    """J as the grid's rule applied to the integrand, from the state and the
    control evaluated on the nodes and ``discretize``'s samples there. The
    rule is the one that built Wp and Wq, so this checks the algebra only."""
    grid, samples = disc.mats.grid, disc.samples
    integrand = 0.5 * (
        samples["p"] * (grid.evaluate(C2) - samples.get("track_x", 0.0)) ** 2
        + samples["q"] * (grid.evaluate(U_hat) - samples.get("track_u", 0.0)) ** 2
    )
    return float(np.dot(grid.weights, integrand))


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
    a, b = _sample(prob.a_fn, grid), _sample(prob.b_fn, grid)
    return float(np.abs(dx(grid) - a * x - b * u).max())


def solve_discretized(disc: DiscretizedFocp, diagnostics: bool = True) -> FocpSolution:
    """Solve the KKT conditions and package diagnostics.

    Below cond(D) 3e11 the range-space route solves. The dense KKT LU
    solves from 3e11 up, and below it wherever the range-space route raises
    SingularMatrixError (blocks that ``invert_blocks`` refuses, or a PCG
    that does not converge); where the LU refuses, so does this, naming M,
    m_hat, cond(D) and each route's refusal.
    """
    params, cond_D = disc.params, disc.mats.cond_D
    solved, refused = None, ""
    if cond_D < _RANGE_SPACE_COND_LIMIT:
        try:
            solved = _range_space_solve(disc)
        except SingularMatrixError as exc:
            refused = f"; the range-space route refused first: {exc}"
    try:
        C_hat, U_hat, eta, C2 = _dense_solve(disc) if solved is None else solved
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"KKT system singular (M={params.M}, m_hat={params.m_hat}, "
            f"cond(D) {cond_D:.2e}): {exc}{refused}"
        ) from exc

    J_quad = _quadratic_cost(disc, C2, U_hat)

    rows = [float(np.abs(row).max()) for row in _kkt_residual_rows(disc, C_hat, U_hat, eta, C2)]
    residuals: dict = {
        "cost_discrepancy": abs(J_quad - _requadrature_cost(disc, C2, U_hat)),
        "constraint": rows[2],
        "stationarity": max(rows),
    }
    if diagnostics:
        residuals["dynamics_defect"] = _dynamics_defect(disc, C_hat, U_hat)

    return FocpSolution(
        disc=disc, C_hat=C_hat, U_hat=U_hat, eta_star=eta, C2=C2,
        J_value=J_quad, residuals=residuals,
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
