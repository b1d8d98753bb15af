"""The paper's a-priori error bounds and an empirical convergence sweep.

The bounds need a bound on the m_hat-th derivative of the solution, which
is unbounded for mu < 1 (x has t^mu), so no solve reports them: the tests
check them on analytic single-block cases."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from wavefocp.basis import WaveletParams
from wavefocp.solver import FocpProblem, reconstruct_many, solve_focp


def lemma2_bound(M_tilde: float, m_hat: int) -> float:
    """Projection-error bound M~ / (m_hat! * 2^(2 m_hat - 1)).

    Evaluated in the log domain so large m_hat cannot overflow.
    """
    if M_tilde < 0.0:
        raise ValueError(f"need M_tilde >= 0, got {M_tilde}")
    if m_hat < 1:
        raise ValueError(f"need m_hat >= 1, got {m_hat}")
    if M_tilde == 0.0:
        return 0.0
    log_bound = math.log(M_tilde) - math.lgamma(m_hat + 1) - (2 * m_hat - 1) * math.log(2.0)
    return math.exp(log_bound)


def cost_gap_bound(L: float, M1: float, M2: float, m_hat: int) -> float:
    """Cost-infimum gap bound L * (M1 + M2) / (m_hat! * 2^(2 m_hat - 1))."""
    if L < 0.0 or M1 < 0.0 or M2 < 0.0:
        raise ValueError("L, M1, M2 must be nonnegative")
    return L * lemma2_bound(M1 + M2, m_hat)


@dataclass(frozen=True)
class SweepRow:
    k: int
    M: int
    m_hat: int
    mu: float
    basis: str
    J: float
    err_x_sup: float | None
    err_u_sup: float | None


def convergence_sweep(
    problem: FocpProblem,
    configs: Sequence[WaveletParams],
    exact_x: Callable[[np.ndarray], np.ndarray] | None = None,
    exact_u: Callable[[np.ndarray], np.ndarray] | None = None,
    grid_size: int = 200,
) -> tuple[list[SweepRow], bool]:
    """Solve per config; returns rows plus a J-monotonicity verdict.

    The verdict only asserts non-increase across configs nested in the
    same-k, increasing-M sense, where span nesting actually holds.
    """
    rows: list[SweepRow] = []
    grid = np.linspace(0.0, 1.0, grid_size)
    for params in configs:
        sol = solve_focp(problem, params, diagnostics=False)
        err_x = err_u = None
        x, u = reconstruct_many(sol, grid)
        if exact_x is not None:
            err_x = float(np.abs(x - np.asarray(exact_x(grid), dtype=float)).max())
        if exact_u is not None:
            err_u = float(np.abs(u - np.asarray(exact_u(grid), dtype=float)).max())
        basis = "ftw" if params.mu != 1.0 else "tw"
        rows.append(
            SweepRow(
                k=params.k, M=params.M, m_hat=params.m_hat, mu=problem.mu,
                basis=basis, J=sol.J_value, err_x_sup=err_x, err_u_sup=err_u,
            )
        )
    monotone = True
    for prev, cur in zip(rows[:-1], rows[1:]):
        if cur.k == prev.k and cur.M >= prev.M and cur.J > prev.J + 1e-9:
            monotone = False
    return rows, monotone
