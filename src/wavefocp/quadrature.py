"""Low-level numerics: gamma, Gauss rules, graded breakpoints, dense solves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from scipy.special import roots_jacobi


class SingularMatrixError(ValueError):
    """Raised when a pivot falls below the singularity threshold."""

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on an interval; weights already absorb any kernel weight."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.dot(self.weights, f(self.nodes)))


def gamma(x: float) -> float:
    """Gamma function for positive real arguments."""
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires finite x > 0, got {x!r}")
    return math.gamma(x)


def _is_interval(a, b) -> bool:
    """a < b; for arrays, at every element."""
    below = a < b
    return bool(below.all()) if isinstance(below, np.ndarray) else bool(below)


def gauss_legendre(
    n: int, a: float | np.ndarray, b: float | np.ndarray
) -> QuadratureRule:
    """n-point Gauss-Legendre rule mapped to [a, b].

    a and b may also be arrays that broadcast against the n reference
    points: column arrays of shape (S, 1) give S rules as the rows of
    (S, n) nodes and weights. The reference rule is the Gauss-Jacobi rule
    of exponent 0, whose weights are accurate to rounding.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not _is_interval(a, b):
        raise ValueError(f"need a < b, got a={a}, b={b}")
    x, w = _jacobi_reference(n, 0.0)
    half = 0.5 * (b - a)
    return QuadratureRule(nodes=a + half * (x + 1.0), weights=half * w)


@lru_cache(maxsize=None)
def _jacobi_reference(n: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 - x)^exponent on [-1, 1].

    scipy's nodes are polished by Newton steps on the three-term
    recurrence, and the weights come from the derivative formula
    w_i = 2^(exponent+1) / ((1 - x_i^2) P_n'(x_i)^2); scipy's own weights
    miss by up to 6e-13 (summed, relative) at n = 24. Near x = 1 the weight
    changes by 1e-13 relative within one float spacing of x, so both steps
    run in long double: 80-bit on x86-64 Linux, where the weights are
    accurate to rounding; where long double is plain double the rule keeps
    that node-rounding error.
    """
    a = np.longdouble(exponent)
    x = roots_jacobi(n, exponent, 0.0)[0].astype(np.longdouble)
    for _ in range(3):
        p, dp = _jacobi_value_and_slope(n, a, x)
        x = x - p / dp
    _, dp = _jacobi_value_and_slope(n, a, x)
    w = 2.0 ** (a + 1.0) / ((1.0 - x) * (1.0 + x) * dp**2)
    return x.astype(float), w.astype(float)


def _jacobi_value_and_slope(
    n: int, a: float, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P_n^(a,0)(x) and its derivative for n >= 1, from the three-term
    recurrence."""
    prev, cur = np.ones_like(x), 0.5 * ((a + 2.0) * x + a)
    for j in range(2, n + 1):
        c = 2.0 * j + a
        prev, cur = cur, (
            (c - 1.0) * (c * (c - 2.0) * x + a * a) * cur
            - 2.0 * (j + a - 1.0) * (j - 1.0) * c * prev
        ) / (2.0 * j * (j + a) * (c - 2.0))
    c = 2.0 * n + a
    slope = (n * (a - c * x) * cur + 2.0 * n * (n + a) * prev) / (
        c * (1.0 - x) * (1.0 + x)
    )
    return cur, slope


def gauss_jacobi_right(
    n: int, a: float | np.ndarray, b: float | np.ndarray, exponent: float
) -> QuadratureRule:
    """Rule for integrals of (b - t)^exponent * f(t) over [a, b].

    The weight (b - t)^exponent is folded into the returned weights, so
    ``rule.integrate(f)`` approximates the weighted integral; exact for
    polynomial f up to degree 2n - 1. a and b may be arrays, as for
    ``gauss_legendre``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not _is_interval(a, b):
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if exponent <= -1.0:
        raise ValueError(f"need exponent > -1, got {exponent}")
    x, w = _jacobi_reference(n, exponent)
    half = 0.5 * (b - a)
    # (b - t) = half * (1 - x) under t = a + half * (x + 1)
    return QuadratureRule(nodes=a + half * (x + 1.0), weights=(half ** (exponent + 1.0)) * w)


def gauss_jacobi_left(n: int, a: float, b: float, exponent: float) -> QuadratureRule:
    """Rule for integrals of (t - a)^exponent * f(t) over [a, b]: the mirror
    image of ``gauss_jacobi_right``."""
    right = gauss_jacobi_right(n, a, b, exponent)
    return QuadratureRule(nodes=a + b - right.nodes, weights=right.weights)


def graded_breakpoints(
    base: Sequence[float], levels: int = 16, ratio: float = 0.2
) -> np.ndarray:
    """Refine a breakpoint list geometrically toward every base breakpoint.

    Integrands here are piecewise powers of zeta with unbounded derivatives
    at segment endpoints; geometric grading restores fast convergence of the
    per-segment Gauss rules.
    """
    base = np.asarray(base, dtype=float)
    pts = [base]
    for lo, hi in zip(base[:-1], base[1:]):
        width = hi - lo
        offs = width * ratio ** np.arange(1, levels + 1)
        pts.append(lo + offs)
        pts.append(hi - offs)
    out = np.unique(np.concatenate(pts))
    return out[(out >= base[0]) & (out <= base[-1])]


def condition_estimate(A: np.ndarray) -> float:
    """1-norm condition number of a matrix, or of the block-diagonal matrix
    whose diagonal blocks are the stacked (N, M, M) A: its norm is
    max_n ||A_n||_1 and the norm of its inverse max_n ||A_n^-1||_1."""
    A = np.asarray(A, dtype=float)
    try:
        inverse = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return float("inf")
    return float(np.abs(A).sum(axis=-2).max() * np.abs(inverse).sum(axis=-2).max())


_PIVOT_RTOL = 1e-14


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivoted dense solve with an explicit singularity check."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, b has {b.shape[0]} rows")
    lu, piv = scipy.linalg.lu_factor(A)
    pivots = np.abs(np.diag(lu))
    threshold = _PIVOT_RTOL * np.linalg.norm(A, np.inf)
    if pivots.min() < threshold:
        raise SingularMatrixError(
            f"matrix numerically singular: pivot {pivots.min():.3e} "
            f"below threshold {threshold:.3e}",
            pivot=float(pivots.min()),
        )
    return scipy.linalg.lu_solve((lu, piv), b)


def spd_factor(A: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """Cholesky factor of A in ``scipy.linalg.cho_factor`` form, or None
    when A is not numerically positive definite."""
    try:
        return scipy.linalg.cho_factor(np.asarray(A, dtype=float))
    except scipy.linalg.LinAlgError:
        return None


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve for SPD matrices, falling back to the pivoted path."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    factor = spd_factor(A)
    if factor is None:
        return solve_linear(A, b)
    return scipy.linalg.cho_solve(factor, b)


def spd_block_inverse_factor(blocks: np.ndarray) -> np.ndarray | None:
    """Inverses L^-1 of the lower Cholesky factors L of the stacked (N, M, M)
    SPD blocks of a block-diagonal matrix (lower triangular, by forward
    substitution on the identity), or None when a block is not numerically
    positive definite."""
    try:
        factor = np.linalg.cholesky(np.asarray(blocks, dtype=float))
    except np.linalg.LinAlgError:
        return None
    M = factor.shape[-1]
    inverse = np.broadcast_to(np.eye(M), factor.shape).copy()
    for i in range(M):
        inverse[:, i] -= np.einsum("nj,njk->nk", factor[:, i, :i], inverse[:, :i])
        inverse[:, i] /= factor[:, i, i, None]
    return inverse


def solve_spd_blocks(inverse_factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for the block-diagonal A whose blocks have the (N, M, M)
    inverse Cholesky factors ``inverse_factor`` (L^-1, from
    ``spd_block_inverse_factor``): x = L^-T (L^-1 b); b is (N M,) or
    (N M, k), n-major.

    Each product is one broadcast multiply into a C-ordered (N, M, M, k)
    array whose summed index comes before the result index, and one sum
    over that index. The sum then runs over j = 0, 1, ... for every entry
    whatever k is, so a column solved alone gives the same bits as the same
    column among others.
    """
    N, M, _ = inverse_factor.shape
    b = np.asarray(b, dtype=float)
    y = b.reshape(N, M, 1, -1)
    y = np.multiply(inverse_factor.transpose(0, 2, 1)[..., None], y, order="C").sum(axis=1)
    x = np.multiply(inverse_factor[..., None], y[:, :, None], order="C").sum(axis=1)
    return x.reshape(b.shape)


def invert_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverses of the stacked (N, M, M) blocks, for blocks conditioned well
    enough that an explicit inverse is accurate.

    Raises SingularMatrixError when the 1-norm condition number of the
    block-diagonal matrix reaches the reciprocal of the pivot threshold of
    ``solve_linear``.
    """
    cond = condition_estimate(blocks)
    if not cond * _PIVOT_RTOL < 1.0:
        raise SingularMatrixError(
            f"blocks numerically singular: condition {cond:.3e} "
            f"above {1.0 / _PIVOT_RTOL:.0e}",
            pivot=1.0 / cond,
        )
    return np.linalg.inv(blocks)
