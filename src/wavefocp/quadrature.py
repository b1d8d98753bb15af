"""Low-level numerics: gamma, Gauss rules, block operators and dense
solves.

A block-diagonal operator is stored as its (N, M, M) diagonal blocks and
applied by ``apply_blocks``; its dense form comes from ``block_diagonal``.
``blocks_per_leaf`` sizes the diagonal leaves of the solver's block-Jacobi
preconditioner, whose inverses come from ``invert_blocks``.

Everything here runs on NumPy alone; SciPy is imported only inside
``solve_linear``, the pivoted LU of the solver's dense KKT route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when a matrix is too close to singular to solve with."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights on an interval; weights already absorb any kernel weight."""

    nodes: np.ndarray
    weights: np.ndarray


def gamma(x: float) -> float:
    """Gamma function for positive real arguments; +inf past the overflow
    point (x > 171.62), as ``np.exp`` overflows."""
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires finite x > 0, got {float(x)}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def gauss_legendre(
    n: int, a: float | np.ndarray, b: float | np.ndarray
) -> QuadratureRule:
    """n-point Gauss-Legendre rule mapped to [a, b]: the Gauss-Jacobi rule
    of exponent 0, whose weights are accurate to rounding.

    a and b may also be arrays that broadcast against the n reference
    points: column arrays of shape (S, 1) give S rules as the rows of
    (S, n) nodes and weights.
    """
    return gauss_jacobi_right(n, a, b, 0.0)


@lru_cache(maxsize=None)
def _jacobi_reference(n: int, exponent: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 - x)^exponent on [-1, 1].

    The eigenvalues of the Jacobi matrix (Golub-Welsch) start the nodes,
    Newton steps on the three-term recurrence polish them, and the weights
    come from the derivative formula
    w_i = 2^(exponent+1) / ((1 - x_i^2) P_n'(x_i)^2); the eigenvectors'
    weights would miss by up to 6e-13 (summed, relative) at n = 24. Near
    x = 1 the weight changes by 1e-13 relative within one float spacing of
    x, so the polish and the weights run in long double: 80-bit on x86-64
    Linux, where the weights are accurate to rounding; where long double is
    plain double the rule keeps that node-rounding error.
    """
    a = np.longdouble(exponent)
    x = _jacobi_matrix_eigenvalues(n, exponent)
    # Newton steps rounded to double, then one kept in long double: the rule
    # depends on its start only through the polished double nodes
    for _ in range(3):
        p, dp = _jacobi_value_and_slope(n, a, x.astype(np.longdouble))
        x = (x - p / dp).astype(float)
    x = x.astype(np.longdouble)
    p, dp = _jacobi_value_and_slope(n, a, x)
    x = x - p / dp
    _, dp = _jacobi_value_and_slope(n, a, x)
    w = 2.0 ** (a + 1.0) / ((1.0 - x) * (1.0 + x) * dp**2)
    return x.astype(float), w.astype(float)


def _jacobi_matrix_eigenvalues(n: int, a: float) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal Jacobi matrix of
    the weight (1 - x)^a: the zeros of P_n^(a,0), to about 1e-15."""
    j = np.arange(n, dtype=float)
    c = 2.0 * j + a
    diag = -a * a / np.where(c == 0.0, 1.0, c * (c + 2.0))  # 0 at j = 0 when a = 0
    j, c = j[1:], c[1:]
    off = 2.0 * j * (j + a) / (c * np.sqrt(c * c - 1.0))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


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
    the sum of weights * f(nodes) approximates the weighted integral; exact
    for polynomial f up to degree 2n - 1. a and b may be arrays, as for
    ``gauss_legendre``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not np.all(np.less(a, b)):
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


def condition_estimate(A: np.ndarray) -> float:
    """1-norm condition number of a matrix, or of the block-diagonal matrix
    whose diagonal blocks are the stacked (N, M, M) A: its norm is
    max_n ||A_n||_1 and the norm of its inverse max_n ||A_n^-1||_1."""
    return _condition_and_inverse(A)[0]


def _condition_and_inverse(A: np.ndarray) -> tuple[float, np.ndarray | None]:
    """``condition_estimate(A)`` and A^-1 (inf and None if A is singular)."""
    A = np.asarray(A, dtype=float)
    try:
        inverse = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return float("inf"), None
    return float(np.abs(A).sum(axis=-2).max() * np.abs(inverse).sum(axis=-2).max()), inverse


_PIVOT_RTOL = 1e-14


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivoted dense solve with an explicit singularity check.

    The solver's dense KKT route; the only caller of SciPy, imported here so
    that no other path loads it. LAPACK factors a writeable Fortran-ordered
    float64 A in place, so such an A is overwritten and must not be read
    again; any other A is copied first. The pivot threshold's inf-norm is
    taken before, by LAPACK's ``dlange`` for a Fortran- or C-ordered A
    (``scipy.linalg.norm``), so |A| is never formed.
    """
    import scipy.linalg

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    threshold = _PIVOT_RTOL * scipy.linalg.norm(A, np.inf)
    lu, piv = scipy.linalg.lu_factor(A, overwrite_a=A.flags.writeable)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < threshold:
        raise SingularMatrixError(
            f"matrix numerically singular: pivot {pivots.min():.3e} "
            f"below threshold {threshold:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b)


def block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """The dense n-major matrix with the (N, M, M) blocks on its diagonal."""
    N, M, _ = blocks.shape
    out = np.zeros((N * M, N * M))
    diag = np.arange(N)
    out.reshape(N, M, N, M)[diag, :, diag, :] = blocks
    return out


def apply_blocks(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with the (N, M, M) blocks times x, of shape
    (N M,) or (N M, k) with n-major rows."""
    N, M, _ = blocks.shape
    return (blocks @ x.reshape(N, M, -1)).reshape(x.shape)


# the fewest rows per leaf of the solver's block-Jacobi preconditioner
_LEAF = 32


def blocks_per_leaf(N: int, M: int) -> int:
    """M x M blocks per leaf of a matrix of N blocks: the fewest whole blocks
    that hold at least ``_LEAF`` rows and divide N (all N if none does)."""
    return next((b for b in range(-(-_LEAF // M), N) if N % b == 0), N)


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve for SPD matrices and one step of iterative refinement.

    The factor L is LAPACK's (``np.linalg.cholesky``), and each solve is one
    ``np.linalg.solve`` with L and one with L^T. Raises SingularMatrixError
    where A has a NaN entry or no Cholesky factor. No solve route calls it;
    the benchmark traces it by name."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.isfinite(A).all():  # np.linalg.cholesky passes NaN through
        raise SingularMatrixError("matrix not numerically positive definite")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix not numerically positive definite") from None

    def cholesky_solve(r: np.ndarray) -> np.ndarray:
        return np.linalg.solve(L.T, np.linalg.solve(L, r))

    x = cholesky_solve(b)
    return x + cholesky_solve(b - A @ x)


def invert_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverses of the stacked (N, M, M) blocks, for blocks conditioned well
    enough that an explicit inverse is accurate.

    Raises SingularMatrixError when the 1-norm condition number of the
    block-diagonal matrix reaches the reciprocal of the pivot threshold of
    ``solve_linear``.
    """
    cond, inverse = _condition_and_inverse(blocks)
    if not cond * _PIVOT_RTOL < 1.0:
        raise SingularMatrixError(
            f"blocks numerically singular: condition {cond:.3e} "
            f"above {1.0 / _PIVOT_RTOL:.0e}"
        )
    return inverse
