"""Low-level numerics: gamma, the incomplete beta, Gauss rules, graded
breakpoints, dense solves.

Everything here runs on NumPy alone; SciPy is imported only inside
``solve_linear``, the pivoted LU of the solver's dense KKT route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


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


# Series tails are cut below this fraction of the series' first term.
_LOG_TAIL = math.log(1e-17)
# Baby-step sizes L of the series; a series of size L sums L^2 terms.
_SERIES_SIZES = 2 ** np.arange(1, 7)
_SERIES_TERMS = _SERIES_SIZES**2
# The complement 1 - I_y(b, a) is used only where I_y(b, a) <= this, so
# that the subtraction magnifies I_y's rounding error at most 1/(1 - it)-fold.
_COMPLEMENT_LIMIT = 0.9
_TINY, _BELOW_ONE = np.finfo(float).tiny, np.nextafter(1.0, 0.0)


def betainc(a, b: float, x) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) for a >= 1, 0 < b <= 1 and
    0 <= x <= 1; a and x broadcast, b is a scalar.

    One of two power series in z, with c_0 = 1 (the direct one has positive
    terms):

    - direct, z = x: I = x^a / (a B(a, b)) sum_k c_k z^k,
      c_k = (1-b)_k / k! a / (a + k);
    - complement, z = y = 1 - x: I = 1 - y^b / (b B(a, b)) sum_k c_k z^k,
      c_k = (1-a)_k / k! b / (b + k).

    The complement is taken where it needs fewer terms and the bound
    I_y(b, a) <= (a y)^b / Gamma(1 + b) keeps I_y(b, a) <= 0.9, so that
    I >= 0.1, and wherever the direct series would need more than 4096
    terms. A series is summed as L blocks of L terms (baby-step/giant-step),
    with L the smallest of ``_SERIES_SIZES`` whose L^2 terms bring the
    element's tail below 1e-17 of the sum. Elements of one size are summed
    together, each pairwise in an order fixed by L, so that an element's
    value depends on its own a and x only.
    """
    a = np.asarray(a, dtype=float)
    b = float(b)
    shape = np.broadcast(a, x).shape
    ua = np.sort(a, axis=None)  # repeated values are harmless
    if not (0.0 < b <= 1.0 and ua[0] >= 1.0):
        raise ValueError(f"need a >= 1 and 0 < b <= 1, got min(a)={ua[0]}, b={b}")
    U = ua.size
    rows = np.empty(shape, dtype=np.intp)
    rows[...] = np.searchsorted(ua, a)
    rows = rows.ravel()
    xs = np.empty(shape)
    xs[...] = x
    x = xs.ravel()
    if x.size == 0:
        return xs
    if not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError("need 0 <= x <= 1")
    ae = ua[rows]
    if b == 1.0:
        return np.power(x, ae).reshape(shape)
    comp, code = _series_choice(ua, ae, rows, b, x)
    z = np.where(comp, 1.0 - x, x)
    cols = rows + U * comp
    # row k: a (1-b)_k / (k! (a + k)) in the U direct columns, then
    # b (1-a)_k / (k! (b + k)) in the U complement columns
    K = int(_SERIES_TERMS[code.max()])
    k = np.arange(1.0, K)
    table = np.empty((2 * U, K))
    table[:, 0] = 1.0
    table[:U, 1:] = (k - b) / k
    table[U:, 1:] = (k - ua[:, None]) / k
    np.cumprod(table, axis=1, out=table)
    k = np.arange(K, dtype=float)
    table[:U] *= ua[:, None] / (ua[:, None] + k)
    table[U:] *= b / (b + k)
    table = table.T.copy()
    S = np.empty(x.size)
    for c in np.flatnonzero(np.bincount(code)):
        sel = np.flatnonzero(code == c)
        S[sel] = _series(table, cols[sel], z[sel], int(_SERIES_SIZES[c]))
    g = np.array([_gamma_ratio(v, b) for v in ua])
    prefactor = np.concatenate([g, g * ua / b])
    v = np.power(z, np.where(comp, b, ae)) * prefactor[cols] * S
    return np.where(comp, 1.0 - v, v).reshape(shape)


def _series_choice(ua: np.ndarray, ae: np.ndarray, rows: np.ndarray, b: float, x: np.ndarray):
    """Per element of ``betainc`` (b < 1): whether the complement series is
    used, and the index into ``_SERIES_SIZES`` of its size; ae = ua[rows]."""
    y = 1.0 - x
    # logs of x and y kept finite and negative at x = 0 and x = 1
    lx, ly = np.log(np.clip(np.stack([x, y]), _TINY, _BELOW_ONE))
    # tails: direct (1 - b) x^K / (1 - x), as (1-b)_k / k! <= 1 - b for
    # k >= 1; complement 2^(ceil(a) - 1) y^K / x^a, as |(1-a)_k / k!| <=
    # 2^(ceil(a) - 1) and the complement sum is >= x^(a-1)
    log_m = (np.ceil(ua) - 1.0) * math.log(2.0)
    direct = (_LOG_TAIL - math.log1p(-b) + ly) / lx
    complement = (_LOG_TAIL - log_m[rows] + ae * lx) / ly
    comp = (ae * y <= (_COMPLEMENT_LIMIT * math.gamma(1.0 + b)) ** (1.0 / b)) & (
        complement < direct
    )
    comp |= direct > _SERIES_TERMS[-1]  # direct series too long: complement
    terms = np.where(comp, complement, direct)
    return comp, np.minimum(np.searchsorted(_SERIES_TERMS, terms), _SERIES_SIZES.size - 1)


def _powers(z: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """z^0 .. z^(L-1) as the rows of an (L, n) array, built by doubling,
    and z^L; L is a power of two."""
    P = np.empty((L, z.size))
    P[0] = 1.0
    P[1] = z
    h, zh = 2, z * z
    while h < L:
        np.multiply(P[:h], zh, out=P[h : 2 * h])
        h, zh = 2 * h, zh * zh
    return P, zh


def _series(table: np.ndarray, cols: np.ndarray, z: np.ndarray, L: int) -> np.ndarray:
    """sum over k < L^2 of table[k, cols] z^k for each element: block i
    holds the terms k = i L + j, j < L, so the powers are z^j and (z^L)^i.
    Both sums halve pairwise in an order fixed by L, whatever the number of
    elements."""
    n = z.size
    P, Z = _powers(z, L)
    G, _ = _powers(Z, L)
    T = table[: L * L, cols].reshape(L, L * n)
    T *= P.reshape(1, L * n)
    T = T.reshape(L, L, n)
    while T.shape[1] > 1:
        h = T.shape[1] // 2
        T = T[:, :h] + T[:, h:]
    B = T[:, 0] * G
    while B.shape[0] > 1:
        h = B.shape[0] // 2
        B = B[:h] + B[h:]
    return B[0]


def _gamma_ratio(a: float, b: float) -> float:
    """1 / (a B(a, b)) = Gamma(a + b) / (Gamma(a + 1) Gamma(b)) for a >= 1.

    ``math.gamma`` runs only on (0, 3), where it is good to about 3 ulp (it
    misses by up to 8e-15 for arguments near 10); the rest is the product of
    the ratios of the recurrence Gamma(s + 1) = s Gamma(s).
    """
    n = math.floor(a) - 1
    f = a - n
    r = math.gamma(f + b) / (math.gamma(f + 1.0) * math.gamma(b))
    for i in range(n):
        r *= (f + b + i) / (f + 1.0 + i)
    return r


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
    that no other path loads it.
    """
    import scipy.linalg

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
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


# rows per leaf of the blocked Cholesky factorization, and the fewest rows
# per leaf of a blocked triangular solve
_LEAF = 32
# above this cond of a leaf's Schur complement spd_factor reports no factor
_SPD_COND_LIMIT = 1e40


@dataclass(frozen=True)
class LowerTriangular:
    """Lower-triangular L with the inverses of its diagonal leaves, top to
    bottom. A solve substitutes leaf by leaf: one product with the rows left
    of (or, transposed, below) the leaf and one with the leaf's inverse."""

    L: np.ndarray
    leaf_inverses: tuple[np.ndarray, ...]

    @classmethod
    def unit_block(cls, L: np.ndarray, M: int) -> LowerTriangular:
        """L whose diagonal M x M blocks are the identity and whose number of
        blocks is a power of two. A leaf holds M 2^j rows, at least
        ``_LEAF`` of them or all of L; its inverse comes by doubling: the
        inverse of [[A, 0], [C, D]] is [[A^-1, 0], [-D^-1 C A^-1, D^-1]],
        applied to the diagonal pairs of size h of every leaf at once, from
        h = M (where A and D are the identity) up."""
        m = L.shape[0]
        s = min(m, M << max(0, math.ceil(math.log2(_LEAF / M))))
        n = m // s
        X = np.tril(np.einsum("pipj->pij", L.reshape(n, s, n, s)))
        h = M
        while h < s:
            # the diagonal blocks of size 2h of every leaf, as one writable view
            V = np.einsum("apipj->apij", X.reshape(n, s // (2 * h), 2 * h, s // (2 * h), 2 * h))
            V[..., h:, :h] = -(V[..., h:, :h] @ V[..., :h, :h])
            V[..., h:, :h] = V[..., h:, h:] @ V[..., h:, :h]
            h *= 2
        return cls(L=L, leaf_inverses=tuple(X))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b for b of shape (m,) or (m, k)."""
        L = self.L
        x = np.array(b, dtype=float)
        k = 0
        for inverse in self.leaf_inverses:
            e = k + inverse.shape[0]
            if k:
                x[k:e] -= L[k:e, :k] @ x[:k]
            x[k:e] = inverse @ x[k:e]
            k = e
        return x

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """L^-T b for b of shape (m,) or (m, k)."""
        L = self.L
        x = np.array(b, dtype=float)
        e = L.shape[0]
        for inverse in reversed(self.leaf_inverses):
            k = e - inverse.shape[0]
            if e < L.shape[0]:
                x[k:e] -= L[e:, k:e].T @ x[e:]
            x[k:e] = inverse.T @ x[k:e]
            e = k
        return x


def spd_factor(A: np.ndarray) -> LowerTriangular | None:
    """Lower Cholesky factor of A with its leaf inverses, or None when A is
    not numerically positive definite.

    Left-looking and blocked by leaves of ``_LEAF`` rows. Each leaf's
    Schur complement S comes with the inverse of its factor from one
    ``np.linalg.cholesky`` of [[S, .], [I, c I]]: the lower-left block of
    that factor is L_S^-T, and c, far above ||S^-1||, keeps the trailing
    block positive definite. The columns below the leaf are then one
    product with L_S^-T.
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    L = np.zeros((m, m))
    inverses = []
    for k in range(0, m, _LEAF):
        e = min(k + _LEAF, m)
        n = e - k
        panel = A[k:, k:e] - L[k:, :k] @ L[k:e, :k].T if k else A[:, :e]
        scale = panel[:n].diagonal().max()
        if not scale > 0.0:
            return None
        W = np.zeros((2 * n, 2 * n))
        W[:n, :n] = panel[:n]
        i = np.arange(n, 2 * n)
        W[i, i - n] = 1.0
        W[i, i] = _SPD_COND_LIMIT / scale
        try:
            F = np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            return None
        L[k:e, k:e] = F[:n, :n]
        inverses.append(F[n:, :n].T)
        if e < m:
            L[e:, k:e] = panel[n:] @ F[n:, :n]
    return LowerTriangular(L=L, leaf_inverses=tuple(inverses))


def solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve for SPD matrices and one step of iterative refinement;
    raises SingularMatrixError where ``spd_factor`` finds A not numerically
    positive definite (the solver then re-solves by its dense KKT route)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    factor = spd_factor(A)
    if factor is None:
        raise SingularMatrixError("matrix not numerically positive definite", pivot=math.nan)
    x = factor.solve_transposed(factor.solve(b))
    # near the structured route's limit (reduced Hessian cond about 1e13 at
    # M = 10) the refinement brings J within 1e-11 of the exact solution of
    # the system, from up to 2e-9 off
    return x + factor.solve_transposed(factor.solve(b - A @ x))


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
            f"above {1.0 / _PIVOT_RTOL:.0e}",
            pivot=1.0 / cond,
        )
    return inverse
