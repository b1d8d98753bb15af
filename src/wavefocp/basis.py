"""Taylor wavelets and their fractional-order variant on [0, 1].

The basis functions are dilated/translated normalized monomials
sqrt(2m+1) * s**m composed with zeta -> zeta**mu; mu = 1 gives the plain
Taylor wavelets. Wavelet (n, m), n = 1..N and m = 0..M-1, has the 0-based
flat index (n - 1) M + m: n-major, m-minor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# The least fractional order mu. Below it the Gauss-Jacobi rules of the
# kernel exponent mu - 1 put a node on x = 1 and divide by zero: the build's
# 12-point rule up to mu 1.1e-13 and its 16-point rule up to 2.5e-13, the RL
# integral's 32-point rule up to 1.4e-12.
MIN_ORDER = 1e-11


def check_order(mu: float) -> None:
    if not MIN_ORDER <= mu <= 1.0:
        raise ValueError(f"need {MIN_ORDER:g} <= mu <= 1, got {mu}")


@dataclass(frozen=True)
class WaveletParams:
    """Discretization triple: resolution level k, polynomial count M, order mu."""

    k: int
    M: int
    mu: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k}")
        if self.M < 1:
            raise ValueError(f"need M >= 1, got {self.M}")
        check_order(self.mu)

    @property
    def n_blocks(self) -> int:
        return 2 ** (self.k - 1)

    @property
    def m_hat(self) -> int:
        return self.n_blocks * self.M

    def breakpoints(self) -> np.ndarray:
        """Support boundaries ((n/2^(k-1))**(1/mu)), including 0 and 1."""
        edges = np.arange(self.n_blocks + 1, dtype=float) / self.n_blocks
        return edges ** (1.0 / self.mu)


def support_interval(params: WaveletParams, n: int) -> tuple[float, float]:
    """Support [lo, hi) of block n; the blocks tile [0, 1)."""
    if not 1 <= n <= params.n_blocks:
        raise IndexError(f"n must be in 1..{params.n_blocks}, got {n}")
    bp = params.breakpoints()
    return float(bp[n - 1]), float(bp[n])


def local_basis_values(
    params: WaveletParams, zetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Owning block and the M nonzero wavelet values at each point.

    Returns (blocks, vals): the 0-based block of every point and an
    (M, len(zetas)) array whose column j holds psi_{blocks[j]+1, m}(zetas[j])
    for m = 0..M-1. Blocks come from ``params.breakpoints()`` and are
    half-open: a point on an interior breakpoint goes to the block on its
    right by construction, and zeta = 1 to the closed last block.
    """
    zetas = np.asarray(zetas, dtype=float)
    if not np.all((zetas >= 0.0) & (zetas <= 1.0)):
        raise ValueError("all points must lie in [0, 1]")
    N = params.n_blocks
    blocks = np.minimum(np.searchsorted(params.breakpoints(), zetas, side="right") - 1, N - 1)
    return blocks, local_wavelet_values(params, zetas**params.mu * N - blocks)


def local_wavelet_values(params: WaveletParams, s: np.ndarray) -> np.ndarray:
    """phi_m(s) = 2^((k-1)/2) sqrt(2m+1) s^m for m = 0..M-1 on a new first
    axis: every block's wavelets at the local coordinate s = N zeta^mu - n + 1."""
    s = np.asarray(s, dtype=float)
    m = np.arange(params.M).reshape(-1, *(1,) * s.ndim)
    return 2 ** ((params.k - 1) / 2) * np.sqrt(2 * m + 1.0) * s[None] ** m


def eval_basis_many(params: WaveletParams, zetas: np.ndarray) -> np.ndarray:
    """Basis values at many points; returns an (m_hat, len(zetas)) array."""
    blocks, vals = local_basis_values(params, zetas)
    rows = blocks * params.M + np.arange(params.M)[:, None]
    out = np.zeros((params.m_hat, blocks.size))
    out[rows, np.arange(blocks.size)] = vals
    return out


def eval_basis(params: WaveletParams, zeta: float) -> np.ndarray:
    """The full m_hat-vector of wavelet values at zeta (n-major, m-minor):
    the one-point view of ``eval_basis_many``."""
    return eval_basis_many(params, np.array([zeta], dtype=float))[:, 0]


def monomial_coefficients(params: WaveletParams, n: int, m: int) -> np.ndarray:
    """Coefficients c[s] with psi_{n,m}(zeta) = sum_s c[s] * zeta**(mu*s) on its support."""
    if not 0 <= m < params.M:
        raise IndexError(f"m must be in 0..{params.M - 1}, got {m}")
    support_interval(params, n)  # validates n
    scale = 2 ** ((params.k - 1) / 2) * math.sqrt(2 * m + 1)
    c = np.zeros(m + 1)
    for s in range(m + 1):
        c[s] = scale * math.comb(m, s) * params.n_blocks**s * (1.0 - n) ** (m - s)
    return c
