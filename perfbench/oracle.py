"""High-precision references computed independently of wavefocp.

- ``gram_oracle``: the Gram matrix D(mu) of the (fractional) Taylor-wavelet
  basis to at least 40 significant digits, by exact integration in the
  local block coordinate with mpmath.
- ``Example1Exact``: the closed-form optimum of built-in example 1 at
  mu = 1 (x'' = 2x with the free-end condition u(1) = 0).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DIGITS = 40


def _block_moment(c: int, j: int, beta: mpmath.mpf) -> mpmath.mpf:
    """Integral of s**j * (s + c)**beta over s in [0, 1].

    For c > 0 the binomial expansion of (y - c)**j cancels about
    j*log10(2c + 1) + log10(c + 1) digits; the caller's working precision
    covers that loss on top of DIGITS.
    """
    if c == 0:
        return 1 / (j + beta + 1)
    total = mpmath.mpf(0)
    for i in range(j + 1):
        e = i + beta + 1
        total += (
            math.comb(j, i) * mpmath.mpf(-c) ** (j - i)
            * (mpmath.mpf(c + 1) ** e - mpmath.mpf(c) ** e) / e
        )
    return total


def gram_oracle(k: int, M: int, mu: float) -> np.ndarray:
    """D(mu) for WaveletParams(k, M, mu), correct to DIGITS digits.

    On block n the wavelet is 2**((k-1)/2) * sqrt(2m+1) * s**m with
    zeta = ((s + n - 1)/N)**(1/mu), so
    D[(n,m1),(n,m2)] = 2**(k-1) sqrt((2m1+1)(2m2+1)) / (mu N**(beta+1))
                       * integral s**(m1+m2) (s + n - 1)**beta ds,
    beta = 1/mu - 1, and entries across blocks are zero.
    """
    N = 2 ** (k - 1)
    jmax = 2 * M - 2
    lost = jmax * math.log10(2 * N + 1) + math.log10(N + 1)
    out = np.zeros((N * M, N * M))
    with mpmath.workdps(DIGITS + int(math.ceil(lost)) + 10):
        mu_mp = mpmath.mpf(mu)
        beta = 1 / mu_mp - 1
        front = mpmath.mpf(N) / (mu_mp * mpmath.mpf(N) ** (beta + 1))
        for n in range(1, N + 1):
            moments = [_block_moment(n - 1, j, beta) for j in range(jmax + 1)]
            base = (n - 1) * M
            for m1 in range(M):
                for m2 in range(m1, M):
                    val = front * mpmath.sqrt((2 * m1 + 1) * (2 * m2 + 1)) * moments[m1 + m2]
                    out[base + m1, base + m2] = out[base + m2, base + m1] = float(val)
    return out


def gram_rel_err(D: np.ndarray, k: int, M: int, mu: float) -> float:
    """max |D - D_oracle| / max |D_oracle|."""
    ref = gram_oracle(k, M, mu)
    return float(np.abs(D - ref).max() / np.abs(ref).max())


class Example1Exact:
    """Optimal x, u and J of example 1 (p = q = 1, a = -1, b = 1, x0 = 1) at mu = 1.

    x = cosh(r t) + B sinh(r t), u = x' + x, r = sqrt(2), and u(1) = 0 fixes
    B = -(cosh r + r sinh r) / (r cosh r + sinh r) (about -0.97992; the
    CLI's own exact columns use the rounded value -0.98).
    """

    def __init__(self):
        with mpmath.workdps(DIGITS):
            r = mpmath.sqrt(2)
            B = -(mpmath.cosh(r) + r * mpmath.sinh(r)) / (r * mpmath.cosh(r) + mpmath.sinh(r))

            def x(t):
                return mpmath.cosh(r * t) + B * mpmath.sinh(r * t)

            def u(t):
                return (1 + r * B) * mpmath.cosh(r * t) + (r + B) * mpmath.sinh(r * t)

            J = mpmath.quad(lambda t: (x(t) ** 2 + u(t) ** 2) / 2, [0, 1])
        self.B = float(B)
        self.J = float(J)

    def x(self, t: np.ndarray) -> np.ndarray:
        r = math.sqrt(2.0)
        return np.cosh(r * t) + self.B * np.sinh(r * t)

    def u(self, t: np.ndarray) -> np.ndarray:
        r = math.sqrt(2.0)
        return (1 + r * self.B) * np.cosh(r * t) + (r + self.B) * np.sinh(r * t)
