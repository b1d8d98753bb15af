"""Arbitrary-precision oracle for the fractional integration matrix P^o.

P^o is the least-squares projection of the Riemann-Liouville integral of
each wavelet onto the basis: P = B D^-1 with

    B[i, j] = int_0^1 (I^o psi_i)(z) psi_j(z) dz,   D[i, j] = int_0^1 psi_i psi_j dz.

Everything is computed with mpmath, without wavefocp:

- psi_{n,m}(z) = 2^((k-1)/2) sqrt(2m+1) (N z^mu - n + 1)^m on
  [((n-1)/N)^(1/mu), (n/N)^(1/mu)), N = 2^(k-1), expanded in powers z^(mu s);
- the inner RL integral of t^q over [a, b] in closed form,
  (1/Gamma(o)) int_a^b (z-t)^(o-1) t^q dt = z^(q+o) B(a/z, b/z; q+1, o) / Gamma(o),
  with B the unregularized incomplete beta function;
- the outer integral over each block by ``mpmath.quad`` (tanh-sinh, which
  copes with the (z - breakpoint)^o behaviour at the block ends);
- D in closed form from the same power expansion.

At k=2, M=4 and 30 digits it takes about 1.5 s on one core of an Intel
Xeon x86_64 VM. ``b_block_oracle`` gives one M x M block of B at any k
(about 0.1-0.5 s per block at M=4, 1-1.5 s at M=8). The power expansion
cancels here too, by more digits as k and M grow: in float64 it costs the
closed form 1.4e-12 at k=5 and 3.3e-11 at k=7, M=4. At k=5, M=8 even 30
digits are not enough (the 30-digit oracle is 1.6e-12 off on block
(16, 16) and 6.7e-12 on (15, 16)); pass ``dps=50`` there.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np


def _basis(k: int, M: int, mu) -> tuple[list, list, list]:
    """Breakpoints bp, powers q_s = mu s and power coefficients coef.

    coef[n][m][s]: psi_{n+1,m}(z) = sum_s coef[n][m][s] z^(q_s) on block n+1.
    Call inside the working precision.
    """
    N = 2 ** (k - 1)
    bp = [(mp.mpf(n) / N) ** (1 / mu) for n in range(N + 1)]
    q = [mu * s for s in range(M)]
    coef = [
        [
            [mp.sqrt(mp.mpf(N)) * mp.sqrt(2 * m + 1) * mp.binomial(m, s)
             * mp.mpf(N) ** s * mp.mpf(-n) ** (m - s) if s <= m else mp.mpf(0)
             for s in range(M)]
            for m in range(M)
        ]
        for n in range(N)
    ]
    return bp, q, coef


def _b_block(bp: list, q: list, coef: list, order, n: int, nb: int) -> list:
    """The M x M block of B between source block n+1 and target block nb+1."""
    M = len(q)
    lo, hi = bp[n], bp[n + 1]
    cache: dict = {}

    def terms(z):
        """I^o of t^(q_s) restricted to block n+1, at z beyond its left end."""
        if z not in cache:
            up = min(z, hi)
            cache[z] = [
                z ** (qs + order) * mp.betainc(qs + 1, order, lo / z, up / z)
                / mp.gamma(order)
                for qs in q
            ]
        return cache[z]

    # moments[s][u] = int over block nb+1 of I^o(t^(q_s) on block n+1) z^(q_u)
    moments = [
        [mp.quad(lambda z: terms(z)[s] * z ** q[u], [bp[nb], bp[nb + 1]])
         for u in range(M)]
        for s in range(M)
    ]
    return [
        [mp.fsum(coef[n][m][s] * coef[nb][t][u] * moments[s][u]
                 for s in range(M) for u in range(M))
         for t in range(M)]
        for m in range(M)
    ]


def b_block_oracle(
    k: int, M: int, mu: str, order: str, n: int, b: int, dps: int = 30
) -> np.ndarray:
    """The M x M block B_{n,b} (1-based blocks, b >= n) of the unprojected
    matrix B[i, j] = int_0^1 (I^order psi_i) psi_j dz, rounded to float.

    Ours is ``Pmu @ D``. mu and order are decimal strings.
    """
    with mp.workdps(dps):
        bp, q, coef = _basis(k, M, mp.mpf(mu))
        block = _b_block(bp, q, coef, mp.mpf(order), n - 1, b - 1)
        return np.array([[float(v) for v in row] for row in block])


def pmu_oracle(k: int, M: int, mu: str, order: str, dps: int = 30) -> np.ndarray:
    """The m_hat x m_hat matrix P^order of the basis (k, M, mu), rounded to float.

    mu and order are decimal strings, so that they are exact at any precision.
    """
    with mp.workdps(dps):
        order = mp.mpf(order)
        bp, q, coef = _basis(k, M, mp.mpf(mu))
        N = len(bp) - 1
        m_hat = N * M
        B = mp.zeros(m_hat, m_hat)
        D = mp.zeros(m_hat, m_hat)
        for n in range(N):
            lo, hi = bp[n], bp[n + 1]
            for s in range(M):
                for u in range(M):
                    e = q[s] + q[u] + 1
                    mom = (hi**e - lo**e) / e
                    for m in range(M):
                        for t in range(M):
                            D[n * M + m, n * M + t] += coef[n][m][s] * coef[n][t][u] * mom
            for nb in range(n, N):
                block = _b_block(bp, q, coef, order, n, nb)
                for m in range(M):
                    for t in range(M):
                        B[n * M + m, nb * M + t] = block[m][t]
        P = B * mp.inverse(D)
        return np.array([[float(P[i, j]) for j in range(m_hat)] for i in range(m_hat)])
