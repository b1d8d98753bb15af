"""Riemann-Liouville integral on black-box callables.

It is deliberately independent of the wavelet machinery, so it can check
solver output: the solver's dynamics defect integrates the expanded
D^mu x with it. It takes one point or a 1-D array of points. A batched
call shares its Gauss-Legendre segments, and so its nodes, across the
points: the integrand is called once per call, not once per segment and
point.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .basis import check_order
from .quadrature import gamma, gauss_jacobi_right, gauss_legendre

_DEFAULT_POINTS = 32


def _weighted_integral(
    f: Callable[[np.ndarray], np.ndarray],
    exponent: float,
    zeta: np.ndarray,
    breakpoints: Sequence[float] | None,
    n_points: int,
    merge_fraction: float = 0.0,
) -> np.ndarray:
    """Integral of (z - tau)^exponent * f(tau) over [0, z] at every z in
    the 1-D array zeta.

    Each point splits [0, z] at 0 and at the breakpoints b with
    0 < b < z. The segment touching z uses a Gauss-Jacobi rule that
    absorbs the endpoint singularity; earlier segments evaluate the
    (there finite) kernel directly under Gauss-Legendre. Breakpoints
    above (1 - merge_fraction) * z are absorbed into the Jacobi segment:
    a Gauss-Legendre segment ending just below z would see a
    near-singular kernel it cannot resolve.

    The breakpoints a point keeps are a prefix of the sorted positive
    breakpoints, so all points share one list of S Legendre segments and
    differ only in how many of them they use. f is called once, on the
    S * n_points shared Legendre nodes and the n_points Jacobi nodes of
    every point; a (points x S * n_points) kernel, zero past each point's
    own segments, combines the Legendre values.
    """
    cuts = np.sort(np.asarray([] if breakpoints is None else breakpoints, dtype=float))
    cuts = cuts[cuts > 0.0]
    # repeats dropped by hand: np.unique imports numpy.ma under NumPy 2
    cuts = cuts[cuts != np.concatenate(([0.0], cuts[:-1]))]
    # a point z keeps the breakpoints b < z with b <= (1 - merge_fraction) z,
    # so its count in used says how many leading segments it takes
    used = np.minimum(
        np.searchsorted(cuts, zeta, side="left"),
        np.searchsorted(cuts, (1.0 - merge_fraction) * zeta, side="right"),
    )
    edges = np.concatenate([[0.0], cuts[: used.max(initial=0)]])
    legendre = gauss_legendre(n_points, edges[:-1, None], edges[1:, None])
    legendre_nodes = legendre.nodes.ravel()
    jacobi = gauss_jacobi_right(n_points, edges[used][:, None], zeta[:, None], exponent)

    values = np.asarray(
        f(np.concatenate([legendre_nodes, jacobi.nodes.ravel()])), dtype=float
    )
    # built in place, so the call holds one (points x shared nodes) array
    on_segment = np.arange(legendre_nodes.size) < n_points * used[:, None]
    kernel = zeta[:, None] - legendre_nodes
    np.power(kernel, exponent, out=kernel, where=on_segment)
    kernel *= legendre.weights.ravel()
    kernel[~on_segment] = 0.0
    jacobi_values = values[legendre_nodes.size :].reshape(jacobi.nodes.shape)
    jacobi_part = (jacobi.weights * jacobi_values).sum(axis=1)
    return kernel @ values[: legendre_nodes.size] + jacobi_part


def rl_integral(
    f: Callable[[np.ndarray], np.ndarray],
    mu: float,
    zeta: float | np.ndarray,
    breakpoints: Sequence[float] | None = None,
    n_points: int = _DEFAULT_POINTS,
    merge_fraction: float = 0.0,
) -> float | np.ndarray:
    """Riemann-Liouville integral of order mu of f at zeta: a float for a
    scalar zeta, an array for a 1-D array of points."""
    check_order(mu)
    points = np.asarray(zeta, dtype=float)
    if points.ndim > 1:
        raise ValueError(f"zeta must be a scalar or a 1-D array, got shape {points.shape}")
    if np.any(points <= 0.0):
        raise ValueError(f"need zeta > 0, got {zeta}")
    weighted = _weighted_integral(
        f, mu - 1.0, np.atleast_1d(points), breakpoints, n_points, merge_fraction
    )
    values = weighted / gamma(mu)
    return float(values[0]) if points.ndim == 0 else values
