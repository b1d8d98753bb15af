"""A manufactured linear-quadratic FOCP whose optimum is known in closed form.

The method of manufactured solutions (Roache, J. Fluids Eng. 124 (2002),
4-10): pick the optimal state x* and multiplier lambda*, and choose the
tracking targets that make them satisfy the continuous optimality system

    D^mu x = a x + b u,  x(0) = x0        (Caputo dynamics)
    D_{1-}^mu lambda = a lambda - p (x - rx),  lambda(1) = 0
    q (u - ru) = b lambda

where D_{1-}^mu is the right-sided Riemann-Liouville derivative (Agrawal,
Nonlinear Dynamics 38 (2004)). The problem is convex, so x* and
u* = (D^mu x* - a x*) / b are its minimizer.

Here x* = 1 + t^mu and lambda* = (1 - t)^mu, with p = q = b = 1 and a
constant a. Both derivatives are the constant Gamma(1 + mu), so

    u*  = Gamma(1 + mu) - a x*
    ru  = u* - lambda*
    rx  = x* + Gamma(1 + mu) - a lambda*
    J*  = 1/2 [Gamma(1+mu)^2 - 2 a Gamma(1+mu)/(mu+1) + (a^2+1)/(2 mu+1)].

For a of a few units and more the dynamics are strongly unstable, which is
where a forward shot of the dynamics loses the optimum. Every field is in
the problem-file grammar, so the same problem also runs through the CLI.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from wavefocp.solver import FocpProblem


def fields(mu, a, gamma: Callable = math.gamma) -> dict[str, Callable]:
    """x*, u*, rx and ru as functions of t, for any number type with ``**``
    (floats, NumPy arrays, mpmath numbers; pass ``mpmath.gamma`` for the
    last)."""
    g = gamma(1 + mu)

    def x_star(t):
        return 1 + t**mu

    def lam(t):
        return (1 - t) ** mu

    def u_star(t):
        return g - a * x_star(t)

    return {
        "x": x_star,
        "u": u_star,
        "rx": lambda t: x_star(t) + g - a * lam(t),
        "ru": lambda t: u_star(t) - lam(t),
    }


def j_star(mu, a, gamma: Callable = math.gamma):
    """The optimal cost, in the number type of mu, a and gamma."""
    g = gamma(1 + mu)
    return (g * g - 2 * a * g / (mu + 1) + (a * a + 1) / (2 * mu + 1)) / 2


def problem(mu: float, a: float) -> FocpProblem:
    f = fields(mu, a)

    def as_array(fn):
        return lambda t: fn(np.asarray(t, dtype=float))

    return FocpProblem(
        p_fn=lambda t: np.ones_like(t), q_fn=lambda t: np.ones_like(t),
        a_fn=lambda t: np.full(np.shape(t), float(a)), b_fn=lambda t: np.ones_like(t),
        x0=1.0, mu=mu, track_x=as_array(f["rx"]), track_u=as_array(f["ru"]),
    )


def problem_file(mu: float, a: float) -> str:
    """The same problem as a CLI problem file, with the exact state and
    control, at the one order mu."""
    m, g, a = (format(v, ".17g") for v in (mu, 1.0 + mu, a))
    return "\n".join([
        "p = 1",
        "q = 1",
        f"a = {a}",
        "b = 1",
        "x0 = 1",
        f"rx = 1 + t^{m} + gamma({g}) - ({a})*(1 - t)^{m}",
        f"ru = gamma({g}) - ({a})*(1 + t^{m}) - (1 - t)^{m}",
        f"exact_x = 1 + t^{m}",
        f"exact_u = gamma({g}) - ({a})*(1 + t^{m})",
        f"mu = {m}",
        "",
    ])
