"""Seeded problem generator and the built-in reference problems.

A generated problem is valid by construction: q is a positive constant plus
nonnegative terms, p is a sum of nonnegative terms, and b is a signed
positive constant plus nonnegative terms, so the checks in ``FocpProblem``
(q > 0, p >= 0, b != 0 on [0, 1]) always pass. Every term is written in the
``wavefocp.expressions`` grammar (literals, t, pi, + - * / ^, unary minus,
gamma, cosh, sinh, exp) and has a NumPy twin, so one draw gives both a
problem file for the CLI and callables for the library.

Each problem uses every term kind exactly once, shuffled over p, q, a and
b, and only the coefficients and signs are random. Evaluating a gamma term
costs far more than the others, so a random mix of kinds would make the
cost of an op depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

Fn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Term:
    """One nonnegative term on [0, 1]: text in the grammar plus a NumPy callable."""

    text: str
    fn: Fn


def _num(x: float) -> str:
    return format(x, ".4g")


KINDS = ("pow", "exp", "cosh", "sinh", "gamma", "ratio")


def _nonneg_term(rng: random.Random, kind: str) -> Term:
    c = round(rng.uniform(0.2, 2.0), 3)
    if kind == "pow":
        e = round(rng.uniform(0.5, 3.0), 2)
        return Term(f"{_num(c)}*t^{_num(e)}", lambda t: c * t**e)
    if kind == "exp":
        r = round(rng.uniform(-2.0, 2.0), 2)
        return Term(f"{_num(c)}*exp({_num(r)}*t)", lambda t: c * np.exp(r * t))
    if kind == "cosh":
        d = rng.randint(1, 4)
        return Term(f"{_num(c)}*cosh(pi*t/{d})", lambda t: c * np.cosh(math.pi * t / d))
    if kind == "sinh":
        r = round(rng.uniform(0.5, 2.0), 2)
        return Term(f"{_num(c)}*sinh({_num(r)}*t)", lambda t: c * np.sinh(r * t))
    if kind == "gamma":
        g = round(rng.uniform(0.5, 2.0), 2)
        return Term(
            f"{_num(c)}*gamma(t + {_num(g)})",
            lambda t: c * np.vectorize(math.gamma)(t + g),
        )
    return Term(f"{_num(c)}/(1 + t^2)", lambda t: c / (1.0 + t**2))


def _const(c: float) -> Term:
    return Term(_num(c), lambda t: c * np.ones_like(t))


def _sum(terms: list[Term], sign: float = 1.0) -> Term:
    text = " + ".join(term.text for term in terms)
    fns = [term.fn for term in terms]

    def fn(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return sign * sum(f(t) for f in fns)

    return Term(text if sign > 0 else f"-({text})", fn)


@dataclass(frozen=True)
class DrawnProblem:
    """Coefficient functions p, q, a, b and the initial state x0."""

    p: Term
    q: Term
    a: Term
    b: Term
    x0: float

    def problem_file(self) -> str:
        """Problem-file text for ``wavefocp --problem``."""
        return (
            "# seeded problem (valid by construction)\n"
            f"p = {self.p.text}\nq = {self.q.text}\n"
            f"a = {self.a.text}\nb = {self.b.text}\nx0 = {_num(self.x0)}\n"
        )


def draw_problem(rng: random.Random) -> DrawnProblem:
    """Random valid problem; x0 is bounded away from 0 so the cost is positive."""
    kinds = list(KINDS)
    rng.shuffle(kinds)
    terms = [_nonneg_term(rng, kind) for kind in kinds]

    def const(lo: float, hi: float) -> Term:
        return _const(round(rng.uniform(lo, hi), 3))

    return DrawnProblem(
        p=_sum(terms[0:2]),
        q=_sum([const(0.3, 2.0), terms[2]]),
        a=_sum([const(-2.0, 2.0), *terms[3:5]], rng.choice([-1.0, 1.0])),
        b=_sum([const(0.3, 2.0), terms[5]], rng.choice([-1.0, 1.0])),
        x0=round(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5), 3),
    )


def _ones(t: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(t, dtype=float))


def example1_functions() -> dict:
    """Built-in example 1: p = q = 1, a = -1, b = 1, x0 = 1."""
    return dict(p_fn=_ones, q_fn=_ones, a_fn=lambda t: -_ones(t), b_fn=_ones, x0=1.0)


def example3_functions(mu: float) -> tuple[dict, Fn, Fn]:
    """Built-in example 3 plus its exact solution x = t^mu, u = t^mu + Gamma(mu+1), J = 0."""
    g = math.gamma(mu + 1.0)

    def x(t):
        return np.asarray(t, dtype=float) ** mu

    def u(t):
        return np.asarray(t, dtype=float) ** mu + g

    kwargs = dict(
        p_fn=_ones, q_fn=_ones, a_fn=lambda t: -_ones(t), b_fn=_ones,
        x0=0.0, track_x=x, track_u=u,
    )
    return kwargs, x, u
