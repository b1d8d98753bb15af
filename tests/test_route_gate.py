"""The route policy from cond(D) 3e11 up, where the dense KKT LU solves:
every J it returns is right, or the solve is refused.

References: ``perfbench/refs.json`` for example 1, the closed-form J* of
``manufactured.py``, and the 40-digit solves of ``route_map.py``.
"""

import json
import warnings
from pathlib import Path

import pytest

import route_map
from conftest import count_assembly
from manufactured import j_star
from manufactured import problem as manufactured_problem
from wavefocp import solver
from wavefocp.basis import WaveletParams
from wavefocp.quadrature import SingularMatrixError

_REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text())


def _discretize(problem, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the cond(D) warning
        return solver.discretize(problem, params)


@pytest.mark.parametrize("M", range(9, 15))
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mu, basis", [(0.9, "tw"), (0.9, "ftw"), (1.0, "tw")])
def test_example1_high_m_j_or_refusal(monkeypatch, mu, basis, k, M):
    """Example 1 at M = 9-14: a returned J is within 1e-7 (relative) of the
    reference, from one KKT assembly from cond(D) 3e11 up and none below;
    any other solve raises SingularMatrixError. The reduced route this
    replaced missed by 5.2e-7 at (3, 12) tw and 2.8e-6 at (1, 14) tw, mu 0.9."""
    params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
    disc = _discretize(route_map.PROBLEMS["example1"](mu), params)
    reference = _REFS["example1_mu1" if mu == 1.0 else "example1_mu0.9"]["J"]
    assembled = count_assembly(monkeypatch)
    try:
        J = solver.solve_discretized(disc, diagnostics=False).J_value
    except SingularMatrixError:
        return
    assert abs(J / reference - 1.0) <= 1e-7
    above = disc.mats.cond_D >= solver._RANGE_SPACE_COND_LIMIT
    assert assembled == ([params.m_hat] if above else [])


def test_manufactured_low_mu_ftw_j_star():
    """a = 8 at (6, 4, 0.2) ftw, where cond(D) 1.4e12 measures block scale
    (block 1 is 3.0e-8 wide): J within 1e-6 (relative) of J* (4.3e-7
    measured; the reduced route missed by 7.3e-6)."""
    mu, a = 0.2, 8.0
    disc = _discretize(manufactured_problem(mu, a), WaveletParams(k=6, M=4, mu=mu))
    J = solver.solve_discretized(disc, diagnostics=False).J_value
    assert abs(J / j_star(mu, a) - 1.0) <= 1e-6


# a slice of ``route_map.py``'s default grid: both sides of the 3e11 gate,
# solves and refusals, and the unstable manufactured a = 8 problem
_SLICE = [
    ("example1", "tw", 0.9, 1, 9), ("manufactured8", "tw", 0.5, 3, 9),
    ("example1", "ftw", 0.9, 1, 9), ("manufactured8", "ftw", 0.7, 2, 9),
    ("manufactured4", "tw", 0.9, 2, 10), ("example2", "ftw", 0.5, 2, 10),
    ("manufactured8", "tw", 0.7, 1, 11), ("example2", "tw", 0.9, 1, 11),
    ("example1", "tw", 0.7, 2, 12),
    # the LU's pivot ratio passes this system, whose u is off by 3.9: the
    # known fault that a perturbation check of the solve is to refuse
    pytest.param("manufactured8", "ftw", 0.5, 1, 11, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="u off by 3.9, returned")),
]


@pytest.mark.parametrize("problem, basis, mu, k, M", _SLICE)
def test_policy_against_40_digit_solve(problem, basis, mu, k, M):
    """The shipped policy on the route map: the range-space route below
    cond(D) 3e11, the dense LU from it up; a returned J within 1e-6 and u
    within 1e-1 (relative) of the 40-digit solve of the same float KKT
    system, and a refusal only where the LU refuses."""
    row = route_map.map_solve(problem, basis, mu, k, M)
    assert row["converged"]
    policy = row["policy"]
    below = row["cond_D"] < solver._RANGE_SPACE_COND_LIMIT
    assert policy["route"] == ("range_space" if below else "dense")
    assert row["routes"][policy["route"]]["verdict"] == policy["verdict"]
    if policy["verdict"] == "solved":
        assert policy["J"] <= 1e-6
        assert policy["u"] <= 1e-1
