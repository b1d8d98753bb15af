"""Route map: the solver's routes against a 40-digit solve of the same float
KKT system.

For each (problem, basis, mu, k, M) of the grid, the problem is discretized
and its float KKT system K z = rhs assembled (``solver.assemble_kkt``). Its
solution is refined to 40 digits: each correction is ``np.linalg.solve`` on
K, each residual rhs - K z is summed in mpmath, and the refinement stops at
a correction of at most 1e-28 of the solution (max norms). A solve whose
refinement does not get there within ``_MAX_STEPS`` corrections, or makes
a correction no smaller than the one before, is marked unconverged and
left out of every count.

Then the shipped policy (``solver.solve_discretized``) and each route it
can take (``ROUTES``, called by name) solve the same discretization. Per
solve the map reports cond(D), the route the policy took, and for the
policy and each route the verdict ("solved" or "refused") and the relative
errors of J and of the coefficients of x (C2) and u (U_hat), in the max
norm. A route deleted from the solver is dropped from ``ROUTES``.

Run from the repository root; it prints JSON:

    PYTHONPATH=src python tests/route_map.py > route_map.json
    PYTHONPATH=src python tests/route_map.py --problems example1 --mu 0.9 --k 1,2 --M 12

The default grid (examples 1 and 2 and the manufactured problem at a = 4
and a = 8, mu 0.5, 0.7 and 0.9, both bases, k = 1-3, M = 9-14: 432 solves)
takes about 35 s on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import warnings

import mpmath as mp
import numpy as np

from manufactured import problem as manufactured_problem
from wavefocp import solver
from wavefocp.basis import WaveletParams
from wavefocp.cli import _example_spec
from wavefocp.quadrature import SingularMatrixError

ROUTES = {"range_space": "_range_space_solve", "dense": "_dense_solve"}
PROBLEMS = {
    "example1": lambda mu: _example_spec(1).make_problem(mu),
    "example2": lambda mu: _example_spec(2).make_problem(mu),
    "manufactured4": lambda mu: manufactured_problem(mu, 4.0),
    "manufactured8": lambda mu: manufactured_problem(mu, 8.0),
}
_DIGITS = 40
_STOP = 1e-28
_MAX_STEPS = 40


def refine(K: np.ndarray, rhs: np.ndarray) -> list | None:
    """The solution of K z = rhs to ``_DIGITS`` digits as mpf values, or None
    where the refinement does not converge."""
    try:
        step = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return None
    with mp.workdps(_DIGITS):
        rows = [[(j, mp.mpf(float(v))) for j, v in enumerate(row) if v != 0.0] for row in K]
        z = [mp.mpf(float(v)) for v in step]
        last = np.inf
        for _ in range(_MAX_STEPS):
            residual = [mp.mpf(float(b)) - mp.fdot((v, z[j]) for j, v in row)
                        for b, row in zip(rhs, rows)]
            step = np.linalg.solve(K, np.array([float(r) for r in residual]))
            size = np.abs(step).max()
            if not size < last:  # also NaN
                return None
            last = size
            z = [zi + float(d) for zi, d in zip(z, step)]
            if size <= _STOP * float(max(abs(zi) for zi in z)):
                return z
    return None


def exact_state_and_cost(disc: solver.DiscretizedFocp, z: list) -> tuple[list, list, mp.mpf]:
    """C2 = Pmu^T C_hat + d1, U_hat and J of the refined solution, in mpmath."""
    m, M = disc.params.m_hat, disc.params.M
    with mp.workdps(_DIGITS):
        C_hat, U_hat = z[:m], z[m : 2 * m]
        Pmu = disc.mats.Pmu
        C2 = [mp.fdot(zip(Pmu[:, i].tolist(), C_hat)) + float(disc.d1[i]) for i in range(m)]
        J = (mp.mpf(disc.track_p_const) + disc.track_q_const) / 2
        for W, c, track in ((disc.Wp, C2, disc.wp_track), (disc.Wq, U_hat, disc.wq_track)):
            for n, block in enumerate(W):
                cn = c[n * M : (n + 1) * M]
                Wc = [mp.fdot(zip(row.tolist(), cn)) for row in block]
                J += mp.fdot(zip(cn, Wc)) / 2
            J -= mp.fdot(zip(track.tolist(), c))
    return C2, U_hat, J


def _relative_error(ours: np.ndarray, ref: list) -> float:
    """max |ours - ref| / max |ref|."""
    return float(max(abs(o - r) for o, r in zip(ours.tolist(), ref)) / max(abs(r) for r in ref))


def _errors(C2: np.ndarray, U_hat: np.ndarray, J: float, exact: tuple) -> dict:
    C2_x, U_x, J_x = exact
    with mp.workdps(_DIGITS):
        return {"J": float(abs((J - J_x) / J_x)), "x": _relative_error(C2, C2_x),
                "u": _relative_error(U_hat, U_x)}


def _route_result(disc: solver.DiscretizedFocp, name: str, exact: tuple | None) -> dict:
    try:
        _, U_hat, _, C2 = getattr(solver, name)(disc)
    except SingularMatrixError:
        return {"verdict": "refused"}
    result = {"verdict": "solved"}
    if exact is not None:
        result.update(_errors(C2, U_hat, solver._quadratic_cost(disc, C2, U_hat), exact))
    return result


def _policy(disc: solver.DiscretizedFocp) -> tuple[str, solver.FocpSolution | None, float]:
    """The shipped policy's solve, the route it took (the last route that
    was called) and its time; the solution is None where it refused."""
    taken = []
    originals = {route: getattr(solver, name) for route, name in ROUTES.items()}

    def spy(route):
        def called(d):
            taken.append(route)
            return originals[route](d)
        return called

    for route, name in ROUTES.items():
        setattr(solver, name, spy(route))
    start = time.perf_counter()
    try:
        sol = solver.solve_discretized(disc, diagnostics=False)
    except SingularMatrixError:
        sol = None
    finally:
        elapsed = time.perf_counter() - start
        for route, name in ROUTES.items():
            setattr(solver, name, originals[route])
    return taken[-1], sol, elapsed


def map_solve(problem: str, basis: str, mu: float, k: int, M: int) -> dict:
    """One row of the map."""
    params = WaveletParams(k=k, M=M, mu=1.0 if basis == "tw" else mu)
    row = {"problem": problem, "basis": basis, "mu": mu, "k": k, "M": M, "m_hat": params.m_hat}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the cond(D) warning
        disc = solver.discretize(PROBLEMS[problem](mu), params)
    row["cond_D"] = disc.mats.cond_D
    z = refine(*solver.assemble_kkt(disc))
    row["converged"] = z is not None
    exact = None if z is None else exact_state_and_cost(disc, z)
    route, sol, elapsed = _policy(disc)
    policy = {"route": route, "verdict": "refused" if sol is None else "solved", "time_s": elapsed}
    if sol is not None and exact is not None:
        policy.update(_errors(sol.C2, sol.U_hat, sol.J_value, exact))
    row["policy"] = policy
    row["routes"] = {route: _route_result(disc, name, exact) for route, name in ROUTES.items()}
    return row


def _summary(results: list[dict]) -> dict:
    """Counts over converged solves: refusals, J misses above 1e-6, the
    worst J error, the median u error and u errors above 1e-1."""
    solved = [r for r in results if r["verdict"] == "solved"]
    return {
        "refused": len(results) - len(solved),
        "J_miss_above_1e-6": sum(r["J"] > 1e-6 for r in solved),
        "worst_J": max((r["J"] for r in solved), default=None),
        "median_u": statistics.median(r["u"] for r in solved) if solved else None,
        "u_above_1e-1": sum(r["u"] > 1e-1 for r in solved),
    }


def counts(rows: list[dict]) -> dict:
    """Per side of the cond(D) gate: solves, unconverged solves, and the
    ``_summary`` of the policy and of each route."""
    out = {}
    for side, above in (("below_gate", False), ("above_gate", True)):
        rows_side = [r for r in rows if (r["cond_D"] >= solver._RANGE_SPACE_COND_LIMIT) == above]
        converged = [r for r in rows_side if r["converged"]]
        out[side] = {
            "solves": len(rows_side),
            "unconverged": len(rows_side) - len(converged),
            "policy": _summary([r["policy"] for r in converged]),
            **{route: _summary([r["routes"][route] for r in converged]) for route in ROUTES},
        }
    return out


def main(argv: list[str] | None = None) -> int:
    def numbers(kind):
        return lambda text: [kind(v) for v in text.split(",")]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--problems", type=lambda t: t.split(","), default=list(PROBLEMS))
    parser.add_argument("--bases", type=lambda t: t.split(","), default=["tw", "ftw"])
    parser.add_argument("--mu", type=numbers(float), default=[0.5, 0.7, 0.9])
    parser.add_argument("--k", type=numbers(int), default=[1, 2, 3])
    parser.add_argument("--M", type=numbers(int), default=list(range(9, 15)))
    args = parser.parse_args(argv)
    rows = [map_solve(problem, basis, mu, k, M)
            for problem in args.problems for basis in args.bases
            for mu in args.mu for k in args.k for M in args.M]
    grid = {name: getattr(args, name) for name in ("problems", "bases", "mu", "k", "M")}
    json.dump({"grid": grid, "gate": solver._RANGE_SPACE_COND_LIMIT, "counts": counts(rows),
               "solves": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
