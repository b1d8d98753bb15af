"""The manufactured problem of ``manufactured.py``: its closed-form optimum
against mpmath, and the solver against that optimum, through the library
and through a CLI problem file."""

import pytest

from conftest import lu_cost
from manufactured import fields, j_star, problem, problem_file
from wavefocp import cli, solver
from wavefocp.basis import WaveletParams
from wavefocp.solver import discretize, solve_discretized, solve_focp


def _params(k: int, mu: float, basis: str) -> WaveletParams:
    return WaveletParams(k=k, M=4, mu=mu if basis == "ftw" else 1.0)


@pytest.mark.parametrize("a", [-1.0, 4.0, 8.0])
@pytest.mark.parametrize("mu", [0.5, 0.7, 1.0])
def test_j_star_against_40_digit_quadrature(mu, a):
    """The closed-form J* is the integral of the cost at (x*, u*) with the
    problem's targets, by 40-digit tanh-sinh quadrature."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        mu, a = mp.mpf(mu), mp.mpf(a)
        f = fields(mu, a, gamma=mp.gamma)

        def cost(t):
            return ((f["x"](t) - f["rx"](t)) ** 2 + (f["u"](t) - f["ru"](t)) ** 2) / 2

        assert abs(mp.quad(cost, [0, 1]) - j_star(mu, a, gamma=mp.gamma)) <= mp.mpf("1e-30")


@pytest.mark.parametrize("mu", [0.5, 0.7, 0.9])
def test_fields_satisfy_optimality_system(mu):
    """At sample points, with both fractional derivatives by 30-digit
    quadrature (lambda*(1) = 0, so the right-sided RL derivative is the
    right-sided Caputo one): the dynamics, the adjoint equation and the
    control condition hold, with p = q = b = 1 and a = 8."""
    mp = pytest.importorskip("mpmath")

    def kernel_integral(length):
        """The integral of w^-mu mu (length - w)^(mu-1) over [0, length]:
        Gamma(1 - mu) times the Caputo derivative of t^mu at t = length,
        and times the right-sided one of (1 - t)^mu at t = 1 - length.
        Each half is taken in the variable
        that makes it smooth, w = u^(1/(1-mu)) and length - w = u^(1/mu):
        tanh-sinh nodes stop about 1e-30 short of a singular end, which
        would miss 1e-11 of the mass of w^-mu."""
        half = length / 2
        near_zero = mp.quad(lambda u: (length - u ** (1 / (1 - mu))) ** (mu - 1),
                            [0, half ** (1 - mu)]) / (1 - mu)
        near_end = mp.quad(lambda u: (length - u ** (1 / mu)) ** -mu, [0, half**mu]) / mu
        return mu * (near_zero + near_end)

    with mp.workdps(30):
        mu, a = mp.mpf(mu), mp.mpf(8)
        f = fields(mu, a, gamma=mp.gamma)
        scale = 1 / mp.gamma(1 - mu)
        for t in (mp.mpf("0.25"), mp.mpf("0.6")):
            caputo = scale * kernel_integral(t)
            right = scale * kernel_integral(1 - t)
            lam = (1 - t) ** mu
            residuals = (
                caputo - a * f["x"](t) - f["u"](t),
                right - a * lam + (f["x"](t) - f["rx"](t)),
                (f["u"](t) - f["ru"](t)) - lam,
            )
            assert max(abs(r) for r in residuals) <= mp.mpf("1e-25")


@pytest.mark.parametrize("a", [-1.0, 4.0, 8.0])
def test_mu_one_tw_matches_j_star(a):
    """At mu = 1 the Taylor wavelets hold x*, u* and lambda* exactly: J is
    J* to rounding (1.0e-14 relative at most, measured) at k = 1..5."""
    for k in range(1, 6):
        J = solve_focp(problem(1.0, a), _params(k, 1.0, "tw"), diagnostics=False).J_value
        assert J == pytest.approx(j_star(1.0, a), rel=1e-13), k


@pytest.mark.parametrize("basis", ["tw", "ftw"])
@pytest.mark.parametrize("mu", [0.5, 0.7, 0.9])
def test_stable_error_falls_with_k(mu, basis):
    """At a = -1 the J error falls at every level of k = 1..6."""
    errors = [
        abs(solve_focp(problem(mu, -1.0), _params(k, mu, basis), diagnostics=False).J_value
            - j_star(mu, -1.0))
        for k in range(1, 7)
    ]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.7, 0.9])
def test_sweep_below_the_gate_matches_dense_solve(monkeypatch, mu):
    """The manufactured sweep (a in {-4, -1, 1, 2, 4, 6, 8}, k = 1..6, both
    bases), all of it below the range-space route's cond(D) gate (8.5e8 at
    most): J within 1e-9 (relative) of ``np.linalg.solve`` on the assembled
    system (3.5e-11 at most, measured), with no assembly."""
    assemble, assembled = solver.assemble_kkt, []
    monkeypatch.setattr(solver, "assemble_kkt", lambda disc: assembled.append(disc) or assemble(disc))
    for a in (-4.0, -1.0, 1.0, 2.0, 4.0, 6.0, 8.0):
        for k in range(1, 7):
            for basis in ("tw", "ftw"):
                disc = discretize(problem(mu, a), _params(k, mu, basis))
                assert disc.mats.cond_D < solver._RANGE_SPACE_COND_LIMIT
                J = solve_discretized(disc, diagnostics=False).J_value
                assert J == pytest.approx(lu_cost(disc), rel=1e-9), (a, k, basis)
    assert assembled == []


@pytest.mark.parametrize("basis", ["tw", "ftw"])
def test_unstable_dynamics_solved_to_j_star(tmp_path, basis):
    """a = 8, mu 0.7, k = 3 (J* = 9.6785), where a forward shot of the
    dynamics (a null-space elimination of the state) gave J = 197.86 (tw)
    and 15.67 (ftw): the library and
    a CLI run of the problem file give the J of ``np.linalg.solve`` on the
    assembled system within 1e-9 (relative), and J is within 5e-5 of J*
    (2.8e-5 tw and -3.3e-6 ftw, measured)."""
    mu, a, k = 0.7, 8.0, 3
    disc = discretize(problem(mu, a), _params(k, mu, basis))
    J_lu = lu_cost(disc)
    J = solve_discretized(disc, diagnostics=False).J_value
    path = tmp_path / "manufactured.txt"
    path.write_text(problem_file(mu, a), encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["--problem", str(path), "--basis", basis, "--k", str(k), "--M", "4",
                     "--out", str(out)])
    assert code == 0
    row = (out / f"manufactured_{basis}_cost.csv").read_text(encoding="utf-8").splitlines()[1]
    J_cli = float(row.split(",")[-1])
    for value in (J, J_cli):
        assert value == pytest.approx(J_lu, rel=1e-9)
        assert abs(value - j_star(mu, a)) <= 5e-5
