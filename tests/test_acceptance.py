"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line and
asserts at the stated tolerance. Published reference values are asserted
wherever the method, computed exactly, gives them. Two are shown to be
inexact and are replaced by independent references, while the published
values stay in conftest.py as the record:

- the whole published order-0.9 matrix of the stretched basis (mu = 0.9),
  which is 5.7e-3 from the exact matrix; criterion 1 checks all 64 entries
  against an arbitrary-precision oracle (tests/pmu_oracle.py) and the
  block-1 corner against its closed form;
- the cost cell (mu = 0.5, stretched basis), 6.3e-3 above the converged
  optimum; criterion 2 checks it against that optimum (COST_TABLE_ERRATA).
"""

import dataclasses
import math
import time

import numpy as np

from conftest import (
    COST_TABLE,
    COST_TABLE_ERRATA,
    D1_BLOCK,
    D09_BLOCK1,
    D09_BLOCK2,
    P09_BLOCK1_CORNER,
    P09_FRACTIONAL,
    P09_FRACTIONAL_ORACLE,
    P09_PLAIN,
    check_inversion_identity,
    cost_via_product_chain,
    project,
)
from paper_bounds import convergence_sweep, lemma2_bound
from wavefocp.basis import (
    WaveletParams,
    eval_basis_many,
    monomial_coefficients,
    support_interval,
)
from wavefocp.cli import main
from wavefocp.opmats import build_operational_matrices, quadrature_nodes
from wavefocp.quadrature import block_diagonal, gamma
from wavefocp.solver import (
    FocpProblem,
    discretize,
    reconstruct_many,
    solve_discretized,
    solve_focp,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _example1(mu: float) -> FocpProblem:
    return FocpProblem(
        p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
        a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
        x0=1.0, mu=mu,
    )


def _example3(mu: float) -> FocpProblem:
    g = gamma(mu + 1.0)
    return FocpProblem(
        p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
        a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
        x0=0.0, mu=mu,
        track_x=lambda z: np.asarray(z, dtype=float) ** mu,
        track_u=lambda z: np.asarray(z, dtype=float) ** mu + g,
    )


def _first_order_by_antiderivatives(params: WaveletParams, mats) -> np.ndarray:
    """P1 = B D^-1 with B[i, j] = int_0^1 (int_0^z psi_i) psi_j dz in closed
    form, from the expansion psi_{n,m} = sum_s c_s zeta^(mu s) on block n.

    A reference that shares no rule with the library's integration
    matrices; at k = 2, M = 4 the expansion does not cancel.
    """
    mu = params.mu

    def expansion(i):
        block, m = divmod(i, params.M)
        return support_interval(params, block + 1), monomial_coefficients(
            params, block + 1, m
        )

    def moment(j, p, a, b):
        """Integral of zeta**p psi_j over [a, b], clipped to psi_j's support."""
        (lo, hi), coefs = expansion(j)
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            return 0.0
        return sum(
            c * (b ** (p + mu * s + 1.0) - a ** (p + mu * s + 1.0)) / (p + mu * s + 1.0)
            for s, c in enumerate(coefs)
        )

    m_hat = params.m_hat
    B = np.zeros((m_hat, m_hat))
    for i in range(m_hat):
        (lo, hi), coefs = expansion(i)

        def F(z):  # antiderivative of psi_i's expansion, zero at z = 0
            return sum(c * z ** (mu * s + 1.0) / (mu * s + 1.0) for s, c in enumerate(coefs))

        for j in range(m_hat):
            n_i, n_j = i // params.M, j // params.M
            if n_j == n_i:
                B[i, j] = sum(
                    c / (mu * s + 1.0) * moment(j, mu * s + 1.0, lo, hi)
                    for s, c in enumerate(coefs)
                ) - F(lo) * moment(j, 0.0, lo, hi)
            elif n_j > n_i:
                B[i, j] = (F(hi) - F(lo)) * moment(j, 0.0, 0.0, 1.0)
    return mats.solve_D(B.T).T


def test_criterion_1_golden_matrices():
    start = time.perf_counter()
    frac = build_operational_matrices(WaveletParams(k=2, M=4, mu=0.9), frac_order=0.9)
    plain = build_operational_matrices(WaveletParams(k=2, M=4, mu=1.0), frac_order=0.9)
    elapsed = time.perf_counter() - start

    d09_err = max(
        np.abs(frac.D[:4, :4] - D09_BLOCK1).max(),
        np.abs(frac.D[4:, 4:] - D09_BLOCK2).max(),
    )
    d1_err = max(
        np.abs(plain.D[:4, :4] - D1_BLOCK).max(),
        np.abs(plain.D[4:, 4:] - D1_BLOCK).max(),
    )
    p_plain_err = np.abs(plain.Pmu - P09_PLAIN).max()

    p_frac_err = np.abs(frac.Pmu - P09_FRACTIONAL_ORACLE).max()
    rows, cols = P09_BLOCK1_CORNER.shape
    corner_err = np.abs(frac.Pmu[:rows, :cols] - P09_BLOCK1_CORNER).max()
    published_gap = np.abs(P09_FRACTIONAL - P09_FRACTIONAL_ORACLE).max()

    ok = (
        d09_err <= 5e-6 and d1_err <= 5e-6 and p_plain_err <= 5e-5
        and p_frac_err <= 1e-9 and corner_err <= 1e-9 and elapsed < 1.0
    )
    _report(
        "criterion 1 (golden matrices)", ok,
        f"D(0.9) err {d09_err:.1e} (tol 5e-6); D(1) err {d1_err:.1e} (tol 5e-6); "
        f"plain P^0.9 err {p_plain_err:.1e} (tol 5e-5); "
        f"stretched P^0.9 err vs oracle {p_frac_err:.1e} (tol 1e-9), "
        f"vs closed-form corner {corner_err:.1e} (tol 1e-9); "
        f"published stretched P^0.9 is {published_gap:.1e} from the oracle "
        f"(erratum, not asserted); {elapsed:.2f}s",
    )


def test_criterion_2_cost_table():
    failures = []
    for mu, (j_plain, j_frac) in COST_TABLE.items():
        tol = 1e-5 if mu == 1.0 else (1e-4 if mu >= 0.95 else 2e-3)
        for basis_mu, published, label in (
            (1.0, j_plain, "plain"), (mu, j_frac, "stretched"),
        ):
            expected = COST_TABLE_ERRATA.get((mu, label), published)
            sol = solve_focp(
                _example1(mu), WaveletParams(k=2, M=4, mu=basis_mu),
                diagnostics=False,
            )
            err = abs(sol.J_value - expected)
            if err > tol:
                failures.append(f"mu={mu} {label}: err {err:.2e} > {tol:.0e}")
    errata = ", ".join(f"mu={mu} {label}" for mu, label in COST_TABLE_ERRATA)
    _report(
        "criterion 2 (cost table)", not failures,
        "; ".join(failures) if failures
        else f"all 12 cells within tolerance ({errata} against the converged optimum)",
    )


def test_criterion_3_pointwise_errors():
    sol = solve_focp(_example1(1.0), WaveletParams(k=2, M=4, mu=1.0),
                     diagnostics=False)
    grid = np.arange(1, 10) / 10.0
    x, u = reconstruct_many(sol, grid)
    sqrt2, varpi = math.sqrt(2.0), -0.98
    ex = np.cosh(sqrt2 * grid) + varpi * np.sinh(sqrt2 * grid)
    eu = (1 + sqrt2 * varpi) * np.cosh(sqrt2 * grid) + (sqrt2 + varpi) * np.sinh(
        sqrt2 * grid
    )
    err_x = np.abs(x - ex).max()
    err_u = np.abs(u - eu).max()
    ok = err_x <= 2e-4 and err_u <= 5e-4
    _report(
        "criterion 3 (pointwise errors)", ok,
        f"max state err {err_x:.2e} (tol 2e-4); max control err {err_u:.2e} (tol 5e-4)",
    )


def test_criterion_4_exact_tracking():
    failures = []
    grid = np.linspace(0.0, 1.0, 200)
    for mu in (0.5, 0.8, 0.95):
        sol = solve_focp(_example3(mu), WaveletParams(k=2, M=4, mu=mu),
                         diagnostics=False)
        x, u = reconstruct_many(sol, grid)
        err_x = np.abs(x - grid**mu).max()
        err_u = np.abs(u - grid**mu - gamma(mu + 1.0)).max()
        if abs(sol.J_value) > 1e-8 or err_x > 1e-6 or err_u > 1e-6:
            failures.append(
                f"mu={mu}: J {sol.J_value:.1e}, err_x {err_x:.1e}, err_u {err_u:.1e}"
            )
    _report(
        "criterion 4 (exact tracking recovery)", not failures,
        "; ".join(failures) if failures else "J <= 1e-8 and sup errors <= 1e-6",
    )


def test_criterion_5_inversion_identity():
    grid = np.linspace(0.1, 1.0, 10)
    worst = 0.0
    for mu in (0.5, 0.7, 0.9):
        families = [
            (lambda z: np.ones_like(np.atleast_1d(z) * 1.0),
             lambda z: np.zeros_like(np.atleast_1d(z) * 1.0)),
            (lambda z: np.atleast_1d(z) * 1.0,
             lambda z: np.ones_like(np.atleast_1d(z) * 1.0)),
            (lambda z: np.atleast_1d(z) ** 2, lambda z: 2.0 * np.atleast_1d(z)),
            (lambda z: np.atleast_1d(z) ** mu,
             lambda z: mu * np.atleast_1d(z) ** (mu - 1.0)),
        ]
        for f, fp in families:
            worst = max(worst, check_inversion_identity(f, fp, mu, grid))
    ok = worst <= 1e-6
    _report(
        "criterion 5 (inversion identity)", ok,
        f"max residual {worst:.2e} (tol 1e-6)",
    )


def test_criterion_6_property_suite():
    failures = []

    # order-one coincidence: the fractional integration matrix at order 1
    # and a first-order one from exact antiderivatives give the same solve
    # (full pipeline)
    params1 = WaveletParams(k=2, M=4, mu=1.0)
    mats1 = build_operational_matrices(params1)
    P1 = _first_order_by_antiderivatives(params1, mats1)
    sol_frac = solve_focp(_example1(1.0), params1, mats1, diagnostics=False)
    sol_plain = solve_focp(_example1(1.0), params1,
                           dataclasses.replace(mats1, Pmu=P1),
                           diagnostics=False)
    grid = np.linspace(0.0, 1.0, 100)
    xa, ua = reconstruct_many(sol_plain, grid)
    xb, ub = reconstruct_many(sol_frac, grid)
    coincide = max(
        abs(sol_plain.J_value - sol_frac.J_value),
        np.abs(xa - xb).max(), np.abs(ua - ub).max(),
    )
    if coincide > 1e-10:
        failures.append(f"order-one coincidence {coincide:.1e}")

    # Gram structure
    import scipy.linalg

    mats = build_operational_matrices(WaveletParams(k=2, M=4, mu=0.9))
    if np.abs(mats.D - mats.D.T).max() > 1e-12:
        failures.append("Gram not symmetric")
    try:
        scipy.linalg.cho_factor(mats.D)
    except scipy.linalg.LinAlgError:
        failures.append("Gram not positive definite")
    if np.abs(mats.D[:4, 4:]).max() > 0.0 or np.abs(mats.D[4:, :4]).max() > 0.0:
        failures.append("Gram not block diagonal")

    # projection idempotence
    params = WaveletParams(k=2, M=4, mu=0.9)
    f = lambda z: np.exp(np.asarray(z))
    c1 = project(f, mats)
    c2 = project(lambda z: c1 @ eval_basis_many(params, np.atleast_1d(z)), mats)
    if np.abs(c2 - c1).max() > 1e-8:
        failures.append(f"projection idempotence {np.abs(c2 - c1).max():.1e}")

    # chain-equivalent cost
    disc = discretize(_example1(0.9), WaveletParams(k=2, M=4, mu=0.9))
    sol = solve_discretized(disc, diagnostics=False)
    chain_gap = abs(cost_via_product_chain(disc, sol) - sol.J_value)
    if chain_gap > 1e-6:
        failures.append(f"chain equivalence {chain_gap:.1e}")

    # feasible-direction optimality
    from wavefocp.solver import _quadratic_cost, state_from_coeffs

    G_A, G_B = block_diagonal(disc.G_A), block_diagonal(disc.G_B)
    m = disc.params.m_hat
    G_c = np.eye(m) - G_A @ disc.mats.Pmu.T
    null = scipy.linalg.null_space(np.hstack([G_c, -G_B]))
    rng = np.random.default_rng(23)
    worst_descent = 0.0
    for _ in range(20):
        d = null @ rng.standard_normal(null.shape[1])
        d /= np.linalg.norm(d)
        for eps in (1e-3, 1e-2):
            C2 = state_from_coeffs(sol.C_hat + eps * d[:m], disc.d1, disc.mats)
            J = _quadratic_cost(disc, C2, sol.U_hat + eps * d[m:])
            worst_descent = max(worst_descent, sol.J_value - J)
    if worst_descent > 1e-10:
        failures.append(f"feasible-direction descent {worst_descent:.1e}")

    # projection bound for the analytic family (single-block configurations)
    for M in (4, 5, 6):
        p = WaveletParams(k=1, M=M, mu=1.0)
        pm = build_operational_matrices(p)
        g = lambda z: np.cosh(np.sqrt(2.0) * np.asarray(z))
        coeffs = project(g, pm)
        nodes, weights = quadrature_nodes(p)
        resid = g(nodes) - coeffs @ eval_basis_many(p, nodes)
        observed = math.sqrt(float(np.dot(weights, resid**2)))
        m_tilde = 2.0 ** (p.m_hat / 2) * math.cosh(math.sqrt(2.0))
        if observed > lemma2_bound(m_tilde, p.m_hat) * (1 + 1e-9):
            failures.append(f"projection bound at M={M}")

    # cost monotonicity under nested refinement
    configs = [WaveletParams(k=2, M=M, mu=1.0) for M in (3, 4, 5, 6)]
    _, monotone = convergence_sweep(_example1(1.0), configs)
    if not monotone:
        failures.append("cost sequence not non-increasing")

    _report(
        "criterion 6 (property suite)", not failures,
        "; ".join(failures) if failures else "all seven properties hold",
    )


def test_criterion_7_determinism(tmp_path):
    args = ["--example", "1", "--basis", "ftw", "--k", "2", "--M", "4",
            "--mu", "0.5,0.75,0.85,0.95,0.99,1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    identical = rc1 == 0 and rc2 == 0
    names = sorted(p.name for p in out1.iterdir()) if identical else []
    if identical:
        identical = names == sorted(p.name for p in out2.iterdir())
    if identical:
        identical = all(
            (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
        )
    _report(
        "criterion 7 (determinism)", identical,
        f"{len(names)} files byte-identical" if identical else "outputs differ",
    )
