import math

import numpy as np
import pytest

from conftest import project
from paper_bounds import convergence_sweep, cost_gap_bound, lemma2_bound
from wavefocp.basis import WaveletParams, eval_basis_many
from wavefocp.opmats import build_operational_matrices, quadrature_nodes
from wavefocp.solver import FocpProblem
from wavefocp.quadrature import gamma


def example1(mu):
    return FocpProblem(
        p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
        a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
        x0=1.0, mu=mu,
    )


class TestLemma2Bound:
    def test_zero_numerator(self):
        assert lemma2_bound(0.0, 5) == 0.0

    def test_unit_case(self):
        assert lemma2_bound(1.0, 1) == pytest.approx(0.5)

    def test_m_hat_eight(self):
        assert lemma2_bound(1.0, 8) == pytest.approx(
            1.0 / (math.factorial(8) * 2**15), rel=1e-12
        )

    def test_strictly_decreasing_in_m_hat(self):
        vals = [lemma2_bound(3.7, m) for m in range(1, 20)]
        assert all(a > b for a, b in zip(vals[:-1], vals[1:]))

    def test_large_m_hat_no_overflow(self):
        assert lemma2_bound(1e300, 200) >= 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            lemma2_bound(-1.0, 4)
        with pytest.raises(ValueError):
            lemma2_bound(1.0, 0)


class TestCostGapBound:
    def test_zero_lipschitz(self):
        assert cost_gap_bound(0.0, 1.0, 1.0, 4) == 0.0

    def test_direct_values(self):
        assert cost_gap_bound(1.0, 1.0, 1.0, 4) == pytest.approx(1.0 / 1536)
        assert cost_gap_bound(2.0, 0.5, 0.5, 8) == pytest.approx(
            2.0 / (math.factorial(8) * 2**15)
        )


class TestBoundAgainstProjection:
    """The projection bound holds on single-block (k=1) configurations,
    where the basis is a full Taylor family of m_hat terms."""

    @pytest.mark.parametrize("M", [4, 5, 6])
    def test_analytic_function_within_bound(self, M):
        f = lambda z: np.cosh(np.sqrt(2.0) * np.asarray(z))
        params = WaveletParams(k=1, M=M, mu=1.0)
        mats = build_operational_matrices(params)
        coeffs = project(f, mats)
        nodes, weights = quadrature_nodes(params)
        resid = f(nodes) - coeffs @ eval_basis_many(params, nodes)
        observed = math.sqrt(float(np.dot(weights, resid**2)))
        # sampled magnitude of the order-m_hat derivative of cosh(sqrt(2) z)
        M_tilde = 2.0 ** (params.m_hat / 2) * math.cosh(math.sqrt(2.0))
        assert observed <= lemma2_bound(M_tilde, params.m_hat) * (1.0 + 1e-9)


class TestConvergenceSweep:
    def test_empty_configs(self):
        rows, monotone = convergence_sweep(example1(1.0), [])
        assert rows == [] and monotone

    def test_nested_costs_non_increasing(self):
        # Starting at M=3: the M=2 discretization underestimates the cost
        # (constraint projection error ~1e-5), so the discrete infima are
        # only comparable once the projected dynamics are resolved.
        configs = [WaveletParams(k=2, M=M, mu=1.0) for M in (3, 4, 5, 6)]
        rows, monotone = convergence_sweep(example1(1.0), configs)
        assert monotone
        costs = [r.J for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(costs[:-1], costs[1:]))

    def test_exact_tracking_errors_shrink(self):
        mu = 0.8
        g = gamma(mu + 1.0)
        problem = FocpProblem(
            p_fn=lambda z: np.ones_like(z), q_fn=lambda z: np.ones_like(z),
            a_fn=lambda z: -np.ones_like(z), b_fn=lambda z: np.ones_like(z),
            x0=0.0, mu=mu,
            track_x=lambda z: np.asarray(z, dtype=float) ** mu,
            track_u=lambda z: np.asarray(z, dtype=float) ** mu + g,
        )
        configs = [
            WaveletParams(k=1, M=2, mu=mu),
            WaveletParams(k=1, M=3, mu=mu),
            WaveletParams(k=2, M=4, mu=mu),
        ]
        rows, _ = convergence_sweep(
            problem, configs,
            exact_x=lambda z: z**mu,
            exact_u=lambda z: z**mu + g,
        )
        errs = [r.err_x_sup for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(errs[:-1], errs[1:]))
        assert errs[-1] <= 1e-6
        assert rows[-1].err_u_sup <= 1e-6
        assert all(r.basis == "ftw" for r in rows)
