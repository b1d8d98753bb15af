import math

import numpy as np
import pytest

from conftest import (
    caputo_derivative,
    caputo_derivative_by_segments,
    check_inversion_identity,
    finite_difference_derivative,
    rl_integral_by_segments,
)
from wavefocp.basis import WaveletParams
from wavefocp.fracops import rl_integral
from wavefocp.quadrature import gamma


class TestRlIntegral:
    def test_constant(self):
        # I^mu 1 = z^mu / Gamma(1+mu)
        for mu in (0.5, 0.9, 1.0):
            for z in (0.3, 0.8):
                val = rl_integral(lambda t: np.ones_like(t), mu, z)
                assert val == pytest.approx(z**mu / gamma(1.0 + mu), rel=1e-12)

    def test_power(self):
        # I^mu t^q = Gamma(q+1)/Gamma(q+1+mu) z^(q+mu)
        mu, q, z = 0.7, 2.0, 0.6
        val = rl_integral(lambda t: t**q, mu, z)
        expected = gamma(q + 1.0) / gamma(q + 1.0 + mu) * z ** (q + mu)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_order_one_is_plain_integral(self):
        val = rl_integral(lambda t: np.cos(t), 1.0, 0.9)
        assert val == pytest.approx(math.sin(0.9), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rl_integral(lambda t: t, 1.5, 0.5)
        with pytest.raises(ValueError):
            rl_integral(lambda t: t, 0.5, 0.0)


class TestCaputoDerivative:
    def test_constant_maps_to_zero(self):
        val = caputo_derivative(lambda t: np.zeros_like(t), 0.6, 0.4)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_power_rule(self):
        # D^mu t^2 = 2 t^(2-mu) / Gamma(3-mu)
        mu, z = 0.9, 0.7
        val = caputo_derivative(lambda t: 2.0 * t, mu, z)
        assert val == pytest.approx(2.0 * z ** (2 - mu) / gamma(3.0 - mu), rel=1e-12)

    def test_order_one_is_derivative(self):
        val = caputo_derivative(lambda t: 3.0 * t**2, 1.0, 0.5)
        assert val == pytest.approx(0.75)

    def test_exponent_mu_gives_gamma(self):
        # D^mu t^mu = Gamma(1+mu), constant in z
        mu = 0.5
        for z in (0.2, 0.9):
            val = caputo_derivative(
                lambda t: mu * t ** (mu - 1.0),
                mu,
                z,
                breakpoints=np.geomspace(1e-12, 1.0, 40),
                merge_fraction=0.5,
            )
            assert val == pytest.approx(gamma(1.0 + mu), rel=1e-7)


class TestSemigroup:
    @pytest.mark.parametrize("mu,nu", [(0.3, 0.4), (0.5, 0.5), (0.2, 0.7)])
    def test_nested_integrals_compose(self, mu, nu):
        # I^mu I^nu t^p = I^(mu+nu) t^p
        p = 2.0
        graded = np.geomspace(1e-12, 1.0, 40)

        def inner(z):
            z = np.atleast_1d(np.asarray(z, dtype=float))
            return np.array(
                [
                    rl_integral(lambda t: t**p, nu, zi, breakpoints=graded,
                                merge_fraction=0.5)
                    if zi > 0.0 else 0.0
                    for zi in z
                ]
            )

        for z in (0.4, 0.9):
            nested = rl_integral(inner, mu, z, breakpoints=graded,
                                 merge_fraction=0.5)
            expected = (
                gamma(p + 1.0) / gamma(p + 1.0 + mu + nu) * z ** (p + mu + nu)
            )
            assert nested == pytest.approx(expected, abs=1e-6)


class TestInversionIdentity:
    GRID = np.linspace(0.1, 1.0, 10)

    @pytest.mark.parametrize("mu", [0.5, 0.7, 0.9])
    def test_polynomial_family(self, mu):
        families = [
            (lambda z: np.ones_like(np.atleast_1d(z) * 1.0),
             lambda z: np.zeros_like(np.atleast_1d(z) * 1.0)),
            (lambda z: np.atleast_1d(z) * 1.0,
             lambda z: np.ones_like(np.atleast_1d(z) * 1.0)),
            (lambda z: np.atleast_1d(z) ** 2,
             lambda z: 2.0 * np.atleast_1d(z)),
            (lambda z: np.atleast_1d(z) ** mu,
             lambda z: mu * np.atleast_1d(z) ** (mu - 1.0)),
        ]
        for f, fp in families:
            assert check_inversion_identity(f, fp, mu, self.GRID) <= 1e-6

    def test_mu_one_exact(self):
        f = lambda z: np.exp(np.atleast_1d(z))
        r = check_inversion_identity(f, f, 1.0, self.GRID)
        assert r <= 1e-12


WAVELET_BP = WaveletParams(k=5, M=8, mu=0.9).breakpoints()
GRADED_BP = np.geomspace(1e-12, 1.0, 40)
# (breakpoints, merge_fraction, points): a point on a breakpoint, one below
# the first positive breakpoint, 1.0, and a repeated point; with merging, also
# a point whose merge cutoff (1 - 0.5) z falls on a breakpoint
BATCH_CASES = {
    "none": (None, 0.0, np.array([0.3, 0.05, 1.0, 0.3, 0.7])),
    "wavelet": (WAVELET_BP, 0.0,
                np.array([WAVELET_BP[5], 0.5 * WAVELET_BP[1], 1.0, 0.61, WAVELET_BP[5]])),
    "graded": (GRADED_BP, 0.5,
               np.array([GRADED_BP[30], 0.5 * GRADED_BP[0], 1.0, 0.42, 0.42,
                         2.0 * GRADED_BP[25]])),
}
FUNCTIONS = {
    "power": (lambda t: t**2.5, lambda t: 2.5 * t**1.5),
    "cos": (np.cos, lambda t: -np.sin(t)),
}


class TestBatchedQuadrature:
    """Array calls against the point-by-point, segment-by-segment reference
    in conftest: the same rule per point, so only summation order differs."""

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    @pytest.mark.parametrize("fname", sorted(FUNCTIONS))
    @pytest.mark.parametrize("mu", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("n", [32, 3])
    def test_matches_segment_reference(self, case, fname, mu, n):
        # at n = 3 the rules' own error is far above 1e-14, so a point that
        # splits [0, z] differently from the reference shows
        bp, merge, points = BATCH_CASES[case]
        f, fp = FUNCTIONS[fname]
        kw = dict(breakpoints=bp, n_points=n, merge_fraction=merge)
        rl = rl_integral(f, mu, points, **kw)
        cd = caputo_derivative(fp, mu, points, **kw)
        rl_ref = [rl_integral_by_segments(f, mu, z, **kw) for z in points]
        cd_ref = [caputo_derivative_by_segments(fp, mu, z, **kw) for z in points]
        assert isinstance(rl, np.ndarray) and rl.shape == points.shape
        assert isinstance(cd, np.ndarray) and cd.shape == points.shape
        np.testing.assert_allclose(rl, rl_ref, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(cd, cd_ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_integrand_called_once_on_shared_nodes(self, case):
        bp, merge, points = BATCH_CASES[case]
        calls = []

        def f(t):
            calls.append(np.size(t))
            return np.cos(t)

        rl_integral(f, 0.7, points, breakpoints=bp, merge_fraction=merge)
        positive = np.unique(np.asarray([] if bp is None else bp, dtype=float))
        S = int(np.sum((positive > 0.0) & (positive < points.max())))
        Q = 32
        assert len(calls) == 1
        assert calls[0] <= S * Q + points.size * Q

    def test_rejects_any_nonpositive_point(self):
        with pytest.raises(ValueError):
            rl_integral(np.cos, 0.5, np.array([0.3, 0.0, 0.6]))
        with pytest.raises(ValueError):
            caputo_derivative(lambda t: -np.sin(t), 0.5, np.array([0.3, 0.0]))
        with pytest.raises(ValueError):
            caputo_derivative(lambda t: -np.sin(t), 1.0, np.array([-0.1, 0.5]))

    def test_scalar_in_float_out(self):
        val = rl_integral(np.cos, 0.5, 0.4, breakpoints=WAVELET_BP)
        assert type(val) is float
        assert val == pytest.approx(
            rl_integral_by_segments(np.cos, 0.5, 0.4, WAVELET_BP), rel=1e-14)
        assert type(caputo_derivative(lambda t: -np.sin(t), 0.5, 0.4)) is float
        assert type(caputo_derivative(lambda t: -np.sin(t), 1.0, 0.4)) is float

    def test_order_one_caputo_is_f_prime_on_array(self):
        z = np.array([0.2, 0.5, 1.0])
        val = caputo_derivative(np.cos, 1.0, z)
        np.testing.assert_array_equal(val, np.cos(z))


def test_finite_difference_derivative():
    d = finite_difference_derivative(lambda x: math.sin(3.0 * x))
    for x in (0.0, 0.3, 0.97, 1.0):
        assert d(x) == pytest.approx(3.0 * math.cos(3.0 * x), abs=1e-9)
