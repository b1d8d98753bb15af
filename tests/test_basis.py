import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavefocp.basis import (
    WaveletParams,
    eval_basis,
    eval_basis_many,
    local_basis_values,
    local_wavelet_values,
    monomial_coefficients,
    support_interval,
)


def _wavelet_value(params, n, m, zeta):
    """Value of wavelet (n, m) at zeta, read from ``eval_basis``."""
    return eval_basis(params, zeta)[(n - 1) * params.M + m]


def _owning_block(params, zeta):
    """1-based block owning zeta, read from ``local_basis_values``."""
    return int(local_basis_values(params, np.array([zeta]))[0][0]) + 1


class TestWaveletParams:
    def test_m_hat(self):
        assert WaveletParams(k=2, M=4).m_hat == 8
        assert WaveletParams(k=3, M=6).m_hat == 24
        assert WaveletParams(k=1, M=5).m_hat == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            WaveletParams(k=0, M=4)
        with pytest.raises(ValueError):
            WaveletParams(k=2, M=0)
        with pytest.raises(ValueError):
            WaveletParams(k=2, M=4, mu=1.5)
        with pytest.raises(ValueError):
            WaveletParams(k=2, M=4, mu=0.0)


class TestNormalizedTaylorPoly:
    """sqrt(2m+1) s^m: the local values at k = 1, where the scale
    2^((k-1)/2) is 1."""

    PARAMS = WaveletParams(k=1, M=4)

    def test_degree_zero(self):
        assert local_wavelet_values(self.PARAMS, 0.37)[0] == 1.0

    def test_degree_one(self):
        assert local_wavelet_values(self.PARAMS, 0.5)[1] == pytest.approx(math.sqrt(3) * 0.5)

    def test_degree_three(self):
        assert local_wavelet_values(self.PARAMS, 0.9)[3] == pytest.approx(math.sqrt(7) * 0.729)


class TestSupportInterval:
    def test_uniform_split(self):
        p = WaveletParams(k=2, M=4, mu=1.0)
        assert support_interval(p, 1) == (0.0, 0.5)
        assert support_interval(p, 2) == (0.5, 1.0)

    def test_stretched_split(self):
        p = WaveletParams(k=2, M=4, mu=0.9)
        lo, hi = support_interval(p, 1)
        assert lo == 0.0
        assert hi == pytest.approx(0.5 ** (1 / 0.9))
        assert hi == pytest.approx(0.462937, abs=1e-6)

    def test_single_block(self):
        p = WaveletParams(k=1, M=3, mu=0.7)
        assert support_interval(p, 1) == (0.0, 1.0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            support_interval(WaveletParams(k=2, M=4), 3)

    def test_supports_tile_unit_interval(self):
        p = WaveletParams(k=3, M=2, mu=0.6)
        bounds = [support_interval(p, n) for n in range(1, p.n_blocks + 1)]
        assert bounds[0][0] == 0.0
        assert bounds[-1][1] == 1.0
        for (_, hi), (lo, _) in zip(bounds[:-1], bounds[1:]):
            assert hi == lo


class TestEvalWavelet:
    """Single wavelet values, each an entry of ``eval_basis``."""

    def test_constant_branch(self):
        p = WaveletParams(k=2, M=4, mu=1.0)
        assert _wavelet_value(p, 1, 0, 0.25) == pytest.approx(math.sqrt(2))

    def test_outside_support_is_zero(self):
        p = WaveletParams(k=2, M=4, mu=0.9)
        assert _wavelet_value(p, 1, 0, 0.6) == 0.0

    def test_second_block_linear(self):
        p = WaveletParams(k=2, M=4, mu=1.0)
        expected = math.sqrt(2) * math.sqrt(3) * (2 * 0.75 - 1)
        assert _wavelet_value(p, 2, 1, 0.75) == pytest.approx(expected)
        assert expected == pytest.approx(math.sqrt(6) / 2)

    def test_domain_error(self):
        p = WaveletParams(k=2, M=4)
        for zeta in (1.5, -1e-12, math.nan):
            with pytest.raises(ValueError):
                eval_basis(p, zeta)
            with pytest.raises(ValueError):
                eval_basis_many(p, np.array([0.5, zeta]))

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
        st.sampled_from([0.5, 0.7, 0.9]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_substitution_identity(self, zeta, mu, m):
        """The stretched wavelet at zeta equals the plain one at zeta^mu."""
        frac = WaveletParams(k=2, M=4, mu=mu)
        plain = WaveletParams(k=2, M=4, mu=1.0)
        a = eval_basis(frac, zeta)
        b = eval_basis(plain, min(zeta**mu, 1.0))
        for n in (1, 2):
            i = (n - 1) * frac.M + m
            assert a[i] == pytest.approx(b[i], abs=1e-12)


class TestEvalBasis:
    def test_at_zero(self):
        p = WaveletParams(k=1, M=2, mu=1.0)
        np.testing.assert_allclose(eval_basis(p, 0.0), [1.0, 0.0])

    def test_single_block_active(self):
        p = WaveletParams(k=2, M=4, mu=1.0)
        vec = eval_basis(p, 0.25)
        assert np.all(vec[4:] == 0.0)
        assert np.any(vec[:4] != 0.0)

    def test_stretched_block_assignment(self):
        p = WaveletParams(k=2, M=4, mu=0.9)
        vec = eval_basis(p, 0.5)  # 0.5 > 0.5**(1/0.9), second block
        assert np.all(vec[:4] == 0.0)
        assert np.any(vec[4:] != 0.0)

    def test_at_most_M_nonzeros(self):
        p = WaveletParams(k=3, M=3, mu=0.8)
        for z in np.linspace(0.0, 1.0, 37):
            assert np.count_nonzero(eval_basis(p, z)) <= p.M

    def test_constant_entry_value(self):
        p = WaveletParams(k=3, M=2, mu=1.0)
        for z in (0.1, 0.4, 0.6, 0.9):
            n = _owning_block(p, z)
            assert eval_basis(p, z)[(n - 1) * p.M] == pytest.approx(
                2.0 ** ((p.k - 1) / 2)
            )

    def test_many_matches_single(self):
        """Every column of ``eval_basis_many`` against the closed form
        2^((k-1)/2) sqrt(2m+1) s^m in the owning block's coordinate
        s = (zeta^mu - lo^mu) / (hi^mu - lo^mu), and against ``eval_basis``."""
        p = WaveletParams(k=2, M=4, mu=0.9)
        zs = np.linspace(0.0, 1.0, 23)
        many = eval_basis_many(p, zs)
        for j, z in enumerate(zs):
            n = _owning_block(p, z)
            lo, hi = support_interval(p, n)
            s = (z**p.mu - lo**p.mu) / (hi**p.mu - lo**p.mu)
            expected = np.zeros(p.m_hat)
            for m in range(p.M):
                expected[(n - 1) * p.M + m] = math.sqrt(2.0) * math.sqrt(2 * m + 1) * s**m
            np.testing.assert_allclose(many[:, j], expected, rtol=1e-13, atol=1e-14)
            np.testing.assert_array_equal(many[:, j], eval_basis(p, z))


class TestBlockOfPoint:
    """The block assignment of ``local_basis_values``."""

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_tie_goes_right(self, k, mu):
        """Every interior breakpoint lands in the block on its right, zeta = 0
        in block 1 and zeta = 1 in the last block. The block arithmetic this
        replaced put 123 of the 1,080 ftw interior breakpoints (k = 2-7) on
        the left."""
        p = WaveletParams(k=k, M=4, mu=mu)
        blocks = [_owning_block(p, z) for z in p.breakpoints()]
        assert blocks == [*range(1, p.n_blocks + 1), p.n_blocks]

    def test_endpoint_one(self):
        p = WaveletParams(k=3, M=2, mu=0.7)
        assert _owning_block(p, 1.0) == p.n_blocks

    @given(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.5, 0.9, 1.0]))
    # two breakpoints that the block arithmetic this replaced put on the left
    @example(float(WaveletParams(k=3, M=2, mu=0.9).breakpoints()[1]), 0.9)
    @example(float(WaveletParams(k=3, M=2, mu=0.9).breakpoints()[2]), 0.9)
    @settings(max_examples=60, deadline=None)
    def test_point_in_claimed_support(self, zeta, mu):
        p = WaveletParams(k=3, M=2, mu=mu)
        n = _owning_block(p, zeta)
        lo, hi = support_interval(p, n)
        assert lo <= zeta < hi or (zeta == hi and n == p.n_blocks)


def test_monomial_coefficients_reproduce_wavelet():
    p = WaveletParams(k=2, M=4, mu=0.9)
    for n in (1, 2):
        lo, hi = support_interval(p, n)
        for m in range(p.M):
            c = monomial_coefficients(p, n, m)
            for z in np.linspace(lo + 1e-9, hi - 1e-9, 7):
                direct = _wavelet_value(p, n, m, z)
                via_monomials = sum(
                    ci * z ** (p.mu * s) for s, ci in enumerate(c)
                )
                assert via_monomials == pytest.approx(direct, abs=1e-12)
