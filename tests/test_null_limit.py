"""Null limit distribution: kernel, cumulants, Pearson fit, quantiles.

The exact rational cumulants are cross-validated against Nystrom traces
of the discretised kernel. The Pearson type VI fit is checked against
scipy's beta prime quantiles, and cumulants of every other Pearson family
must be rejected.
"""

import numpy as np
import pytest
from scipy import stats

from unigof import (
    CumulantSet,
    cumulants_exact,
    cumulants_numeric,
    gauss_legendre,
    null_kernel,
    nystrom_spectrum,
    pearson_fit,
    pearson_quantile,
)

EXACT = (
    2.0 / 15.0,
    109.0 / 4050.0,
    502883.0 / 40540500.0,
    200311667.0 / 23260111875.0,
)


# ---------------------------------------------------------------------------
# kernel


class TestNullKernel:
    def test_hand_anchors(self):
        # K(t,t) = (1 - (2t-1)^3)/6 - t^2 (1-t)^2
        assert null_kernel(0.5, 0.5) == pytest.approx(5.0 / 48.0, abs=1e-16)
        assert null_kernel(0.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-16)
        assert null_kernel(1.0, 1.0) == 0.0
        assert null_kernel(0.0, 1.0) == 0.0

    def test_symmetry(self, rng):
        s = rng.random(50)
        t = rng.random(50)
        np.testing.assert_allclose(
            null_kernel(s[:, None], t[None, :]),
            null_kernel(t[None, :], s[:, None]),
            atol=1e-16,
        )

    def test_diagonal_integral_is_first_cumulant(self):
        # the diagonal is a quartic polynomial, so a small rule is exact
        rule = gauss_legendre(8)
        assert rule.integrate(lambda t: null_kernel(t, t)) == pytest.approx(
            EXACT[0], abs=1e-15
        )

    def test_positive_semidefinite_on_grid(self):
        t = np.linspace(0.0, 1.0, 101)
        K = null_kernel(t[:, None], t[None, :])
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-10


# ---------------------------------------------------------------------------
# cumulants


class TestCumulants:
    def test_exact_values(self):
        c = cumulants_exact()
        assert (c.k1, c.k2, c.k3, c.k4) == EXACT

    def test_derived_properties(self):
        c = cumulants_exact()
        assert c.mean == c.k1
        assert c.variance == c.k2
        assert c.skewness == pytest.approx(c.k3 / c.k2**1.5, rel=1e-15)
        assert c.excess_kurtosis == pytest.approx(c.k4 / c.k2**2, rel=1e-15)

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError):
            CumulantSet(k1=0.0, k2=0.0, k3=0.0, k4=0.0)

    def test_numeric_route_agrees_with_exact(self):
        # trace route converges at second order in 1/order because of the
        # diagonal kink of the kernel; measured errors at 512 are ~6e-8
        num = cumulants_numeric(order=512)
        exact = cumulants_exact()
        assert num.k1 == pytest.approx(exact.k1, abs=1e-12)
        assert num.k2 == pytest.approx(exact.k2, abs=1.5e-7)
        assert num.k3 == pytest.approx(exact.k3, abs=1.5e-7)
        assert num.k4 == pytest.approx(exact.k4, abs=1.5e-7)

    def test_numeric_route_converges(self):
        exact = cumulants_exact()
        err_lo = abs(cumulants_numeric(order=128).k2 - exact.k2)
        err_hi = abs(cumulants_numeric(order=512).k2 - exact.k2)
        assert err_hi < err_lo / 8.0

    def test_numeric_rejects_low_order(self):
        with pytest.raises(ValueError):
            cumulants_numeric(order=64)


# ---------------------------------------------------------------------------
# Pearson type VI: scipy ppf as oracle; every other family is rejected

P_GRID = (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def quantiles(fit):
    return np.array([pearson_quantile(fit, p) for p in P_GRID])


def _moment_cumulants(dist):
    m, v, s, k = (float(x) for x in dist.stats(moments="mvsk"))
    return CumulantSet(m, v, s * v**1.5, k * v**2)


# cumulant sets of the Pearson families other than type VI
OTHER_FAMILIES = {
    "normal": CumulantSet(1.0, 2.0, 0.0, 0.0),
    # Beta(3,3) on (0,1): variance 1/28, excess -2/3
    "symmetric-beta": CumulantSet(0.5, 1.0 / 28.0, 0.0, -(2.0 / 3.0) * (1.0 / 28.0) ** 2),
    # Student t with 10 degrees of freedom
    "scaled-t": CumulantSet(0.0, 1.25, 0.0, 1.25**2),
    # Gamma(4): 2 b2 - 3 b1 - 6 = 0 exactly
    "gamma": CumulantSet(4.0, 4.0, 8.0, 24.0),
    "beta": _moment_cumulants(stats.beta(2.0, 5.0)),
    "beta-reflected": _moment_cumulants(stats.beta(5.0, 2.0)),
    # InvGamma(6): mean 1/5, variance 1/100, skew 8/3, excess 19 (kappa = 1)
    "inverse-gamma": CumulantSet(0.2, 0.01, (8.0 / 3.0) * 0.01**1.5, 19.0 * 0.01**2),
    # skewness 1 with excess 3: complex roots, 0 < kappa < 1
    "pearson-iv": CumulantSet(0.0, 1.0, 1.0, 3.0),
}


class TestPearsonFamilies:
    def test_beta_prime_branch(self):
        m, v, s, k = (float(x) for x in stats.betaprime(3.0, 9.0).stats(moments="mvsk"))
        fit = pearson_fit(CumulantSet(m, v, s * v**1.5, k * v**2))
        assert fit.family_tag == "beta-prime"
        oracle = stats.betaprime(3.0, 9.0).ppf(P_GRID)
        np.testing.assert_allclose(quantiles(fit), oracle, atol=1e-6)

    @pytest.mark.parametrize("family", sorted(OTHER_FAMILIES))
    def test_other_families_rejected(self, family):
        with pytest.raises(ValueError, match="type VI"):
            pearson_fit(OTHER_FAMILIES[family])

    def test_infeasible_moments_rejected(self):
        with pytest.raises(ValueError, match="feasibility"):
            pearson_fit(CumulantSet(0.0, 1.0, 0.0, -2.5))


class TestPearsonQuantile:
    def test_rejects_bad_probability(self):
        fit = pearson_fit(cumulants_exact())
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                pearson_quantile(fit, p)

    def test_location_scale_equivariance(self):
        c = cumulants_exact()
        base = pearson_fit(c)
        moved = pearson_fit(CumulantSet(3.0 + 2.0 * c.k1, 4.0 * c.k2, 8.0 * c.k3, 16.0 * c.k4))
        for p in (0.1, 0.6, 0.99):
            assert pearson_quantile(moved, p) == pytest.approx(
                3.0 + 2.0 * pearson_quantile(base, p), abs=1e-7
            )

    def test_monotone_in_p(self):
        fit = pearson_fit(cumulants_exact())
        qs = quantiles(fit)
        assert np.all(np.diff(qs) > 0.0)


class TestLimitDistribution:
    """The fit of the exact null cumulants, used for asymptotic critical values."""

    def test_family_is_beta_prime(self):
        fit = pearson_fit(cumulants_exact())
        assert fit.family_tag == "beta-prime"

    def test_reference_quantiles(self):
        # tabulated to three decimals in the original simulation study
        fit = pearson_fit(cumulants_exact())
        assert pearson_quantile(fit, 0.90) == pytest.approx(0.332, abs=2e-3)
        assert pearson_quantile(fit, 0.95) == pytest.approx(0.462, abs=2e-3)
        assert pearson_quantile(fit, 0.99) == pytest.approx(0.785, abs=2e-3)

    def test_quantile_regression_pins(self):
        # full-precision values of the same three quantiles, pinned so that
        # numerical drift shows up before it reaches the published digits
        fit = pearson_fit(cumulants_exact())
        assert pearson_quantile(fit, 0.90) == pytest.approx(0.3315778, abs=1e-6)
        assert pearson_quantile(fit, 0.95) == pytest.approx(0.4626794, abs=1e-6)
        assert pearson_quantile(fit, 0.99) == pytest.approx(0.7851703, abs=1e-6)

    def test_cdf_round_trip(self):
        fit = pearson_fit(cumulants_exact())
        for p in (0.5, 0.9, 0.95, 0.99):
            assert fit.cdf(pearson_quantile(fit, p)) == pytest.approx(p, abs=1e-7)

    def test_mean_and_std_match_cumulants(self):
        fit = pearson_fit(cumulants_exact())
        assert fit.mean == pytest.approx(EXACT[0], rel=1e-9)
        assert fit.std == pytest.approx(np.sqrt(EXACT[1]), rel=1e-9)


# ---------------------------------------------------------------------------
# spectrum


class TestSpectrum:
    def test_sorted_descending_nonnegative(self):
        spec = nystrom_spectrum(order=256)
        eigs = spec.eigenvalues
        assert spec.order == 256
        assert np.all(np.diff(eigs) <= 1e-15)
        assert eigs.min() > -1e-12  # covariance operator, PSD up to roundoff

    def test_trace_identities(self):
        spec = nystrom_spectrum(order=512)
        eigs = spec.eigenvalues
        assert eigs.sum() == pytest.approx(EXACT[0], abs=1e-10)
        assert 2.0 * np.sum(eigs**2) == pytest.approx(EXACT[1], abs=1.5e-7)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            nystrom_spectrum(order=32)
