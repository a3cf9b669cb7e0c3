"""Null limit distribution: kernel, cumulants, Pearson fit, quantiles.

The exact rational cumulants are cross-validated against traces of powers
of the discretised kernel's Nystrom matrix, and those traces against the
power sums of its spectrum. The Pearson type VI fit is
checked against ``scipy.stats.betaprime`` (its distribution function and
quantiles bit for bit, its moments in closed form), and cumulants of every
other Pearson family must be rejected.
"""

import dataclasses
import math

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
    tm_statistic_batch,
)
from unigof.null_limit import PearsonFit, _fit_moments, _power_sum_cumulants, _verify_fit_moments

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

    def test_matches_the_cubed_formula_on_the_512_grid(self):
        # an absolute bound: entries near zero cancel, so ulps mean nothing there
        x = gauss_legendre(512).nodes
        s, t = x[:, None], x[None, :]
        m = np.maximum(s, t)
        formula = (1.0 - (2.0 * m - 1.0) ** 3) / 6.0 - s * t * (1.0 - s) * (1.0 - t)
        np.testing.assert_allclose(null_kernel(s, t), formula, rtol=0.0, atol=1e-16)

    @staticmethod
    def _expression(s, t):
        # the kernel as its allocating form wrote it, which the in-place form must reproduce bit for bit
        c = 2.0 * np.maximum(s, t) - 1.0
        return (1.0 - c * c * c) / 6.0 - (s * (1.0 - s)) * (t * (1.0 - t))

    def test_bit_equal_to_the_expression_on_the_512_grid(self):
        x = gauss_legendre(512).nodes
        s, t = x[:, None], x[None, :]
        got = null_kernel(s, t)
        assert got.dtype == np.float64 and got.shape == (512, 512)
        assert np.array_equal(got, self._expression(s, t))

    @pytest.mark.parametrize(
        "s, t",
        [
            (np.float64(0.3), 0.8),
            (np.array(0.75), np.array(0.25)),
            (np.linspace(0.0, 1.0, 11), 0.4),
            (0.4, np.linspace(0.0, 1.0, 11)),
            (np.linspace(0.0, 1.0, 7)[:, None], np.linspace(0.05, 0.95, 5)[None, :]),
        ],
        ids=["scalars", "0-d arrays", "vector-scalar", "scalar-vector", "column-row"],
    )
    def test_bit_equal_to_the_expression_on_every_shape(self, s, t):
        got = null_kernel(s, t)
        want = self._expression(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        if want.ndim == 0:
            assert type(got) is float and got == float(want)
        else:
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_returns_a_new_array(self):
        # nystrom_discretize scales the kernel's output in place, so it must not alias an input
        s = np.linspace(0.0, 1.0, 9)[:, None]
        t = np.linspace(0.0, 1.0, 9)[None, :]
        for a, b in ((s, t), (s, 0.5), (s[:, 0], s[:, 0])):
            got = null_kernel(a, b)
            assert got.dtype == np.float64
            assert not np.shares_memory(got, a) and not np.shares_memory(got, b)

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
        k1 = rule.weights @ null_kernel(rule.nodes, rule.nodes)
        assert k1 == pytest.approx(EXACT[0], abs=1e-15)

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
        assert c.skewness == pytest.approx(c.k3 / c.k2**1.5, rel=1e-15)
        assert c.excess_kurtosis == pytest.approx(c.k4 / c.k2**2, rel=1e-15)

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError):
            CumulantSet(k1=0.0, k2=0.0, k3=0.0, k4=0.0)

    @pytest.mark.parametrize("name", ["k1", "k2", "k3", "k4"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cumulant_is_named(self, name, value):
        given = dict(zip(("k1", "k2", "k3", "k4"), EXACT)) | {name: value}
        with pytest.raises(ValueError, match=f"^cumulant {name} must be finite, got {value!r}$"):
            CumulantSet(**given)

    def test_numeric_route_agrees_with_exact(self):
        # power sums of the Nystrom eigenvalues converge at second order in
        # 1/order because of the diagonal kink of the kernel; measured errors
        # at 512 are ~6e-8
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

    @pytest.mark.parametrize("order", [128, 512])
    def test_power_sums_equal_matrix_traces(self, order):
        # sum lambda^j = trace(A^j): the traces cumulants_numeric reads agree
        # with the eigenvalue power sums that `unigof spectrum` prints
        num = cumulants_numeric(order)
        eig = _power_sum_cumulants(nystrom_spectrum(order).eigenvalues)
        for k in ("k1", "k2", "k3", "k4"):
            assert getattr(num, k) == pytest.approx(getattr(eig, k), rel=1e-14)

    def test_numeric_route_runs_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cumulants_numeric called an eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert cumulants_numeric(128).k1 == pytest.approx(EXACT[0], abs=1e-12)

    def test_numeric_rejects_low_order(self):
        with pytest.raises(ValueError):
            cumulants_numeric(order=64)

    @pytest.mark.parametrize(
        "order, message", [(128.5, "order: expected an integer"), (np.nan, "order must be at least 128")]
    )
    def test_numeric_rejects_an_order_that_is_not_an_integer(self, order, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            cumulants_numeric(order)


# ---------------------------------------------------------------------------
# finite-n null moments: E T_n is the limit's k1 at every n, and
# Var T_n = 109/4050 - 49/(8100 n) reaches the limit's k2 from below


def _variance_at(n):
    return EXACT[1] - 49.0 / (8100.0 * n)


class TestFiniteSampleMoments:
    def test_exact_at_one_observation(self):
        # T_1 is a polynomial in U of low degree, so Gauss-Legendre 32 integrates T and T^2 exactly
        rule = gauss_legendre(32)
        t = tm_statistic_batch(rule.nodes[:, None])
        mean = rule.weights @ t
        assert mean == pytest.approx(EXACT[0], abs=1e-15)
        assert rule.weights @ t**2 - mean**2 == pytest.approx(_variance_at(1), abs=1e-15)

    def test_exact_at_two_observations(self):
        # on u1 < u2, T_2 is a polynomial; u1 = x y, u2 = x maps the square onto that
        # triangle with Jacobian x, and the ordered pair has density 2 there
        rule = gauss_legendre(32)
        x, y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
        weight = (2.0 * np.outer(rule.weights, rule.weights) * x).ravel()
        t = tm_statistic_batch(np.column_stack([(x * y).ravel(), x.ravel()]))
        mean = weight @ t
        assert mean == pytest.approx(EXACT[0], abs=1e-15)
        assert weight @ t**2 - mean**2 == pytest.approx(_variance_at(2), abs=1e-15)

    @pytest.mark.parametrize("n", [10, 50])
    def test_monte_carlo_within_four_standard_errors(self, n, rng):
        t = np.concatenate([tm_statistic_batch(rng.random((20_000, n))) for _ in range(10)])
        mean = t.mean()
        centred = t - mean
        variance = np.mean(centred**2)
        # the standard error of a sample variance comes from the fourth central moment
        variance_se = math.sqrt((np.mean(centred**4) - variance**2) / t.size)
        assert abs(mean - EXACT[0]) < 4.0 * math.sqrt(variance / t.size)
        assert abs(variance - _variance_at(n)) < 4.0 * variance_se


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
        oracle = stats.betaprime(3.0, 9.0).ppf(P_GRID)
        np.testing.assert_allclose(quantiles(fit), oracle, atol=1e-6)

    @pytest.mark.parametrize("family", sorted(OTHER_FAMILIES))
    def test_other_families_rejected(self, family):
        with pytest.raises(ValueError, match="type VI"):
            pearson_fit(OTHER_FAMILIES[family])

    def test_infeasible_moments_rejected(self):
        with pytest.raises(ValueError, match="feasibility"):
            pearson_fit(CumulantSet(0.0, 1.0, 0.0, -2.5))


def assert_bit_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got[~np.isnan(got)]), np.signbit(want[~np.isnan(want)]))


def _oracle(fit):
    return stats.betaprime(fit.alpha, fit.beta, loc=fit.loc, scale=fit.scale)


# the limit law's fit; a fit with beta < 4 whose upper quantiles reach the
# complement branch (beta quantile r > 0.9999), built directly since its
# moments do not exist
ROUTE_FITS = {
    "limit": pearson_fit(cumulants_exact()),
    "heavy-tail": PearsonFit((0.0, 1.0, 0.0, 0.0), alpha=50.0, beta=0.3, loc=-0.5, scale=2.0),
}


class TestPearsonRoute:
    """The fit's own distribution function, quantile and moments against scipy.stats.betaprime."""

    @pytest.mark.parametrize("name", sorted(ROUTE_FITS))
    def test_cdf_is_bit_equal_to_scipy(self, name):
        fit = ROUTE_FITS[name]
        # below and at loc, both branches either side of z = 1, the far tail, inf and NaN
        z = np.concatenate([[-np.inf, -3.0, -1e-300, 0.0, 5e-324], np.linspace(1e-3, 1.0, 200), [1.0 + 1e-15],
                            np.geomspace(1.001, 1e12, 200), [1e300, np.inf, np.nan]])
        x = fit.loc + fit.scale * z
        assert_bit_equal([fit.cdf(v) for v in x], _oracle(fit).cdf(x))

    @pytest.mark.parametrize("name", sorted(ROUTE_FITS))
    def test_quantile_is_bit_equal_to_scipy(self, name):
        fit = ROUTE_FITS[name]
        p = np.concatenate([[1e-300, 1e-12], np.linspace(1e-4, 1.0 - 1e-4, 400), [1.0 - 1e-12, 1.0 - 2**-53]])
        assert_bit_equal([pearson_quantile(fit, v) for v in p], _oracle(fit).ppf(p))
        near_one = stats.beta.ppf(p, fit.alpha, fit.beta) > 0.9999
        assert near_one.any() == (name == "heavy-tail")

    @pytest.mark.parametrize("alpha, beta", [(0.5, 4.5), (3.0, 9.0), (0.51, 363.0), (20.0, 6.0)])
    def test_closed_form_moments_match_scipy(self, alpha, beta):
        fit = PearsonFit((0.0, 1.0, 0.0, 0.0), alpha, beta, loc=0.25, scale=1.5)
        want = [float(m) for m in _oracle(fit).stats(moments="mvsk")]
        np.testing.assert_allclose(_fit_moments(fit), want, rtol=1e-12, atol=0.0)

    def test_perturbed_fit_is_refused(self):
        fit = pearson_fit(cumulants_exact())
        _verify_fit_moments(fit)
        with pytest.raises(ValueError, match="failed to reproduce"):
            _verify_fit_moments(dataclasses.replace(fit, beta=1.01 * fit.beta))

    def test_moments_that_do_not_exist_are_refused(self):
        # with beta <= 4 the kurtosis is infinite, with beta <= 2 the variance
        for beta in (3.5, 1.5):
            fit = PearsonFit((0.0, 1.0, 0.0, 0.0), 2.0, beta, loc=0.0, scale=1.0)
            with pytest.raises(ValueError, match="failed to reproduce"):
                _verify_fit_moments(fit)


class TestFitCache:
    """One immutable fit per cumulant set; a failing set fails every time."""

    def test_equal_sets_share_one_fit(self):
        assert pearson_fit(cumulants_exact()) is pearson_fit(cumulants_exact())

    def test_another_set_gets_another_fit(self):
        c = cumulants_exact()
        moved = CumulantSet(c.k1 + 1.0, c.k2, c.k3, c.k4)
        assert pearson_fit(moved) is not pearson_fit(c)
        assert pearson_fit(moved).source_moments[0] == c.k1 + 1.0

    def test_fit_is_immutable(self):
        fit = pearson_fit(cumulants_exact())
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.source_moments = (0.0, 1.0, 0.0, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.alpha = 1.0

    def test_shared_fit_is_bit_equal_to_a_fresh_one(self):
        c = cumulants_exact()
        shared, fresh = pearson_fit(c), pearson_fit.__wrapped__(c)
        assert fresh is not shared
        for p in (0.90, 0.95, 0.99):
            assert pearson_quantile(shared, p) == pearson_quantile(fresh, p)
        for x in (0.05, 0.1333, 0.46, 1.2):
            assert shared.cdf(x) == fresh.cdf(x)

    def test_infeasible_set_raises_on_every_call(self):
        c = CumulantSet(0.0, 1.0, 0.0, -2.5)
        for _ in range(2):
            with pytest.raises(ValueError, match="feasibility"):
                pearson_fit(c)


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
        mean, var, _, _ = pearson_fit(cumulants_exact()).source_moments
        assert mean == pytest.approx(EXACT[0], rel=1e-9)
        assert np.sqrt(var) == pytest.approx(np.sqrt(EXACT[1]), rel=1e-9)


# ---------------------------------------------------------------------------
# spectrum


class TestSpectrum:
    def test_sorted_descending_nonnegative(self):
        spec = nystrom_spectrum(order=256)
        eigs = spec.eigenvalues
        assert eigs.size == 256
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

    @pytest.mark.parametrize(
        "order, message", [(100.5, "order: expected an integer"), (np.nan, "order must be at least 64")]
    )
    def test_rejects_an_order_that_is_not_an_integer(self, order, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            nystrom_spectrum(order)
