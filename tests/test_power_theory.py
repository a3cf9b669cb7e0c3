"""Fixed-alternative theory: tail moments, discrepancy, variance, power.

The four built-in Beta alternatives carry hand-derived closed-form
constants; everything here checks those against fresh quadrature and
against a purely numerical rebuild from the distribution functions.
"""

import numpy as np
import pytest
from scipy import stats

from unigof import (
    AlternativeTheorySpec,
    PowerCurve,
    QuadratureRule,
    alt_kernel,
    approximate_power,
    asymptotic_variance,
    builtin_beta_specs,
    cdf,
    discrepancy,
    gauss_legendre,
    null_kernel,
    parse_spec,
    power_curve,
    spec_from_density,
    uniform_theory_spec,
)

RULE = gauss_legendre(128)
RULE_512 = gauss_legendre(512)

# exact constants, worked out by integrating the Beta densities by hand
EXACT_DELTA = {
    "beta(2,2)": 1.0 / 210.0,
    "beta(2,3)": 71.0 / 2310.0,
    "beta(1,0.5)": 53.0 / 945.0,
    "beta(0.5,0.5)": 2.0 / (3.0 * np.pi**2) + 1.0 / 30.0 - 3.0 / 32.0,
}
EXACT_SIGMA2 = {
    "beta(2,2)": 107297.0 / 94594500.0,
    "beta(2,3)": 13088573.0 / 2948195250.0,
    "beta(1,0.5)": 426456598.0 / 10854718875.0,
}

BETA_PARAMS = {
    "beta(2,2)": (2.0, 2.0),
    "beta(2,3)": (2.0, 3.0),
    "beta(1,0.5)": (1.0, 0.5),
    "beta(0.5,0.5)": (0.5, 0.5),
}


def by_name():
    return {s.name: s for s in builtin_beta_specs()}


def _sin2_mapped(rule):
    """The rule carried to (0, 1) by t = sin^2(pi x / 2)."""
    x, w = rule.nodes, rule.weights
    return QuadratureRule(np.sin(np.pi * x / 2.0) ** 2, w * (np.pi / 2.0) * np.sin(np.pi * x))


# ---------------------------------------------------------------------------
# uniform spec: everything degenerates


class TestUniformSpec:
    def test_psi_is_the_drift(self):
        spec = uniform_theory_spec()
        t = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(spec.psi(t), t * (1.0 - t), atol=1e-15)

    def test_constants_vanish(self):
        spec = uniform_theory_spec()
        assert spec.delta == 0.0
        assert spec.sigma2 == 0.0
        assert discrepancy(spec, RULE) == pytest.approx(0.0, abs=1e-14)
        assert asymptotic_variance(spec, RULE) == pytest.approx(0.0, abs=1e-13)

    def test_kernel_reduces_to_null_kernel(self):
        # on the closed square; the measured maximum difference is 2.8e-17
        spec = uniform_theory_spec()
        t = np.linspace(0.0, 1.0, 101)
        got = alt_kernel(spec, t[:, None], t[None, :])
        np.testing.assert_allclose(got, null_kernel(t[:, None], t[None, :]), rtol=0.0, atol=1e-16)

    def test_kernel_trace_is_the_null_mean(self):
        # int_0^1 K(t, t) dt = 2/15, the first cumulant of the limit law
        x, w = RULE.nodes, RULE.weights
        assert float(w @ alt_kernel(uniform_theory_spec(), x, x)) == pytest.approx(2.0 / 15.0, rel=0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# built-in Beta specs


class TestBuiltinConstants:
    def test_all_four_present(self):
        assert set(by_name()) == set(BETA_PARAMS)

    @pytest.mark.parametrize("name", sorted(EXACT_DELTA))
    def test_stored_delta_matches_closed_form(self, name):
        assert by_name()[name].delta == pytest.approx(EXACT_DELTA[name], abs=1e-12)

    @pytest.mark.parametrize("name", sorted(EXACT_SIGMA2))
    def test_stored_sigma2_matches_closed_form(self, name):
        assert by_name()[name].sigma2 == pytest.approx(EXACT_SIGMA2[name], abs=1e-12)

    def test_arcsine_sigma2_pin(self):
        # the arcsine variance has no closed form; recompute it on a rule
        # mapped by t = sin^2(pi x / 2), which clusters nodes at both ends
        # where the density is infinite, at twice the order of the pin
        spec = by_name()["beta(0.5,0.5)"]
        assert asymptotic_variance(spec, _sin2_mapped(RULE_512)) == pytest.approx(spec.sigma2, rel=1e-12, abs=0.0)

    def test_arcsine_sigma2_is_stable_in_the_order(self):
        # the pin's mapped rule gives one variance at orders 256 to 2048
        spec = by_name()["beta(0.5,0.5)"]
        values = [asymptotic_variance(spec, _sin2_mapped(gauss_legendre(order))) for order in (256, 512, 1024, 2048)]
        assert max(values) - min(values) <= 1e-14 * values[0]

    @pytest.mark.parametrize("name", sorted(BETA_PARAMS))
    def test_delta_recomputed_by_quadrature(self, name):
        spec = by_name()[name]
        assert discrepancy(spec, RULE) == pytest.approx(spec.delta, abs=1e-8)

    @pytest.mark.parametrize("name", sorted(BETA_PARAMS))
    def test_sigma2_recomputed_by_quadrature(self, name):
        spec = by_name()[name]
        assert asymptotic_variance(spec, RULE) == pytest.approx(spec.sigma2, abs=1e-8)


class TestBuiltinTailMoments:
    @pytest.mark.parametrize("name", sorted(BETA_PARAMS))
    def test_psi_endpoints(self, name):
        # psi(0) = 2 E U - 1 and psi(1) = 0
        a, b = BETA_PARAMS[name]
        spec = by_name()[name]
        assert spec.psi(np.array([0.0]))[0] == pytest.approx(
            2.0 * a / (a + b) - 1.0, abs=1e-12
        )
        assert spec.psi(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(BETA_PARAMS))
    def test_second_tail_moment_at_zero(self, name):
        # m2t(0) = E (2U - 1)^2, available from the Beta moments directly
        a, b = BETA_PARAMS[name]
        m, v = (float(x) for x in stats.beta(a, b).stats(moments="mv"))
        spec = by_name()[name]
        want = 4.0 * (v + m * m) - 4.0 * m + 1.0
        assert spec.second_moment_tail(np.array([0.0]))[0] == pytest.approx(
            want, abs=1e-12
        )

    @pytest.mark.parametrize("name", sorted(BETA_PARAMS))
    def test_second_tail_moment_nonincreasing(self, name):
        spec = by_name()[name]
        t = np.linspace(0.0, 1.0, 201)
        m2 = spec.second_moment_tail(t)
        assert np.all(np.diff(m2) <= 1e-12)
        assert m2[-1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(BETA_PARAMS))
    def test_psi_matches_direct_integration(self, name):
        # psi(t) = int_t^1 (2u - 1) f(u) du with the scipy density; the
        # half-integer shapes have a 1/sqrt(1-u) singularity at the upper
        # endpoint, removed by substituting u = 1 - v^2
        a, b = BETA_PARAMS[name]
        spec = by_name()[name]
        xi, w = RULE.nodes, RULE.weights
        dist = stats.beta(a, b)
        for t in (0.1, 0.3, 0.5, 0.8):
            if b >= 1.0:
                u = t + (1.0 - t) * xi
                want = (1.0 - t) * np.sum(w * (2.0 * u - 1.0) * dist.pdf(u))
            else:
                vmax = np.sqrt(1.0 - t)
                v = vmax * xi
                u = 1.0 - v * v
                want = vmax * np.sum(w * (2.0 * u - 1.0) * dist.pdf(u) * 2.0 * v)
            assert spec.psi(np.array([t]))[0] == pytest.approx(want, abs=1e-9)


class TestAltKernel:
    def test_symmetry(self, rng):
        s = rng.random(30)
        t = rng.random(30)
        for name in ("beta(2,3)", "beta(2,2)"):
            spec = by_name()[name]
            K1 = alt_kernel(spec, s[:, None], t[None, :])
            K2 = alt_kernel(spec, t[None, :], s[:, None])
            np.testing.assert_allclose(K1, K2, atol=1e-14)

    def test_scalar_arguments_give_a_float(self):
        assert type(alt_kernel(by_name()["beta(2,2)"], 0.3, 0.7)) is float

    def test_structure_second_moment_minus_product(self):
        spec = by_name()["beta(2,2)"]
        s, t = 0.3, 0.7
        want = spec.second_moment_tail(np.array([0.7]))[0] - spec.psi(
            np.array([s])
        )[0] * spec.psi(np.array([t]))[0]
        assert alt_kernel(spec, s, t) == pytest.approx(want, abs=1e-14)

    def test_diagonal_is_variance_of_weight(self):
        # K(t,t) = Var[(2U-1) 1{U >= t}]
        spec = by_name()["beta(2,3)"]
        t = 0.4
        draws = stats.beta(2, 3).rvs(size=400000, random_state=7)
        w = (2.0 * draws - 1.0) * (draws >= t)
        assert alt_kernel(spec, t, t) == pytest.approx(np.var(w), abs=2e-3)


# ---------------------------------------------------------------------------
# numerical rebuild from the distribution function


@pytest.mark.parametrize("name", ["beta(2,2)", "beta(2,3)"])
def test_spec_from_density_matches_closed_forms(name):
    a, b = BETA_PARAMS[name]
    builtin = by_name()[name]
    numeric = spec_from_density(name, stats.beta(a, b).cdf, gauss_legendre(192))
    t = np.linspace(0.02, 0.98, 25)
    np.testing.assert_allclose(numeric.psi(t), builtin.psi(t), atol=1e-12)
    np.testing.assert_allclose(
        numeric.second_moment_tail(t), builtin.second_moment_tail(t), atol=1e-12
    )
    assert numeric.delta == pytest.approx(builtin.delta, abs=1e-10)
    assert numeric.sigma2 == pytest.approx(builtin.sigma2, abs=1e-10)


@pytest.mark.parametrize("name", sorted(BETA_PARAMS))
def test_spec_from_density_at_order_128_holds_every_closed_form(name):
    # the half-integer shapes have a density that is infinite at an end;
    # integrating against the survival function keeps them to about 1e-6
    law = parse_spec(name)
    builtin = by_name()[name]
    numeric = spec_from_density(name, lambda x: cdf(law, x), RULE)
    t = np.linspace(0.02, 0.98, 25)
    np.testing.assert_allclose(numeric.psi(t), builtin.psi(t), rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(numeric.second_moment_tail(t), builtin.second_moment_tail(t), rtol=0.0, atol=1e-6)
    assert numeric.delta == pytest.approx(builtin.delta, rel=1e-5)
    assert numeric.sigma2 == pytest.approx(builtin.sigma2, rel=1e-5)


@pytest.mark.parametrize(
    "name", ["beta(2,2)", "beta(2,3)", "kumaraswamy(1.5,2.5)", "truncnormal(0.5,0.25)"]
)
def test_spec_from_density_agrees_with_the_grid_route(name):
    # sigma2 by parts against F and by the generic product grid are two
    # quadratures of one integral; delta comes from the same node values
    law = parse_spec(name)
    spec = spec_from_density(name, lambda x: cdf(law, x), RULE)
    bare = AlternativeTheorySpec(name, spec.psi, spec.second_moment_tail, spec.delta, spec.sigma2)
    assert spec.sigma2 == pytest.approx(asymptotic_variance(bare, RULE), rel=1e-12, abs=0.0)
    assert spec.delta == discrepancy(bare, RULE)


def test_spec_from_density_evaluates_the_cdf_on_a_few_grids():
    # psi, m2 and F at the nodes come from one map of the rule onto (t, 1),
    # and the inner integral of sigma2 maps it onto (0, t): two 128 x 128
    # grids and F at the 128 nodes, where psi on the whole product grid
    # would take about 2.1M points
    law = parse_spec("beta(0.7,1.3)")
    points = []

    def counted(x):
        points.append(np.size(x))
        return cdf(law, x)

    spec_from_density("beta(0.7,1.3)", counted, RULE)
    assert sum(points) == 2 * 128**2 + 128


def test_spec_from_density_handles_matrix_arguments():
    numeric = spec_from_density("beta(2,2)", stats.beta(2, 2).cdf, RULE)
    t = np.linspace(0.1, 0.9, 6).reshape(2, 3)
    assert numeric.psi(t).shape == (2, 3)
    assert numeric.second_moment_tail(t).shape == (2, 3)


# ---------------------------------------------------------------------------
# normal power approximation


class TestApproximatePower:
    def test_half_at_the_crossing_point(self):
        # when delta equals c_n / n the shifted mean is zero
        assert approximate_power(0.01, 0.004, 50, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_in_n(self):
        spec = by_name()["beta(2,2)"]
        n = np.arange(10, 400, 10)
        p = np.array([approximate_power(spec.delta, spec.sigma2, k, 0.462) for k in n])
        assert np.all(np.diff(p) > 0.0)
        assert p[-1] > 0.97

    def test_small_power_when_delta_zero(self):
        assert approximate_power(0.0, 0.004, 100, 0.462) < 0.5

    def test_anchor_beta22_n200(self):
        # Phi(sqrt(n / sigma2) (delta - c/n)) at the asymptotic 5% point
        spec = by_name()["beta(2,2)"]
        got = approximate_power(spec.delta, spec.sigma2, 200, 0.462)
        assert got == pytest.approx(0.848395, abs=1e-4)

    def test_saturates_for_strong_alternatives(self):
        spec = by_name()["beta(2,3)"]
        assert approximate_power(spec.delta, spec.sigma2, 200, 0.462) > 0.999

    def test_rejects_degenerate_variance(self):
        with pytest.raises(ValueError, match="positive"):
            approximate_power(0.01, 0.0, 50, 0.462)

    def test_rejects_negative_discrepancy(self):
        with pytest.raises(ValueError):
            approximate_power(-0.01, 0.004, 50, 0.462)

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError):
            approximate_power(0.01, 0.004, 0, 0.462)


@pytest.mark.parametrize(
    "call",
    [
        lambda: approximate_power(np.nan, 0.004, 50, 0.462),
        lambda: approximate_power(0.01, np.nan, 50, 0.462),
        lambda: approximate_power(0.01, 0.004, 10.5, 0.462),
        lambda: power_curve(by_name()["beta(2,3)"], 0.05, [10.7, 20], 0.462),
        lambda: power_curve(by_name()["beta(2,3)"], 0.05, [20, 50], np.nan),
    ],
    ids=["nan-delta", "nan-sigma2", "fractional-n", "fractional-size", "nan-critical-value"],
)
def test_power_refuses_nan_and_fractional_sizes(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# curves


class TestPowerCurve:
    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            PowerCurve("x", 0.05, [10, 20], [0.5])
        with pytest.raises(ValueError):
            PowerCurve("x", 0.05, [10], [0.5], empirical_power=[0.4, 0.6])

    def test_write_csv_without_empirical(self, tmp_path):
        curve = PowerCurve("beta(2,3)", 0.05, [10, 20], [0.25, 0.5])
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,approx_power,empirical_power,mc_se"
        assert lines[1] == "10,0.25,,"
        assert len(lines) == 3

    @pytest.mark.parametrize("constants", [{}, {"delta": 0.03}, {"sigma2": 0.004}],
                             ids=["neither", "no-sigma2", "no-delta"])
    def test_spec_needs_both_constants(self, constants):
        spec = by_name()["beta(2,3)"]
        with pytest.raises(TypeError):
            AlternativeTheorySpec(spec.name, spec.psi, spec.second_moment_tail, **constants)

    def test_power_curve_with_constants_builds_no_rule(self, monkeypatch):
        import unigof.power_theory as pt

        def no_rule(order):
            raise AssertionError("power_curve built a quadrature rule it does not need")

        monkeypatch.setattr(pt, "gauss_legendre", no_rule)
        curve = power_curve(by_name()["beta(2,3)"], 0.05, [20, 50], 0.462)
        assert curve.sample_sizes == [20, 50]
        assert len(curve.approx_power) == 2
        assert curve.empirical_power is None

    def test_power_curve_rejects_empty_sizes(self):
        with pytest.raises(ValueError):
            power_curve(by_name()["beta(2,2)"], 0.05, [], 0.462)

    @pytest.mark.parametrize("spec", [uniform_theory_spec(), by_name()["beta(2,3)"]], ids=["degenerate", "beta(2,3)"])
    @pytest.mark.parametrize(
        "alpha, sizes, match",
        [
            (0.05, [0, -3], r"^sizes must be positive integers, got \[0, -3\]$"),
            (0.05, [2.5], "^sizes: expected an integer, got 2.5$"),
            (np.nan, [20], r"^alpha must lie strictly inside \(0, 1\), got nan$"),
            (0.0, [20], r"^alpha must lie strictly inside \(0, 1\), got 0.0$"),
            (1.0, [20], r"^alpha must lie strictly inside \(0, 1\), got 1.0$"),
        ],
        ids=["nonpositive-sizes", "fractional-size", "nan-alpha", "zero-alpha", "unit-alpha"],
    )
    def test_power_curve_checks_sizes_and_alpha_whatever_sigma2(self, spec, alpha, sizes, match):
        # the degenerate spec has no normal approximation; the checks must not rest on it
        with pytest.raises(ValueError, match=match):
            power_curve(spec, alpha, sizes, 0.462)
