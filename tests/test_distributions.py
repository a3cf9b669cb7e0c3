"""Alternative distribution catalog: samplers, CDFs, and the spec grammar.

Every sampler is validated against its own distribution function with a
KS distance bound, and the CDFs carry closed-form anchors.
"""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats

from unigof import (
    AlternativeSpec,
    cdf,
    check_support,
    parse_spec,
    sample,
    support,
)
from unigof.distributions import _TABLE, FAMILIES, GRAMMAR_HELP, covers

# one representative per family, plus decorated composites
CATALOG = [
    "uniform",
    "beta(2,3)",
    "tn(0.25,0.5)",
    "kum(1.5,2.5)",
    "s1(0.7)",
    "s2(1.5)",
    "s3(0.7)",
    "weibull(0.8)",
    "gamma(0.7)",
    "sn(2.5)",
    "sn(-1.5)",
    "lfr(0.5)",
    "eg(0.3)",
    "t(5)",
    "chisq(5)",
    "hn(1)",
    "normal(1,9)",
    "pareto(2)",
    "mix(0.75,beta(2,3),u)",
    "gamma(0.8)+1",
    "mix(0.75,gamma(0.7)+1,pareto(1))",
    "mix(0.5,z,n(1,9))",
]


def spec_of(text: str) -> AlternativeSpec:
    return parse_spec(text)


_NUMBERS = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def random_specs(draw, depth: int = 0) -> AlternativeSpec:
    """Any valid spec: a family with arbitrary finite parameters, or a mixture two deep, each maybe +1."""
    shift = draw(st.booleans())
    if depth < 2 and draw(st.integers(0, 3)) == 0:
        parts = (draw(st.floats(0.0, 1.0)), draw(random_specs(depth + 1)), draw(random_specs(depth + 1)))
        return AlternativeSpec("mixture", mixture=parts, translate_by_one=shift)
    family = draw(st.sampled_from(sorted(_TABLE)))
    params = tuple(draw(_NUMBERS) for _ in range(_TABLE[family].arity))
    try:
        return AlternativeSpec(family, params, translate_by_one=shift)
    except ValueError:
        assume(False)


# ---------------------------------------------------------------------------
# samplers against their own CDFs


@pytest.mark.parametrize("text", CATALOG)
def test_sampler_matches_own_cdf(text, rng):
    # KS distance should sit well inside the 1% band 1.63 / sqrt(n)
    n = 40000
    spec = spec_of(text)
    d = stats.kstest(sample(spec, n, rng).values, lambda x: cdf(spec, x)).statistic
    assert d < 1.63 / np.sqrt(n), f"{text}: d={d:.5f}"


def test_every_family_appears_in_catalog():
    covered = set()

    def visit(s: AlternativeSpec):
        covered.add(s.family)
        if s.mixture is not None:
            visit(s.mixture[1])
            visit(s.mixture[2])

    for text in CATALOG:
        visit(spec_of(text))
    assert covered == set(FAMILIES)


# one spec per family, so a family added without a case here fails
TABLE_CASES = [
    "uniform", "beta(0.5,0.5)", "tn(0.25,0.5)", "kum(0.5,2.5)", "s1(0.7)", "s2(0.6)",
    "s3(2)", "weibull(0.8)", "gamma(0.7)", "sn(2.5)", "lfr(0.5)", "eg(0.3)", "t(5)",
    "chisq(5)", "hn(1)", "normal(1,9)", "pareto(2)",
]


def test_table_cases_cover_every_family():
    assert {spec_of(text).family for text in TABLE_CASES} == set(FAMILIES) - {"mixture"}


@pytest.mark.parametrize("text", TABLE_CASES + ["gamma(0.8)+1", "mix(0.5,s3(0.5),eg(0.3)+1)"])
def test_laws_respect_the_declared_support(text, rng):
    spec = spec_of(text)
    lo, hi = support(spec)
    draws = sample(spec, 5000, rng).values
    assert np.all((draws >= lo) & (draws <= hi))
    assert covers(spec, np.r_[draws, [lo, hi]]).all()
    outside = []
    if np.isfinite(lo):
        assert np.all(np.asarray(cdf(spec, [-np.inf, lo - 1.0, np.nextafter(lo, -np.inf), lo])) == 0.0)
        outside += [-np.inf, lo - 1.0, np.nextafter(lo, -np.inf)]
    if np.isfinite(hi):
        assert np.all(np.asarray(cdf(spec, [hi, np.nextafter(hi, np.inf), hi + 1.0, np.inf])) == 1.0)
        outside += [np.nextafter(hi, np.inf), hi + 1.0, np.inf]
    assert not covers(spec, outside).any()
    assert np.isnan(cdf(spec, np.nan))


def test_grammar_help_names_every_family():
    # each entry is tag|alias...(params), in table order
    listed = GRAMMAR_HELP.split("names: ")[1].split(";")[0].split(", ")
    assert len(listed) == len(_TABLE)
    for entry, (tag, family) in zip(listed, _TABLE.items()):
        names, _, params = entry.partition("(")
        assert names.split("|") == [tag, *family.aliases]
        assert params == (f"{family.params})" if family.arity else "")
        # every name in the entry reads back as the tag with the listed arity
        numbers = ",".join(["0.5"] * family.arity)
        for name in names.split("|"):
            assert parse_spec(f"{name}({numbers})" if numbers else name).family == tag


def test_readme_grammar_block_is_the_help():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"### Alternative grammar\n.*?```\n(.*?)```", readme, re.S).group(1)
    assert " ".join(block.split()) == GRAMMAR_HELP.split("; example: ")[0]


def test_sampling_is_deterministic_given_generator(rng):
    spec = spec_of("beta(2,3)")
    a = sample(spec, 100, np.random.default_rng(7)).values
    b = sample(spec, 100, np.random.default_rng(7)).values
    np.testing.assert_array_equal(a, b)


def test_sample_rejects_empty(rng):
    with pytest.raises(ValueError):
        sample(spec_of("uniform"), 0, rng)


@pytest.mark.parametrize("n", [10.5, np.nan])
def test_sample_rejects_a_size_that_is_not_an_integer(n, rng):
    with pytest.raises(ValueError, match="^n: expected an integer"):
        sample(spec_of("uniform"), n, rng)


def test_sample_takes_a_numpy_integer_size(rng):
    assert sample(spec_of("uniform"), np.int64(5), rng).values.shape == (5,)


def test_lfr_at_slope_zero_draws_the_unit_exponential():
    # at theta = 0 the general inversion is 0 / 0; the draw is the hazard itself
    got = sample(spec_of("lfr(0)"), 4097, np.random.default_rng(5)).values
    want = sample(spec_of("weibull(1)"), 4097, np.random.default_rng(5)).values
    np.testing.assert_array_equal(got, want)


# hand inversions of the stephens1-3 CDFs: the reference that the table's
# samplers, each its own CDF at shape 1/k, must equal bit for bit


def _by_half(u: np.ndarray, lower, upper) -> np.ndarray:
    """``lower(u)`` where u <= 1/2 and ``upper(u)`` elsewhere."""
    low = u <= 0.5
    out = np.empty(u.size)
    out[low] = lower(u[low])
    out[~low] = upper(u[~low])
    return out


INVERTED_DRAWS = {
    "stephens1": lambda p, n, rng: 1.0 - (1.0 - rng.random(n)) ** (1.0 / p[0]),
    "stephens2": lambda p, n, rng: _by_half(
        rng.random(n),
        lambda u: 0.5 * (2.0 * u) ** (1.0 / p[0]),
        lambda u: 1.0 - 0.5 * (2.0 * (1.0 - u)) ** (1.0 / p[0]),
    ),
    "stephens3": lambda p, n, rng: _by_half(
        rng.random(n),
        lambda u: 0.5 * (1.0 - (1.0 - 2.0 * u) ** (1.0 / p[0])),
        lambda u: 0.5 * (1.0 + (2.0 * u - 1.0) ** (1.0 / p[0])),
    ),
}


@pytest.mark.parametrize("family", sorted(INVERTED_DRAWS))
@pytest.mark.parametrize("k", [0.3, 1.0, 2.5])
def test_stephens_samplers_equal_the_hand_inversions_bit_for_bit(family, k):
    for seed in range(6):
        got = sample(AlternativeSpec(family, (k,)), 4097, np.random.default_rng(seed)).values
        want = INVERTED_DRAWS[family]((k,), 4097, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# CDF anchors and identities


class TestCdf:
    def test_closed_form_anchors(self):
        assert cdf(spec_of("pareto(1)"), 2.0) == pytest.approx(0.5, abs=1e-15)
        assert cdf(spec_of("s2(1.5)"), 0.5) == pytest.approx(0.5, abs=1e-15)
        assert cdf(spec_of("s3(0.7)"), 0.5) == pytest.approx(0.5, abs=1e-15)
        assert cdf(spec_of("beta(2,2)"), 0.5) == pytest.approx(0.5, abs=1e-15)
        assert cdf(spec_of("lfr(0)"), np.log(2.0)) == pytest.approx(0.5, abs=1e-15)
        assert cdf(spec_of("weibull(1)"), np.log(2.0)) == pytest.approx(0.5, abs=1e-15)
        # S1(k) inverts to 1 - (1-x)^k
        assert cdf(spec_of("s1(0.7)"), 0.3) == pytest.approx(
            1.0 - 0.7**0.7, abs=1e-15
        )

    def test_kumaraswamy_unit_shape_is_uniform(self):
        x = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(cdf(spec_of("kum(1,1)"), x), x, atol=1e-15)

    def test_stephens1_unit_shape_is_uniform(self):
        x = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(cdf(spec_of("s1(1)"), x), x, atol=1e-15)

    def test_mixture_is_convex_combination(self):
        a, b = spec_of("beta(2,3)"), spec_of("uniform")
        m = spec_of("mix(0.75,beta(2,3),u)")
        x = np.linspace(0.0, 1.0, 31)
        np.testing.assert_allclose(
            cdf(m, x), 0.75 * np.asarray(cdf(a, x)) + 0.25 * np.asarray(cdf(b, x)),
            atol=1e-15,
        )

    def test_translation_shifts_cdf(self):
        base, shifted = spec_of("gamma(0.8)"), spec_of("gamma(0.8)+1")
        x = np.linspace(0.5, 6.0, 23)
        np.testing.assert_allclose(cdf(shifted, x + 1.0), cdf(base, x), atol=1e-15)
        assert cdf(shifted, 1.0) == 0.0

    def test_monotone_and_bounded(self, rng):
        for text in CATALOG:
            x = np.sort(rng.normal(scale=3.0, size=200)) + 1.0
            F = np.asarray(cdf(spec_of(text), x))
            assert np.all((F >= 0.0) & (F <= 1.0)), text
            assert np.all(np.diff(F) >= -1e-15), text

    def test_normal_second_parameter_is_variance(self):
        # quartiles of N(1, 9) sit at 1 +/- 0.6745 * 3
        assert cdf(spec_of("normal(1,9)"), 1.0 + 3.0 * 0.6744897501960817) == (
            pytest.approx(0.75, abs=1e-12)
        )

    def test_truncnormal_second_parameter_is_variance(self):
        # TN(0, 4): large variance flattens the density towards uniform,
        # and the CDF at the midpoint stays above 1/2 for mu = 0
        assert cdf(spec_of("tn(0,4)"), 0.5) > 0.5

    @pytest.mark.parametrize("text", ["tn(-1,0.01)", "tn(-3,0.25)", "tn(-0.1,0.04)"])
    def test_truncnormal_in_the_upper_tail(self, text, rng):
        # mu < 0 puts [0, 1] in the normal's upper tail, where the CDF rounds
        # to one (tn(-1,0.01) spans 10 to 20 SDs), so these specs are
        # evaluated through the mirrored lower tail
        spec = spec_of(text)
        grid = np.linspace(0.0, 1.0, 201)
        F = np.asarray(cdf(spec, grid))
        assert np.all(np.isfinite(F)) and np.all(np.diff(F) >= 0.0)
        assert F[0] == 0.0 and F[-1] == pytest.approx(1.0, abs=1e-15)
        # mirror image: TN(mu) at y is one minus TN(1 - mu) at 1 - y
        mirror = spec_of(f"tn({1.0 - spec.params[0]:g},{spec.params[1]:g})")
        np.testing.assert_allclose(F, 1.0 - np.asarray(cdf(mirror, 1.0 - grid)), atol=1e-13)
        # 1e5 draws stay inside the 99.9% Dvoretzky-Kiefer-Wolfowitz band
        n = 100_000
        x = np.sort(sample(spec, n, rng).values)
        Fx = np.asarray(cdf(spec, x))
        ks = max(np.max(np.arange(1, n + 1) / n - Fx), np.max(Fx - np.arange(n) / n))
        assert ks < np.sqrt(np.log(2.0 / 0.001) / (2.0 * n))


class TestMixtureCdf:
    @pytest.mark.parametrize("text", ["mix(0,beta(0.5,0.5),u)", "mix(1,u,beta(0.5,0.5))"])
    def test_a_component_never_drawn_adds_nothing(self, text):
        x = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(cdf(spec_of(text), x), x)

    def test_a_mixture_is_the_share_weighted_sum_of_its_shifted_components(self):
        x = np.concatenate([np.linspace(0.5, 2.5, 801), [1.0, 1.5, 2.0, -np.inf, np.inf, np.nan]])
        mixed, a, b = spec_of("mix(0.3,s3(0.5),s2(2))+1"), spec_of("s3(0.5)"), spec_of("s2(2)")
        assert_bit_equal(cdf(mixed, x), 0.3 * cdf(a, x - 1.0) + (1.0 - 0.3) * cdf(b, x - 1.0))


# ---------------------------------------------------------------------------
# scipy.stats as the oracle of the families evaluated through scipy.special

ORACLES = {
    "beta": lambda p: stats.beta(*p),
    "gamma": lambda p: stats.gamma(*p),
    "t": lambda p: stats.t(*p),
    "chisq": lambda p: stats.chi2(*p),
}
ORACLE_SPECS = [
    "beta(2,3)", "beta(0.5,0.5)", "beta(1,1)", "beta(1,0.5)", "beta(5,5)", "beta(0.3,7)",
    "gamma(0.7)", "gamma(1)", "gamma(2)", "gamma(30)",
    "t(5)", "t(1)", "t(0.3)", "t(2.5)",
    "chisq(5)", "chisq(1)", "chisq(2)", "chisq(0.4)",
]


def _oracle_grid(spec):
    """Support end points, an interior spread and NaN."""
    lo, hi = support(spec)
    if hi == 1.0:
        inner = np.linspace(0.0, 1.0, 101)[1:-1]
    elif lo == 0.0:
        inner = np.concatenate([[1e-300, 1e-12], np.geomspace(1e-6, 200.0, 120)])
    else:
        inner = np.concatenate([-np.geomspace(1e-6, 1e6, 60), [-0.0, 0.0], np.geomspace(1e-6, 1e6, 60)])
    return np.concatenate([[lo, hi, np.nan], inner])


def assert_bit_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.signbit(got[~np.isnan(got)]), np.signbit(want[~np.isnan(want)]))


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_cdf_is_bit_equal_to_scipy_stats(text):
    spec = spec_of(text)
    x = _oracle_grid(spec)
    assert_bit_equal(cdf(spec, x), ORACLES[spec.family](spec.params).cdf(x))


FAR = [-np.inf, -1.7e308, -1e300, -1e160, 1e160, 1e300, 1.7e308, np.inf]


@pytest.mark.parametrize(
    "text",
    ["t(5)", "t(30)", "z", "normal(1,9)", "hn(1)", "hn(0.01)", "sn(2.5)", "sn(-2.5)", "lfr(0)", "lfr(0.5)",
     "lfr(3)", "weibull(1.5)", "weibull(5)", "weibull(100)", "mix(0.5,w(3),lfr(2))", "mix(0.5,z,t(5))"],
)
def test_far_tails_give_the_limits_without_warnings(text):
    # the formulas overflow on the way (y * y, y ** k, y / scale), and lfr(0)
    # would meet 0 * inf at +inf; the values themselves are exact
    spec = spec_of(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalars = [cdf(spec, x) for x in FAR]
        array = cdf(spec, np.array(FAR))
    limits = [1.0 if x > 0 else 0.0 for x in FAR]
    assert scalars == limits
    assert_bit_equal(array, limits)

# ---------------------------------------------------------------------------
# validation


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            AlternativeSpec("cauchy", (1.0,))

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            AlternativeSpec("beta", (2.0,))

    def test_positive_shape_required(self):
        with pytest.raises(ValueError):
            AlternativeSpec("beta", (-1.0, 2.0))
        with pytest.raises(ValueError):
            AlternativeSpec("normal", (0.0, 0.0))

    @pytest.mark.parametrize("params", [(np.nan, 2.0), (2.0, np.nan)])
    def test_nan_shape_rejected(self, params):
        with pytest.raises(ValueError, match="^beta shapes must be positive$"):
            AlternativeSpec("beta", params)

    @pytest.mark.parametrize("text, message", [
        ("normal(0,1e400)", "normal parameters must be finite, got inf"),
        ("n(-1e400,1)", "normal parameters must be finite, got -inf"),
        ("sn(1e400)", "skewnormal parameters must be finite, got inf"),
        ("mix(0.5,u,tn(1e309,1))", "truncnormal parameters must be finite, got inf"),
    ])
    def test_infinite_parameter_rejected(self, text, message):
        with pytest.raises(ValueError, match=f": {message}\\. "):
            parse_spec(text)

    @pytest.mark.parametrize("text, label", [
        ("tn(-4,0.01)", "truncnormal(-4,0.01)"),
        ("tn(5,0.01)", "truncnormal(5,0.01)"),
        ("mix(0.5,u,tn(-4,0.01))", "truncnormal(-4,0.01)"),
        ("tn(1.5e308,0.5)", "truncnormal(1.5e+308,0.5)"),  # the ends' z-scores overflow to -inf
    ])
    def test_truncnormal_without_mass_on_the_interval_rejected(self, text, label):
        # [0, 1] lies 40 to 50 SDs from the mean, so its normal mass
        # underflows to zero and the CDF would be 0/0
        with pytest.raises(ValueError, match=re.escape(f": {label}: [0, 1] carries no normal mass in double precision. ")):
            parse_spec(text)

    def test_truncnormal_with_a_subnormal_mass_rejected(self):
        # the mass of tn(-4,0.0113) on [0, 1] is 3.6e-310, a subnormal
        # double, and its CDF at 0.01 read 1.0 against 0.97 at tn(-4,0.0115)
        with pytest.raises(ValueError, match="no normal mass"):
            parse_spec("tn(-4,0.0113)")
        assert 0.9 < float(cdf(parse_spec("tn(-4,0.0115)"), 0.01)) < 0.99

    def test_expgeometric_parameter_range(self):
        AlternativeSpec("expgeometric", (0.0,))
        with pytest.raises(ValueError):
            AlternativeSpec("expgeometric", (1.0,))

    def test_mixture_weight_range(self):
        u = AlternativeSpec("uniform")
        with pytest.raises(ValueError):
            AlternativeSpec("mixture", mixture=(1.2, u, u))

    def test_mixture_triple_required(self):
        with pytest.raises(ValueError):
            AlternativeSpec("mixture")

    def test_mixture_components_must_be_specs(self):
        u = AlternativeSpec("uniform")
        with pytest.raises(ValueError, match="^mixture components must be AlternativeSpec values$"):
            AlternativeSpec("mixture", mixture=(0.5, u, "uniform"))

    def test_mixture_rejects_parameters(self):
        u = AlternativeSpec("uniform")
        with pytest.raises(ValueError, match=r"^a mixture takes no parameters of its own, got \(3\.0, 4\.0\)$"):
            AlternativeSpec("mixture", (3.0, 4.0), mixture=(0.5, u, u))

    def test_non_mixture_rejects_triple(self):
        u = AlternativeSpec("uniform")
        with pytest.raises(ValueError):
            AlternativeSpec("beta", (2.0, 3.0), mixture=(0.5, u, u))


def inside(text, family):
    """Whether ``check_support`` accepts the spec for the null ``family``."""
    try:
        check_support(spec_of(text), family)
    except ValueError as exc:
        assert spec_of(text).label() in str(exc)
        assert f"the support of the {family} null" in str(exc)
        return False
    return True


class TestSupportsUnitInterval:
    """``check_support`` against the uniform null, whose support is [0, 1]."""

    def test_unit_families(self):
        for text in ("uniform", "beta(2,3)", "tn(0,1)", "kum(2,2)", "s1(0.7)"):
            assert inside(text, "uniform"), text

    def test_real_line_families(self):
        for text in ("gamma(1)", "normal(0,1)", "pareto(2)", "t(5)"):
            assert not inside(text, "uniform"), text

    def test_translation_leaves_unit_interval(self):
        assert not inside("beta(2,3)+1", "uniform")

    def test_mixture_requires_both_components(self):
        assert inside("mix(0.5,u,beta(2,2))", "uniform")
        assert not inside("mix(0.5,u,gamma(1))", "uniform")

    def test_mixture_ignores_a_component_it_never_draws(self):
        assert inside("mix(0,gamma(1),beta(2,2))", "uniform")
        assert inside("mix(1,u,normal(0,1))", "uniform")
        assert inside("mix(1,pareto(2),gamma(1))", "pareto")
        assert not inside("mix(0,pareto(2),gamma(1))", "pareto")

    def test_error_names_the_spec_and_the_closed_interval(self):
        with pytest.raises(ValueError, match=r"gamma\(1\) can draw values outside \[0, 1\]"):
            check_support(spec_of("gamma(1)"), "uniform")


class TestSupportsAboveOne:
    """``check_support`` against the Pareto null, whose support is [1, inf]."""

    def test_pareto_null_support(self):
        for text in ("pareto(2)", "gamma(0.8)+1", "weibull(0.7)+1", "beta(2,3)+1",
                     "mix(0.75,gamma(0.7)+1,pareto(1))", "mix(0.5,gamma(1),chisq(2))+1"):
            assert inside(text, "pareto"), text

    def test_draws_below_one(self):
        for text in ("gamma(1)", "beta(2,3)", "normal(3,9)", "t(5)+1", "sn(1)+1",
                     "mix(0.5,pareto(2),gamma(1))", "mix(0.5,gamma(1),normal(0,1))+1"):
            assert not inside(text, "pareto"), text


class TestCovers:
    """``covers``: membership in the support itself, not in its hull."""

    def test_mixture_gap(self):
        # mass on [0, 1] and [2, 3]; the hull [0, 3] also holds the gap
        spec = spec_of("mix(0.5,u,mix(0.5,u+1,u+1)+1)")
        assert support(spec) == (0.0, 3.0)
        np.testing.assert_array_equal(
            covers(spec, [0.0, 1.0, 1.5, 1.6, 2.0, 3.0, 3.5]), [True, True, False, False, True, True, False]
        )

    def test_component_never_drawn(self):
        assert not covers(spec_of("mix(0,gamma(1),u+1)"), 0.5)
        assert covers(spec_of("mix(0,gamma(1),u+1)"), 1.5)
        # u+1 is drawn with probability 1e-400, which no double holds, but is drawn
        assert covers(spec_of("mix(1e-200,mix(1e-200,u+1,u),u)"), 1.5)


def test_the_normal_null_accepts_every_law():
    for text in TABLE_CASES + ["gamma(0.8)+1", "mix(0.5,s3(0.5),eg(0.3)+1)"]:
        assert inside(text, "normal"), text


# ---------------------------------------------------------------------------
# grammar


class TestGrammar:
    @pytest.mark.parametrize("text", CATALOG)
    def test_label_round_trips(self, text):
        spec = spec_of(text)
        assert parse_spec(spec.label()) == spec

    def test_aliases(self):
        assert parse_spec("z") == parse_spec("normal(0,1)")
        assert parse_spec("p(2)") == parse_spec("pareto(2)")
        assert parse_spec("g(1)") == parse_spec("gamma(1)")
        assert parse_spec("w(0.8)") == parse_spec("weibull(0.8)")
        assert parse_spec("k(2,3)") == parse_spec("kum(2,3)")
        assert parse_spec("chi2(5)") == parse_spec("chisq(5)")

    def test_whitespace_and_case_insensitive(self):
        for text in ("Beta( 2 , 3 )", "beta(2,3)\n", "beta(2,\t3)", " beta(2,\r\n3) "):
            assert parse_spec(text) == parse_spec("beta(2,3)"), repr(text)

    @given(spec=random_specs())
    def test_every_label_round_trips(self, spec):
        assert parse_spec(spec.label()) == spec

    def test_labels_keep_every_digit(self):
        assert parse_spec("gamma(0.1234567)+1").label() == "gamma(0.1234567)+1"
        assert parse_spec("gamma(0.1234568)+1").label() == "gamma(0.1234568)+1"
        assert parse_spec("mix(0.30000000000000004,u,z)").label() == "mix(0.30000000000000004,uniform,normal(0,1))"
        assert parse_spec("gamma(123456789)").label() == "gamma(123456789.0)"

    # labels that README, the benchmark and the examples print: a number that
    # reads back from its %g form keeps that form, so none of them (and no
    # cell salt hashed from one) changes
    @pytest.mark.parametrize("label", [
        "beta(2,3)", "beta(2,2)", "kumaraswamy(1.5,2.5)", "gamma(2)", "gamma(0.7)+1", "gamma(0.8)+1",
        "normal(0,1)", "normal(3,9)", "chisq(5)", "mix(0.5,normal(0,1),normal(1,9))", "weibull(0.7)+1",
        "pareto(2)", "truncnormal(0.25,0.5)", "gamma(1e-300)", "normal(-0.5,1)", "mix(0.1,normal(0,1),uniform+1)+1",
    ])
    def test_documented_labels_are_unchanged(self, label):
        assert parse_spec(label).label() == label

    def test_translation_suffix(self):
        spec = parse_spec("gamma(0.8)+1")
        assert spec.translate_by_one
        assert spec.family == "gamma"

    def test_nested_mixtures(self):
        spec = parse_spec("mix(0.5,mix(0.5,u,beta(2,2)),u)")
        assert spec.family == "mixture"
        assert spec.mixture[1].family == "mixture"

    @pytest.mark.parametrize(
        "text",
        [
            "beta(2)",  # wrong arity
            "frobnitz(1)",  # unknown name
            "mixture(0.5,u,u)",  # the mixture family is spelled mix
            "beta(2,3)junk",  # trailing garbage
            "mix(1.5,u,u)",  # weight out of range
            "beta(2,,3)",
            "",
            "+1",
            "gamma(+1)",  # a + only follows an exponent's e
            "gamma(1e)",
            "gamma(e+1)",
            "gamma(1.2.3)",
            "gamma(1-2)",
            "gamma(1_0)",
            "gamma(\u0661)",  # a digit, but not an ASCII one
            "gamma(inf)",
            "gamma(1)+1+1",
            "gamma(1)+10",
            "gamma(1)+",
            "u()",
            "z(1)",
            "mix(0.5,u,u",
            "mix(0.5,u,u,u)",
            "gamma(1)\tx",
        ],
    )
    def test_parse_errors_carry_position_and_grammar(self, text):
        with pytest.raises(ValueError) as err:
            parse_spec(text)
        form = r"(cannot parse spec .+ at position \d+: .+|empty spec)\. "
        assert re.fullmatch(form + re.escape(GRAMMAR_HELP), str(err.value))

    @pytest.mark.parametrize("text, want", [
        ("gamma(1e+1)", "gamma(10)"),
        ("gamma(.5)", "gamma(0.5)"),
        ("gamma(5.)", "gamma(5)"),
        ("n(-.5,1)", "normal(-0.5,1)"),
        ("mix(1e-1,z,u+1)+1", "mix(0.1,normal(0,1),uniform+1)+1"),
        ("S1 ( 2 )", "stephens1(2)"),
    ])
    def test_number_and_suffix_forms(self, text, want):
        assert parse_spec(text).label() == want

    def test_error_message_shows_grammar(self):
        with pytest.raises(ValueError, match="spec :="):
            parse_spec("frobnitz(1)")


def test_labels_are_canonical():
    assert spec_of("mix(0.5,z,n(1,9))").label() == "mix(0.5,normal(0,1),normal(1,9))"
    assert spec_of("g(0.7)+1").label() == "gamma(0.7)+1"
