"""Composite null machinery: estimators, pivotal transforms, bootstrap."""

import dataclasses
import sys
import threading
from functools import partial

import numpy as np
import pytest

from unigof import (
    TEST_IDS,
    Sample,
    UnitSample,
    batch_statistic,
    bootstrap_pvalue,
    estimate_normal,
    estimate_pareto,
    transform_normal,
    transform_pareto,
)
from unigof import composite, statistic
from unigof.composite import FAMILIES
from unigof.numerics import normal_cdf
from unigof.statistic import _BLOCK_VALUES


# ---------------------------------------------------------------------------
# normal family


class TestNormalEstimation:
    def test_two_point_anchor(self):
        mu, sigma = estimate_normal([-1.0, 1.0])
        assert mu == 0.0
        assert sigma == 1.0  # ML divisor n, not n - 1

    def test_ml_divisor_is_n(self):
        x = np.array([1.0, 2.0, 3.0, 10.0])
        _, sigma = estimate_normal(x)
        assert sigma == pytest.approx(np.std(x), abs=1e-15)
        assert sigma < np.std(x, ddof=1)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            estimate_normal([3.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_normal([2.0, 2.0, 2.0])

    def test_equal_values_are_degenerate_whatever_their_rounded_variance(self):
        # the rounded mean of three 0.1s is 0.10000000000000002, which
        # leaves a variance of 7.7e-34 rather than 0
        x = np.full(3, 0.1)
        assert np.mean((x - np.mean(x)) ** 2) > 0.0
        for call in (estimate_normal, transform_normal):
            with pytest.raises(ValueError, match=r"^the normal fit is degenerate in 1 of 1 samples$"):
                call(x)

    def test_nearly_equal_values_are_fitted(self):
        # values a few ulps apart are not all equal, so the fit stands
        x = 1.0 + np.array([0.0, 1.0, 2.0, 0.0, 1.0]) * 1e-15
        _, sigma = estimate_normal(x)
        assert 0.0 < sigma < 1e-15
        assert np.unique(transform_normal(x).values).size == 3

    def test_accepts_sample_wrapper(self):
        mu, _ = estimate_normal(Sample([0.0, 2.0]))
        assert mu == 1.0


class TestNormalTransform:
    def test_three_point_anchor(self):
        # residuals are -+sqrt(3/2) and 0
        u = transform_normal([-1.0, 0.0, 1.0]).values
        z = np.sqrt(1.5)
        np.testing.assert_allclose(
            u, [normal_cdf(-z), 0.5, normal_cdf(z)], atol=1e-15
        )

    def test_scaled_residuals_have_zero_mean_unit_variance(self, rng):
        x = rng.normal(3.0, 2.0, size=500)
        mu, sigma = estimate_normal(x)
        r = (x - mu) / sigma
        assert np.mean(r) == pytest.approx(0.0, abs=1e-12)
        assert np.mean(r**2) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=80)
        a = transform_normal(x).values
        b = transform_normal(-2.5 * x + 7.0).values
        # an affine map with negative slope reverses the residuals
        np.testing.assert_allclose(np.sort(b), np.sort(1.0 - a), atol=1e-12)
        c = transform_normal(3.0 * x - 1.0).values
        np.testing.assert_allclose(c, a, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e307])
    def test_residuals_whose_squares_overflow_are_fitted(self, scale, rng):
        # squared residuals overflow past about 1e154, and the mean itself
        # past 1e308 / n; such rows are refitted on a rescaled copy
        x = rng.normal(size=50)
        np.testing.assert_allclose(transform_normal(scale * x).values, transform_normal(x).values, atol=1e-14)
        mu, sigma = estimate_normal(scale * x)
        assert (mu / scale, sigma / scale) == pytest.approx(estimate_normal(x), rel=1e-14)

    def test_huge_equal_values_are_still_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_normal([1e308, 1e308, 1e308])


# ---------------------------------------------------------------------------
# Pareto family


class TestParetoEstimation:
    def test_single_point_anchor(self):
        assert estimate_pareto([np.e]) == pytest.approx(1.0, rel=1e-15)
        u = transform_pareto([np.e]).values
        assert u[0] == pytest.approx(1.0 - 1.0 / np.e, rel=1e-14)

    def test_rejects_values_below_one_and_accepts_one(self):
        # 1 is the closed end of the support, which the family table and the engine admit
        assert estimate_pareto([2.0, 1.0]) == 2.0 / np.log(2.0)
        assert transform_pareto([2.0, 1.0]).values[1] == 0.0
        with pytest.raises(ValueError, match="0.5"):
            estimate_pareto([2.0, 0.5])
        ones = [1.0, 1.0, 1.0, 1.0]
        for call, data in ((estimate_pareto, ones), (transform_pareto, ones),
                           (FAMILIES["pareto"].transform_rows, np.array([ones]))):
            with pytest.raises(ValueError, match="^the pareto fit is degenerate in 1 of 1 samples$"):
                call(data)

    def test_reestimated_shape_is_one(self, rng):
        # the defining property of the power transform
        for _ in range(50):
            beta = float(rng.uniform(0.3, 6.0))
            n = int(rng.integers(2, 80))
            x = (1.0 - rng.random(n)) ** (-1.0 / beta)
            y = x ** estimate_pareto(x)
            assert estimate_pareto(y) == pytest.approx(1.0, abs=1e-12)

    def test_power_equivariance(self, rng):
        # raising the data to a power c divides the shape estimate by c
        # and leaves the transformed sample unchanged
        x = (1.0 - rng.random(60)) ** (-1.0 / 2.0)
        c = 3.7
        assert estimate_pareto(x**c) == pytest.approx(estimate_pareto(x) / c, rel=1e-12)
        np.testing.assert_allclose(
            transform_pareto(x**c).values, transform_pareto(x).values, atol=1e-12
        )


# ---------------------------------------------------------------------------
# raw data is checked as a Sample before any estimation


def _bootstrap(family):
    return lambda x: bootstrap_pvalue(family, "tm", x, B=99, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "call",
    [estimate_normal, transform_normal, _bootstrap("normal"),
     estimate_pareto, transform_pareto, _bootstrap("pareto")],
    ids=["estimate_normal", "transform_normal", "bootstrap_normal",
         "estimate_pareto", "transform_pareto", "bootstrap_pareto"],
)
@pytest.mark.parametrize(
    "data, why",
    [
        ([1.5, np.nan, 2.0, 3.1], "values must be finite"),
        ([1.5, np.inf, 2.0, 3.1], "values must be finite"),
        (np.full((3, 4), 2.0), "must be one-dimensional"),
    ],
    ids=["nan", "inf", "matrix"],
)
def test_raw_data_fails_as_a_sample(call, data, why):
    with pytest.raises(ValueError, match=rf"^sample {why}"):
        call(data)


# ---------------------------------------------------------------------------
# pivotality: the transformed null distribution ignores the parameters


@pytest.mark.parametrize(
    "tag, sampler_params",
    [
        ("normal", [(0.0, 1.0), (3.0, 3.0), (-10.0, 0.2)]),
        ("pareto", [0.5, 1.0, 5.0]),
    ],
)
def test_pivotality_across_parameters(tag, sampler_params, rng):
    # statistic quantiles of the transformed sample must agree across
    # parameter values, up to Monte Carlo noise
    family = FAMILIES[tag]
    n, reps = 25, 4000
    q95 = []
    for params in sampler_params:
        X = family.sample_fitted(params, (reps, n), rng)
        stats_ = batch_statistic("tm", family.transform_rows(X))
        q95.append(np.quantile(stats_, 0.95))
    spread = max(q95) - min(q95)
    assert spread < 0.012, q95  # ~3 MC standard errors at these settings


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("shape", [(4096, 3), (4096, 50)], ids=["n3", "n50"])
def test_standard_draw_is_the_standard_member_bit_for_bit(seed, shape):
    # each family's standard sampler is its fitted sampler at (0, 1) or 1,
    # and draws what the textbook standard member draws, sign of zero included
    expected = {
        "normal": lambda rng: rng.standard_normal(shape),
        "pareto": lambda rng: (1.0 - rng.random(shape)) ** -1.0,
    }
    for tag, draw in expected.items():
        got = FAMILIES[tag].sample_standard(shape, np.random.default_rng(seed))
        want = draw(np.random.default_rng(seed))
        assert np.array_equal(got, want), tag
        assert np.array_equal(np.signbit(got), np.signbit(want)), tag


@pytest.mark.parametrize(
    "tag, rows, bad",
    [
        ("normal", [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [0.5, 0.5, 0.5]], 2),
        ("pareto", [[2.0, 3.0, 4.0], [1.0, 1.0, 1.0], [2.0, np.inf, 3.0]], 2),
    ],
)
def test_degenerate_rows_are_the_familys_error(tag, rows, bad):
    with pytest.raises(ValueError, match=rf"^the {tag} fit is degenerate in {bad} of 3 samples$"):
        FAMILIES[tag].transform_rows(np.array(rows))


@pytest.mark.parametrize("n", [3, 50, 1000])
def test_every_constant_normal_row_is_degenerate(n):
    # equal values of any magnitude, whatever variance their rounded mean
    # leaves; the tiny distinct values underflow to a zero variance
    constants = [0.1, 1.0 / 3.0, -7.3e5, 2.5e150, 1e-300, 0.0]
    rows = np.vstack([np.full((len(constants), n), np.array(constants)[:, None]),
                      [np.arange(1.0, n + 1.0)], [np.arange(1.0, n + 1.0) * 1e-170]])
    with pytest.raises(ValueError, match=rf"^the normal fit is degenerate in 7 of 8 samples$"):
        FAMILIES["normal"].transform_rows(rows)


def _normal_rows_reference(X):
    mu = X.mean(axis=1, keepdims=True)
    var = np.mean((X - mu) ** 2, axis=1, keepdims=True)
    return normal_cdf((X - mu) / np.sqrt(var))


def _pareto_rows_reference(X):
    L = np.log(X)
    total = L.sum(axis=1, keepdims=True)
    return -np.expm1(-(X.shape[1] / total) * L)


@pytest.mark.parametrize("shape", [(1, 3), (5, 2), (163, 200), (3000, 50), (4096, 200)], ids=str)
def test_transform_rows_equal_the_plain_expressions_bit_for_bit(shape, rng):
    # the transforms work in place; the values, and the input, do not change
    for tag, params, reference in [("normal", (3.0, 2.0), _normal_rows_reference),
                                   ("pareto", 0.7, _pareto_rows_reference)]:
        X = FAMILIES[tag].sample_fitted(params, shape, rng)
        before = X.copy()
        got, want = FAMILIES[tag].transform_rows(X), reference(X)
        assert np.array_equal(got, want), tag
        assert np.array_equal(np.signbit(got), np.signbit(want)), tag
        assert np.array_equal(X, before), tag


def test_normal_transform_rows_match_single_transform(rng):
    # row-vectorised transform equals the scalar path
    x = FAMILIES["normal"].sample_standard((4, 12), rng)
    rows = FAMILIES["normal"].transform_rows(x)
    for i in range(4):
        np.testing.assert_allclose(
            rows[i], transform_normal(x[i]).values, atol=1e-13
        )


@pytest.mark.parametrize("tag, params", [("normal", (3.0, 2.0)), ("pareto", 0.7)])
@pytest.mark.parametrize("a, b, n", [(1, 1, 1), (3, 5, 7), (163, 21, 200), (4096, 1, 50)])
def test_fitted_sampler_is_stream_sequential(tag, params, a, b, n):
    # the bootstrap draws its replicates block by block from the standard
    # sampler: (a, n) then (b, n) from one generator must be the rows of one
    # (a + b, n) draw, for the fitted sampler as for the standard one
    family = FAMILIES[tag]
    for draw in (partial(family.sample_fitted, params), family.sample_standard):
        split = np.random.default_rng(8)
        head, tail = draw((a, n), split), draw((b, n), split)
        whole_rng = np.random.default_rng(8)
        whole = draw((a + b, n), whole_rng)
        assert np.array_equal(np.vstack([head, tail]), whole)
        assert split.random() == whole_rng.random()


# ---------------------------------------------------------------------------
# bootstrap


def _bootstrap_reference(tag, kind, x, B, rng):
    # every replicate in one (B, n) draw of the standard member: what the
    # streamed bootstrap reproduces
    family = FAMILIES[tag]
    observed = float(batch_statistic(kind, family.transform(x))[0])
    U = family.transform_rows(family.sample_standard((B, x.size), rng))
    return (1.0 + np.count_nonzero(batch_statistic(kind, U) >= observed)) / (B + 1.0), observed


@pytest.mark.parametrize(
    "n, B, blocks",
    [(200, 999, 7), (_BLOCK_VALUES + 1, 99, 99), (5, 199, 1)],
    ids=["blocks-and-remainder", "one-row-blocks", "under-one-block"],
)
@pytest.mark.parametrize("kind", ["tm", "ad", "zc"])
@pytest.mark.parametrize("tag", ["normal", "pareto"])
def test_streamed_bootstrap_equals_one_whole_draw(tag, kind, n, B, blocks, monkeypatch):
    # the blocks are scored on one thread per core; the result is that of one
    # draw whatever the core count
    step = max(1, _BLOCK_VALUES // n)
    assert -(-B // step) == blocks  # the case is what its id says
    data = np.random.default_rng(n)
    x = data.normal(3.0, 2.0, n) if tag == "normal" else (1.0 - data.random(n)) ** -0.5
    for cores in (1, 2, 3):
        monkeypatch.setattr(statistic, "_cores", lambda: cores)
        streamed_rng, whole_rng = np.random.default_rng(21), np.random.default_rng(21)
        out = bootstrap_pvalue(tag, kind, x, B, streamed_rng)
        p_value, observed = _bootstrap_reference(tag, kind, x, B, whole_rng)
        assert out.p_value == p_value, cores
        assert out.observed_statistic == observed, cores
        assert np.array_equal(streamed_rng.random(4), whole_rng.random(4)), cores


def test_bootstrap_threads_lose_no_draw_or_count_under_fast_switching(monkeypatch):
    # eight threads on 99 one-row blocks, switching as often as the interpreter
    # allows: a block drawn out of order or a lost count would move the p-value
    monkeypatch.setattr(statistic, "_cores", lambda: 8)
    n, B = _BLOCK_VALUES + 1, 99
    x = np.random.default_rng(n).normal(3.0, 2.0, n)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        streamed_rng = np.random.default_rng(21)
        out = bootstrap_pvalue("normal", "ks", x, B, streamed_rng)
    finally:
        sys.setswitchinterval(interval)
    whole_rng = np.random.default_rng(21)
    assert (out.p_value, out.observed_statistic) == _bootstrap_reference("normal", "ks", x, B, whole_rng)
    assert np.array_equal(streamed_rng.random(4), whole_rng.random(4))


def _degenerate_in_blocks(family, bad_rows, hold=None):
    # the family, except that the k-th draw has its first bad_rows[k] rows
    # constant; with hold = (k, j), block k is transformed only once block j
    # has failed, so the later block's error is met first
    block_of, failed = {}, threading.Event()

    def sample_standard(shape, rng):
        X = family.sample_standard(shape, rng)
        X[:bad_rows.get(len(block_of), 0)] = 1.0
        block_of[id(X)] = len(block_of)
        return X

    def transform_rows(X):
        block = block_of[id(X)]
        if hold and block == hold[0]:
            failed.wait(timeout=10.0)
        try:
            return family.transform_rows(X)
        finally:
            if hold and block == hold[1]:
                failed.set()

    return dataclasses.replace(family, sample_standard=sample_standard, transform_rows=transform_rows)


def test_the_earliest_failing_block_raises_whatever_the_core_count(monkeypatch):
    # n = 200, B = 999: six blocks of 163 rows and one of 21; blocks 3 and 5
    # (counted from 1) are degenerate, and only block 3's error may come out,
    # also when three threads meet block 5's error first
    x = np.random.default_rng(200).normal(3.0, 2.0, 200)
    normal, messages = FAMILIES["normal"], []
    threads = threading.active_count()
    for cores in (1, 3):
        monkeypatch.setattr(statistic, "_cores", lambda: cores)
        degenerate = _degenerate_in_blocks(normal, {2: 4, 4: 9}, hold=(2, 4) if cores > 1 else None)
        monkeypatch.setitem(FAMILIES, "normal", degenerate)
        with pytest.raises(ValueError, match=r"^the normal fit is degenerate in 4 of 163 samples$") as err:
            bootstrap_pvalue("normal", "tm", x, B=999, rng=np.random.default_rng(21))
        messages.append(str(err.value))
        assert threading.active_count() == threads
        monkeypatch.setitem(FAMILIES, "normal", normal)
        bootstrap_pvalue("normal", "tm", x, B=999, rng=np.random.default_rng(21))
        assert threading.active_count() == threads
    assert messages[0] == messages[1]


class TestBootstrap:
    def test_p_value_in_valid_range(self, rng):
        x = rng.normal(2.0, 1.5, size=40)
        out = bootstrap_pvalue("normal", "tm", x, B=199, rng=rng)
        assert 1.0 / 200.0 <= out.p_value <= 1.0
        assert out.replications == 199
        assert out.test_id == "tm"
        assert out.family_tag == "normal"
        assert np.isfinite(out.observed_statistic)

    def test_deterministic_given_seed(self, rng):
        x = np.random.default_rng(5).normal(size=30)
        a = bootstrap_pvalue("normal", "ks", x, B=299, rng=np.random.default_rng(11))
        b = bootstrap_pvalue("normal", "ks", x, B=299, rng=np.random.default_rng(11))
        assert a.p_value == b.p_value
        assert a.replications == b.replications == 299

    def test_null_data_is_not_rejected(self):
        x = np.random.default_rng(42).normal(size=50)
        out = bootstrap_pvalue("normal", "tm", x, B=999, rng=np.random.default_rng(1))
        assert out.p_value > 0.01
        assert out.replications == 999

    def test_detects_gross_misfit(self):
        # chi-square(1) data is very far from normal
        x = np.random.default_rng(3).chisquare(1.0, size=80)
        out = bootstrap_pvalue("normal", "tm", x, B=999, rng=np.random.default_rng(2))
        assert out.p_value < 0.02
        assert out.replications == 999

    def test_pareto_family(self):
        gen = np.random.default_rng(9)
        x = (1.0 - gen.random(60)) ** (-1.0 / 2.0)
        out = bootstrap_pvalue("pareto", "tm", x, B=499, rng=gen)
        assert out.p_value > 0.01
        assert out.replications == 499

    def test_add_one_convention(self):
        # the smallest reachable p-value is 1/(B+1), never zero
        x = np.random.default_rng(3).chisquare(1.0, size=200)
        out = bootstrap_pvalue("normal", "zc", x, B=99, rng=np.random.default_rng(0))
        assert out.p_value >= 1.0 / 100.0
        assert out.replications == 99

    def test_huge_data_gives_the_p_value_of_its_scaled_copy(self):
        # values up to +-1.5e308: the replicates are standard draws, so no
        # draw overflows, and only the data's own fit needs rescaling
        for scale, x in [(1e200, [1.0, -1.0, 0.3, -0.5, 2.2, 0.1]),
                         (1.5e308, [1.0, -1.0, 0.3, -0.5, 0.9, 0.1, -0.8, 0.6])]:
            x = np.array(x)
            huge = bootstrap_pvalue("normal", "tm", scale * x, B=199, rng=np.random.default_rng(4))
            plain = bootstrap_pvalue("normal", "tm", x, B=199, rng=np.random.default_rng(4))
            assert huge.p_value == plain.p_value, scale
            assert huge.observed_statistic == pytest.approx(plain.observed_statistic, rel=1e-12), scale

    def test_near_constant_and_huge_data_get_one_p_value_on_every_core_count(self, monkeypatch):
        # drawn from the fitted member, replicates of the near-constant data
        # (sigma about 8e-16) rounded to constant rows, and those of the huge
        # data overflowed; the standard member's replicates do neither
        near = 1.0 + np.array([0.0, 1.0, 2.0, 0.0, 1.0]) * 1e-15
        huge = 1.5e308 * np.array([1.0, -1.0, 0.3, -0.5, 0.9, 0.1, -0.8, 0.6])
        for x in (near, huge):
            for B in (199, 9999):  # one block, and more than one
                p_values = set()
                for cores in (1, 2, 3):
                    monkeypatch.setattr(statistic, "_cores", lambda: cores)
                    out = bootstrap_pvalue("normal", "tm", x, B=B, rng=np.random.default_rng(0))
                    assert np.isfinite(out.observed_statistic)
                    p_values.add(out.p_value)
                assert len(p_values) == 1 and 1.0 / (B + 1.0) <= p_values.pop() <= 1.0

    def test_minimum_replications(self, rng):
        with pytest.raises(ValueError, match="99"):
            bootstrap_pvalue("normal", "tm", rng.normal(size=20), B=50, rng=rng)

    @pytest.mark.parametrize("family, x, least", [("normal", [0.3, 1.7], 3), ("pareto", [2.5], 2)])
    def test_rejects_degenerate_sizes(self, family, x, least, rng):
        # at these sizes the fitted transform is the same for every sample
        with pytest.raises(ValueError, match=f"{family} family needs samples of at least {least}"):
            bootstrap_pvalue(family, "tm", np.array(x), B=199, rng=rng)

    def test_unknown_family(self, rng):
        with pytest.raises(ValueError):
            bootstrap_pvalue("lognormal", "tm", rng.normal(size=20), B=199, rng=rng)

    @pytest.mark.parametrize(
        "kind, B, match",
        [
            ("tm", 1e4, r"B must be an integer of at least 99 .*, got 10000\.0$"),
            ("tm", 50, "B must be an integer of at least 99 .*, got 50$"),
            ("nope", 199, "^unknown test id 'nope'; expected one of " + ", ".join(TEST_IDS) + "$"),
        ],
        ids=["float-B", "small-B", "unknown-kind"],
    )
    def test_arguments_are_checked_before_the_fit(self, kind, B, match, rng):
        # data the Pareto fit refuses: the argument error must come first
        with pytest.raises(ValueError, match=match):
            bootstrap_pvalue("pareto", kind, np.array([0.5, 2.0, 3.0]), B=B, rng=rng)

    def test_an_infinite_statistic_counts_as_an_exceedance(self, monkeypatch):
        # every replicate counts, as in the Monte Carlo engine: an infinite
        # statistic is an exceedance, not a dropped replicate
        real = composite.batch_statistic

        def one_infinite(kind, U):
            if isinstance(U, UnitSample):  # the observed sample
                return real(kind, U)
            out = np.zeros(U.shape[0])
            out[0] = np.inf
            return out

        monkeypatch.setattr(composite, "batch_statistic", one_infinite)
        x = np.random.default_rng(42).normal(size=50)
        out = bootstrap_pvalue("normal", "tm", x, B=199, rng=np.random.default_rng(1))
        assert out.observed_statistic > 0.0
        assert out.replications == 199
        assert out.p_value == 2.0 / 200.0
