"""Monte Carlo engine: substreams, quantiles, studies, serialisation.

Determinism is the load-bearing property here, so several tests compare
byte-level CSV output across runs and worker counts.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unigof import (
    STREAM_SCHEME,
    TEST_IDS,
    AlternativeSpec,
    StudyConfig,
    batch_statistic,
    cdf,
    critical_value_map,
    cumulants_exact,
    estimate_critical_values,
    estimate_power,
    format_critval_table,
    format_power_table,
    parse_spec,
    pearson_fit,
    pearson_quantile,
    power_curve,
    read_study_csv,
    rng_substream,
    run_power_curve,
    sample,
    uniform_theory_spec,
    write_study_csv,
)
from unigof import mc
from unigof.distributions import FAMILIES
from unigof.mc import _CHUNK, NULL_FAMILIES, _cell_salt, _cell_statistics, _quantile_sorted, _unit_chunk, theory_spec_for
from unigof.statistic import UnitRows


def critval_config(**kw):
    base = dict(
        mode="critical_values",
        tests=("tm", "ks"),
        family="uniform",
        alternatives=(),
        sizes=(15,),
        alphas=(0.1, 0.05, 0.01),
        replications=2000,
        master_seed=7,
    )
    base.update(kw)
    return StudyConfig(**base)


# ---------------------------------------------------------------------------
# substreams


class TestSubstreams:
    def test_reproducible(self):
        a = rng_substream(3, 1, 4).random(5)
        b = rng_substream(3, 1, 4).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_across_indices(self):
        firsts = {float(rng_substream(3, 0, i).random()) for i in range(10000)}
        assert len(firsts) == 10000

    def test_distinct_across_master_seeds(self):
        assert rng_substream(1, 2).random() != rng_substream(2, 2).random()


# ---------------------------------------------------------------------------
# quantile rule


class TestQuantileRule:
    def test_hand_cases(self):
        s = np.arange(1.0, 101.0)  # already sorted
        assert _quantile_sorted(s, 0.95) == pytest.approx(95.0, abs=1e-12)
        assert _quantile_sorted(s, 0.953) == pytest.approx(95.3, abs=1e-12)
        assert _quantile_sorted(s, 0.5) == pytest.approx(50.0, abs=1e-12)

    def test_clamps_at_the_ends(self):
        s = np.arange(1.0, 101.0)
        assert _quantile_sorted(s, 0.0001) == 1.0
        assert _quantile_sorted(s, 0.99999) == pytest.approx(99.999, abs=1e-10)

    def test_two_values(self):
        s = np.array([2.0, 6.0])
        assert _quantile_sorted(s, 0.5) == 2.0  # h = 1, no fractional part
        assert _quantile_sorted(s, 0.75) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# config validation


class TestStudyConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            critval_config(mode="exploration")

    def test_size_is_not_a_mode(self):
        # a size study is a power study against a member of the null family
        with pytest.raises(ValueError, match="unknown study mode 'size'"):
            critval_config(mode="size")

    def test_rejects_unknown_test(self):
        with pytest.raises(ValueError, match="test id"):
            critval_config(tests=("tm", "shapiro"))

    def test_unknown_test_lists_the_ids(self):
        with pytest.raises(ValueError) as excinfo:
            critval_config(tests=("tm", "zz"))
        assert str(excinfo.value) == "unknown test id 'zz'; expected one of " + ", ".join(TEST_IDS)

    def test_rejects_low_replications(self):
        with pytest.raises(ValueError, match="replications"):
            critval_config(replications=50)

    def test_rejects_empty_sizes(self):
        with pytest.raises(ValueError):
            critval_config(sizes=())

    def test_rejects_alpha_outside_interval(self):
        with pytest.raises(ValueError, match="alphas"):
            critval_config(alphas=(0.05, 1.0))

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            critval_config(workers=0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            critval_config(family="lognormal")

    def test_uniform_studies_need_unit_alternatives(self):
        with pytest.raises(ValueError, match=r"gamma\(1\) can draw values outside \[0, 1\]"):
            StudyConfig(
                mode="power",
                tests=("tm",),
                family="uniform",
                alternatives=(parse_spec("gamma(1)"),),
                sizes=(20,),
                alphas=(0.05,),
                replications=500,
                master_seed=1,
            )

    @pytest.mark.parametrize(
        "fields, match",
        [
            (dict(alternatives=(AlternativeSpec("uniform"),)), "takes no alternatives"),
            (dict(mode="power"), "power mode needs at least one alternative"),
            (dict(mode="power_curve", tests=("tm",)), "exactly one alternative"),
            (
                dict(mode="power_curve", alternatives=(parse_spec("beta(2,3)"),)),
                "only the tm test",
            ),
            (
                dict(mode="power_curve", tests=("tm",), alternatives=(parse_spec("beta(2,3)"),)),
                "exactly one alpha",
            ),
            (
                dict(
                    mode="power_curve",
                    tests=("tm",),
                    family="normal",
                    alternatives=(parse_spec("chisq(5)"),),
                    alphas=(0.05,),
                ),
                "uniformity test",
            ),
            (
                dict(mode="power", family="pareto", alternatives=(parse_spec("gamma(1)"),)),
                r"gamma\(1\) can draw values outside \[1, inf\]",
            ),
            pytest.param(
                dict(
                    mode="power",
                    family="pareto",
                    alternatives=(parse_spec("mix(0.5,pareto(2),t(3))"),),
                ),
                r"mix\(0.5,pareto\(2\),t\(3\)\) can draw values outside \[1, inf\]",
                id="fields7-mixture-pareto",
            ),
        ],
    )
    def test_rejects_fields_the_mode_would_ignore(self, fields, match):
        with pytest.raises(ValueError, match=match):
            critval_config(**fields)

    @pytest.mark.parametrize(
        "family, n, least",
        [("normal", 1, 3), ("normal", 2, 3), ("pareto", 1, 2)],
    )
    def test_rejects_degenerate_composite_sizes(self, family, n, least):
        with pytest.raises(ValueError, match=f"{family} family needs samples of at least {least}"):
            critval_config(family=family, sizes=(20, n))

    @pytest.mark.parametrize(
        "fields, match",
        [
            (dict(tests=("tm", "ks", "tm")), "tests lists 'tm' more than once"),
            (dict(sizes=(10, 20, 10)), "sizes lists 10 more than once"),
            (dict(alphas=(0.05, 0.01, 0.05)), "alphas lists 0.05 more than once"),
            (
                dict(mode="power", alternatives=(parse_spec("beta(2,3)"), parse_spec("beta(2,3)"))),
                r"alternatives lists 'beta\(2,3\)' more than once",
            ),
        ],
    )
    def test_rejects_repeated_entries(self, fields, match):
        with pytest.raises(ValueError, match=match):
            critval_config(**fields)

    def test_rejects_empty_alphas(self):
        with pytest.raises(ValueError, match="alphas must be one or more levels"):
            critval_config(alphas=())

    @pytest.mark.parametrize(
        "fields, match",
        [
            (dict(replications=1e4), "replications: expected an integer, got 10000.0"),
            (dict(master_seed=1.5), "master_seed: expected an integer, got 1.5"),
            (dict(master_seed=-1), "master_seed: expected a non-negative integer, got -1"),
            (dict(sizes=(10.7,)), "sizes: expected an integer, got 10.7"),
            (dict(workers=2.0), "workers: expected an integer, got 2.0"),
        ],
    )
    def test_rejects_non_integer_counts_and_seeds(self, fields, match):
        with pytest.raises(ValueError, match=match):
            critval_config(**fields)

    def test_numpy_integers_are_accepted(self):
        config = critval_config(sizes=(np.int64(10),), replications=np.int32(200), master_seed=np.uint64(3))
        assert (config.sizes, config.replications, config.master_seed) == ((10,), 200, 3)
        assert all(type(v) is int for v in (config.sizes[0], config.replications, config.master_seed))

    def test_smallest_composite_sizes_are_accepted(self):
        critval_config(family="normal", sizes=(3,))
        critval_config(family="pareto", sizes=(2,))
        critval_config(family="uniform", sizes=(1,))

    def test_composite_studies_allow_real_line_alternatives(self):
        StudyConfig(
            mode="power",
            tests=("tm",),
            family="normal",
            alternatives=(parse_spec("chisq(5)"),),
            sizes=(20,),
            alphas=(0.05,),
            replications=500,
            master_seed=1,
        )


_LEAF_FAMILIES = sorted(set(FAMILIES) - {"mixture"})


@st.composite
def alternative_specs(draw, depth=2):
    """Any spec of the family table, shifted by one or not, mixed up to ``depth`` levels."""
    shift = draw(st.booleans())
    if depth and draw(st.booleans()):
        weight = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
        parts = (draw(alternative_specs(depth - 1)), draw(alternative_specs(depth - 1)))
        return AlternativeSpec("mixture", translate_by_one=shift, mixture=(weight, *parts))
    family = draw(st.sampled_from(_LEAF_FAMILIES))
    params = draw(st.tuples(*[st.floats(0.3, 3.0)] * FAMILIES[family]))
    try:
        return AlternativeSpec(family, params, translate_by_one=shift)
    except ValueError:  # outside the family's parameter rule, e.g. eg(p) with p >= 1
        assume(False)


def _mass_outside_support(family, alt):
    """Probability that a draw of ``alt`` falls outside the null's support, from its CDF."""
    if family == "normal":
        return 0.0
    if family == "pareto":
        return float(cdf(alt, np.nextafter(1.0, 0.0)))
    return float(cdf(alt, np.nextafter(0.0, -1.0))) + 1.0 - float(cdf(alt, 1.0))


@given(family=st.sampled_from(NULL_FAMILIES), alt=alternative_specs())
# a normal component two shifts deep: its mass below one, 7.7e-13, is tiny but positive
@example(family="pareto", alt=parse_spec("mix(0,chisq(1),mix(0,chisq(1),normal(3,0.5)+1)+1)+1"))
@settings(max_examples=300, deadline=None)
def test_config_accepts_exactly_the_alternatives_inside_the_null_support(family, alt):
    outside = _mass_outside_support(family, alt)
    try:
        StudyConfig(mode="power", tests=("tm",), family=family, alternatives=(alt,), sizes=(10,),
                    alphas=(0.05,), replications=100, master_seed=0)
    except ValueError as exc:
        assert alt.label() in str(exc)
        assert outside > 0.0
        return
    # sums of mixture weights may miss one by an ulp
    assert outside < 1e-12
    draws = sample(alt, 2000, np.random.default_rng(0)).values
    lo, hi = {"uniform": (0.0, 1.0), "normal": (-np.inf, np.inf), "pareto": (1.0, np.inf)}[family]
    assert np.all(np.isfinite(draws) & (draws >= lo) & (draws <= hi))


# ---------------------------------------------------------------------------
# critical values


class TestCriticalValues:
    def test_row_grid_and_monotonicity(self):
        result = estimate_critical_values(critval_config())
        assert result.mode == "critical_values"
        assert len(result.rows) == 6  # 2 tests x 1 size x 3 alphas
        for t in ("tm", "ks"):
            cvs = {r.alpha: r.estimate for r in result.rows if r.test == t}
            assert cvs[0.01] > cvs[0.05] > cvs[0.1] > 0.0
        assert all(r.mc_se > 0.0 for r in result.rows)
        assert all(r.replications == 2000 for r in result.rows)

    def test_deterministic(self):
        a = estimate_critical_values(critval_config())
        b = estimate_critical_values(critval_config())
        assert a.rows == b.rows

    def test_seed_changes_estimates(self):
        a = estimate_critical_values(critval_config())
        b = estimate_critical_values(critval_config(master_seed=8))
        assert a.rows != b.rows

    def test_doubling_replications_stays_within_error_bars(self):
        lo = estimate_critical_values(
            critval_config(tests=("tm",), sizes=(20,), alphas=(0.05,), replications=4000)
        ).rows[0]
        hi = estimate_critical_values(
            critval_config(tests=("tm",), sizes=(20,), alphas=(0.05,), replications=16000)
        ).rows[0]
        assert abs(lo.estimate - hi.estimate) < 3.0 * (lo.mc_se + hi.mc_se)

    def test_composite_family_critvals(self):
        result = estimate_critical_values(
            critval_config(family="pareto", tests=("tm",), alphas=(0.05,), replications=1000)
        )
        assert result.rows[0].alternative == "pareto"
        assert result.rows[0].estimate > 0.0

    def test_requires_critval_mode(self):
        config = critval_config(mode="power", alternatives=(parse_spec("beta(2,3)"),))
        with pytest.raises(ValueError, match="mode"):
            estimate_critical_values(config)


# ---------------------------------------------------------------------------
# power and size


@pytest.fixture(scope="module")
def small_cv():
    return estimate_critical_values(
        StudyConfig(
            mode="critical_values",
            tests=("tm", "ks"),
            family="uniform",
            alternatives=(),
            sizes=(25,),
            alphas=(0.05,),
            replications=20000,
            master_seed=11,
        )
    )


class TestPower:
    def test_size_recovers_alpha(self, small_cv):
        # a size study is a power study against a member of the null family
        config = StudyConfig(
            mode="power",
            tests=("tm", "ks"),
            family="uniform",
            alternatives=(AlternativeSpec("uniform"),),
            sizes=(25,),
            alphas=(0.05,),
            replications=5000,
            master_seed=12,
        )
        result = estimate_power(config, small_cv)
        for row in result.rows:
            assert row.estimate == pytest.approx(0.05, abs=0.012), row.test

    def test_power_exceeds_size_under_alternative(self, small_cv):
        config = StudyConfig(
            mode="power",
            tests=("tm",),
            family="uniform",
            alternatives=(parse_spec("beta(2,3)"),),
            sizes=(25,),
            alphas=(0.05,),
            replications=2000,
            master_seed=13,
        )
        result = estimate_power(config, small_cv)
        assert result.rows[0].estimate > 0.5
        assert result.rows[0].alternative == "beta(2,3)"

    def test_missing_critical_value_is_an_error(self, small_cv):
        config = StudyConfig(
            mode="power",
            tests=("tm",),
            family="uniform",
            alternatives=(parse_spec("beta(2,3)"),),
            sizes=(30,),  # no critvals simulated for n = 30
            alphas=(0.05,),
            replications=500,
            master_seed=13,
        )
        with pytest.raises(ValueError, match="missing critical value"):
            estimate_power(config, small_cv)

    def test_power_mode_requires_alternatives(self, small_cv):
        with pytest.raises(ValueError, match="alternative"):
            config = StudyConfig(
                mode="power",
                tests=("tm",),
                family="uniform",
                alternatives=(),
                sizes=(25,),
                alphas=(0.05,),
                replications=500,
                master_seed=13,
            )
            estimate_power(config, small_cv)


class TestCriticalValueTable:
    """``estimate_power`` takes only critical values simulated under its own null."""

    def power_config(self, **kw):
        base = dict(mode="power", alternatives=(parse_spec("beta(2,3)"),), sizes=(25,), alphas=(0.05,),
                    replications=200)
        return critval_config(**{**base, **kw})

    def test_refuses_a_table_from_another_null(self, small_cv):
        config = self.power_config(family="normal", alternatives=(parse_spec("chisq(5)"),))
        with pytest.raises(ValueError, match="rows are for uniform, not the normal null"):
            estimate_power(config, small_cv)

    @pytest.mark.parametrize("alt, match", [
        # a size study's only alternative is named like the null: only its mode tells
        ("uniform", "the table is a power study, not a critical-value table"),
        ("beta(2,3)", r"rows are for beta\(2,3\), not the uniform null"),
    ])
    def test_refuses_a_power_study_as_the_table(self, small_cv, alt, match):
        config = self.power_config(alternatives=(parse_spec(alt),))
        power = estimate_power(config, small_cv)
        with pytest.raises(ValueError, match=match):
            estimate_power(config, power)

    def test_missing_cell_is_named(self, small_cv):
        config = self.power_config(alphas=(0.05, 0.01))
        match = r"missing critical value: .*no critical value for test='tm', n=25, alpha=0.01"
        with pytest.raises(ValueError, match=match):
            estimate_power(config, small_cv)

    def test_holds_only_the_requested_cells(self, small_cv):
        table = mc.critical_value_table(small_cv, "uniform", ("ks",), (25,), (0.05,))
        assert table == {("ks", 25, 0.05): critical_value_map(small_cv)[("ks", 25, 0.05)]}


@pytest.mark.parametrize("workers", [1, 2])
def test_each_study_kind_keeps_its_stream_salts(workers):
    # every row equals a recomputation from the substream its salt names, so
    # the published numbers cannot move when the cell code is reorganised
    reps, sizes, alphas, tests = 300, (9, 12), (0.1, 0.05), ("tm", "ks")
    base = dict(family="normal", tests=tests, sizes=sizes, alphas=alphas, replications=reps, workers=workers)
    alts = (parse_spec("chisq(5)"), parse_spec("normal(3,9)"))
    cv = estimate_critical_values(critval_config(**base))
    power = estimate_power(critval_config(mode="power", alternatives=alts, **base), cv)
    curve_alt = parse_spec("beta(2,2)")
    curve = run_power_curve(critval_config(
        mode="power_curve", tests=("tm",), alternatives=(curve_alt,), sizes=sizes, alphas=(0.05,),
        replications=reps, workers=workers,
    ))

    def stats(salt, family, alt, n, tests):
        return _cell_statistics(7, salt, family, alt, n, tests, reps)

    def rate(values, c):
        return int(np.count_nonzero(values > c)) / reps

    def cells(result):
        return [(r.test, r.alternative, r.n, r.alpha, r.estimate) for r in result.rows]

    expected = []
    for n in sizes:
        s = stats(_cell_salt("critval", "normal", n), "normal", None, n, tests)
        expected += [(t, "normal", n, a, _quantile_sorted(np.sort(s[t]), 1.0 - a)) for t in tests for a in alphas]
    assert cells(cv) == expected
    table = critical_value_map(cv)
    expected = []
    for alt in alts:
        for n in sizes:
            s = stats(_cell_salt("power", "normal", alt.label(), n), "normal", alt, n, tests)
            expected += [(t, alt.label(), n, a, rate(s[t], table[(t, n, a)])) for t in tests for a in alphas]
    assert cells(power) == expected
    c = pearson_quantile(pearson_fit(cumulants_exact()), 0.95)
    expected = [rate(stats(_cell_salt("curve", "beta(2,2)", n), "uniform", curve_alt, n, ("tm",))["tm"], c)
                for n in sizes]
    assert curve.empirical_power == expected


# ---------------------------------------------------------------------------
# determinism across workers


def test_worker_count_does_not_change_bytes(tmp_path):
    rows = {}
    for workers in (1, 3):
        config = critval_config(sizes=(10, 15), workers=workers)
        path = tmp_path / f"w{workers}.csv"
        write_study_csv(estimate_critical_values(config), path)
        curve_config = critval_config(
            mode="power_curve",
            tests=("tm",),
            alternatives=(parse_spec("beta(2,2)"),),
            sizes=(10, 20, 30),
            alphas=(0.05,),
            replications=300,
            workers=workers,
        )
        curve_path = tmp_path / f"curve{workers}.csv"
        run_power_curve(curve_config).write_csv(curve_path)
        rows[workers] = path.read_bytes() + curve_path.read_bytes()
    assert rows[1] == rows[3]


_CHUNK_CASES = [
    ("uniform", None),
    ("pareto", None),
    ("uniform", "beta(2,3)"),
    ("normal", "chisq(5)"),
]


def _case(family, alt):
    return family, None if alt is None else parse_spec(alt)


@pytest.mark.parametrize("family, alt", _CHUNK_CASES)
def test_unit_chunk_is_a_pure_function(family, alt):
    family, alt = _case(family, alt)
    first = _unit_chunk(family, alt, 9, 123, 7, _CHUNK, 7)
    _unit_chunk(family, alt, 9, 124, 7, 0, 5)
    np.testing.assert_array_equal(first, _unit_chunk(family, alt, 9, 123, 7, _CHUNK, 7))


@pytest.mark.parametrize("family, alt", _CHUNK_CASES)
def test_longer_cell_shares_its_leading_chunk(family, alt):
    family, alt = _case(family, alt)
    short = _cell_statistics(7, 123, family, alt, 9, ("tm", "ks"), _CHUNK)
    longer = _cell_statistics(7, 123, family, alt, 9, ("tm", "ks"), _CHUNK + 5)
    for t in ("tm", "ks"):
        np.testing.assert_array_equal(longer[t][:_CHUNK], short[t])


def test_each_chunk_is_checked_and_sorted_once(monkeypatch):
    built = []

    def counting(U):
        built.append(U.shape)
        return UnitRows(U)

    monkeypatch.setattr(mc, "UnitRows", counting)
    _cell_statistics(7, 123, "normal", None, 9, TEST_IDS, 2 * _CHUNK + 5)
    assert built == [(_CHUNK, 9), (_CHUNK, 9), (5, 9)]


@settings(max_examples=20, deadline=None)
@given(
    case=st.sampled_from(_CHUNK_CASES),
    n=st.integers(3, 12),
    reps=st.integers(1, 2 * _CHUNK + 100),
)
def test_chunks_in_reverse_order_reproduce_the_cell(case, n, reps):
    family, alt = _case(*case)
    tests = ("tm", "ks")
    whole = _cell_statistics(7, 123, family, alt, n, tests, reps)
    blocks = {}
    for start in reversed(range(0, reps, _CHUNK)):
        U = _unit_chunk(family, alt, n, 123, 7, start, min(_CHUNK, reps - start))
        blocks[start] = {t: batch_statistic(t, U) for t in tests}
    for t in tests:
        stitched = np.concatenate([blocks[start][t] for start in sorted(blocks)])
        np.testing.assert_array_equal(stitched, whole[t])


def test_stream_scheme_seeds_once_per_chunk():
    # scheme 2: the chunk starting at row s is one block from substream (seed, salt, s)
    assert STREAM_SCHEME == 2
    block = _unit_chunk("uniform", None, 5, 123, 7, _CHUNK, 3)
    np.testing.assert_array_equal(block, rng_substream(7, 123, _CHUNK).random((3, 5)))


def test_study_results_carry_the_stream_scheme(tmp_path, small_cv):
    assert small_cv.stream_scheme == STREAM_SCHEME
    power = estimate_power(
        critval_config(
            mode="power",
            alternatives=(parse_spec("beta(2,3)"),),
            sizes=(25,),
            alphas=(0.05,),
            replications=200,
        ),
        small_cv,
    )
    assert power.stream_scheme == STREAM_SCHEME
    path = tmp_path / "study.csv"
    write_study_csv(small_cv, path)
    # a CSV does not record the scheme, so rows read back do not claim one
    assert read_study_csv(path).stream_scheme is None


# ---------------------------------------------------------------------------
# serialisation


class TestCsv:
    def test_round_trip(self, tmp_path):
        # alternative labels with parameters contain commas
        power = estimate_power(
            StudyConfig(
                mode="power",
                tests=("tm", "ks"),
                family="normal",
                alternatives=(parse_spec("beta(2,3)"), parse_spec("mix(0.5,normal(0,1),normal(1,9))")),
                sizes=(15,),
                alphas=(0.05,),
                replications=500,
                master_seed=8,
            ),
            estimate_critical_values(critval_config(family="normal", alphas=(0.05,), replications=500)),
        )
        for result in (estimate_critical_values(critval_config()), power):
            path = tmp_path / "study.csv"
            write_study_csv(result, path)
            back = read_study_csv(path)
            assert back.rows == result.rows
            assert back.master_seed == result.master_seed

    def test_header(self, tmp_path):
        result = estimate_critical_values(critval_config(alphas=(0.05,)))
        path = tmp_path / "study.csv"
        write_study_csv(result, path)
        first = path.read_text().splitlines()[0]
        assert first == "test,null,n,alpha,estimate,mc_se,replications,seed"

    def test_header_names_the_mode(self, tmp_path, small_cv):
        power = estimate_power(
            critval_config(
                mode="power",
                alternatives=(parse_spec("uniform"),),
                sizes=(25,),
                alphas=(0.05,),
                replications=200,
            ),
            small_cv,
        )
        for result, header in ((small_cv, "test,null,"), (power, "test,alternative,")):
            path = tmp_path / "study.csv"
            write_study_csv(result, path)
            assert path.read_text().startswith(header)
            assert read_study_csv(path).mode == result.mode

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense\n1,2,3\n")
        with pytest.raises(ValueError):
            read_study_csv(path)


class TestTables:
    def test_critval_table_mentions_tests_and_sizes(self):
        result = estimate_critical_values(critval_config())
        text = format_critval_table(result)
        assert "tm" in text and "ks" in text
        assert "15" in text

    def test_power_table_shows_percentages(self, small_cv):
        config = StudyConfig(
            mode="power",
            tests=("tm",),
            family="uniform",
            alternatives=(parse_spec("beta(2,3)"),),
            sizes=(25,),
            alphas=(0.05,),
            replications=1000,
            master_seed=3,
        )
        result = estimate_power(config, small_cv)
        text = format_power_table(result)
        assert "beta(2,3)" in text
        assert "%" in text or any(ch.isdigit() for ch in text)


# ---------------------------------------------------------------------------
# theory lookup and curves


class TestTheorySpecFor:
    def test_uniform(self):
        spec = theory_spec_for(AlternativeSpec("uniform"))
        assert spec.name == uniform_theory_spec().name
        assert spec.sigma2 == 0.0

    def test_builtin_beta_is_exact(self):
        spec = theory_spec_for(parse_spec("beta(2,2)"))
        assert spec.delta == pytest.approx(1.0 / 210.0, abs=1e-15)

    def test_other_unit_alternatives_are_built_numerically(self):
        spec = theory_spec_for(parse_spec("kum(1.5,2.5)"))
        assert spec.name == "kumaraswamy(1.5,2.5)"
        assert spec.delta > 0.0
        assert spec.sigma2 > 0.0

    def test_real_line_alternative_rejected(self):
        with pytest.raises(ValueError, match=r"gamma\(1\) can draw values outside \[0, 1\]"):
            theory_spec_for(parse_spec("gamma(1)"))


class TestRunPowerCurve:
    def curve_config(self, alt, sizes, reps=800, alphas=(0.05,)):
        return StudyConfig(
            mode="power_curve",
            tests=("tm",),
            family="uniform",
            alternatives=(alt,),
            sizes=sizes,
            alphas=alphas,
            replications=reps,
            master_seed=5,
        )

    def test_beta_curve_grows_and_tracks_theory(self):
        curve = run_power_curve(self.curve_config(parse_spec("beta(2,3)"), (30, 80)))
        assert curve.name == "beta(2,3)"
        assert curve.empirical_power[1] > curve.empirical_power[0] > 0.5
        assert all(0.0 < p <= 1.0 for p in curve.approx_power)
        assert all(se >= 0.0 for se in curve.mc_se)

    def test_uniform_curve_has_no_approximation(self):
        curve = run_power_curve(self.curve_config(AlternativeSpec("uniform"), (40,), 2000))
        assert np.isnan(curve.approx_power[0])
        assert curve.empirical_power[0] == pytest.approx(0.05, abs=0.02)

    def test_requires_curve_mode(self):
        config = critval_config()
        with pytest.raises(ValueError, match="power_curve"):
            run_power_curve(config)

    def test_single_alternative_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            config = StudyConfig(
                mode="power_curve",
                tests=("tm",),
                family="uniform",
                alternatives=(parse_spec("beta(2,3)"), parse_spec("beta(2,2)")),
                sizes=(30,),
                alphas=(0.05,),
                replications=500,
                master_seed=5,
            )
            run_power_curve(config)

    def test_curve_runs_at_the_config_alpha(self):
        alt, sizes = parse_spec("beta(2,3)"), (30,)
        at_1 = run_power_curve(self.curve_config(alt, sizes, alphas=(0.01,)))
        at_5 = run_power_curve(self.curve_config(alt, sizes))
        c_1 = pearson_quantile(pearson_fit(cumulants_exact()), 0.99)
        assert at_1.alpha == 0.01
        assert at_1.approx_power == power_curve(theory_spec_for(alt), 0.01, sizes, c_1).approx_power
        # same draws, stricter critical value
        assert at_1.empirical_power[0] < at_5.empirical_power[0]
