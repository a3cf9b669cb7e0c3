"""Release acceptance checks, one test per shipping criterion.

Every test prints a single PASS/FAIL line with the measured numbers
(visible under -s, or in the captured output of a failing run) and then
asserts. The expensive Monte Carlo grids are module-scoped fixtures so
they run once and serve several criteria.

Reference numbers in this file are the exact constants and the rounded
table values of the original simulation study; tolerances follow the
release checklist and are stated inline.
"""

from fractions import Fraction

import numpy as np
import pytest

from unigof import (
    TEST_IDS,
    StudyConfig,
    builtin_beta_specs,
    critical_value_map,
    cumulants_exact,
    cumulants_numeric,
    estimate_critical_values,
    estimate_power,
    estimate_pareto,
    gauss_legendre,
    null_kernel,
    parse_spec,
    pearson_fit,
    pearson_quantile,
    run_power_curve,
    tm_statistic,
    tm_statistic_integral,
    write_study_csv,
)
from unigof import statistic

MASTER_SEED = 20260816


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared Monte Carlo grids


@pytest.fixture(scope="module")
def unif_cv():
    cfg = StudyConfig(
        mode="critical_values",
        tests=TEST_IDS,
        family="uniform",
        alternatives=(),
        sizes=(10, 30, 50),
        alphas=(0.10, 0.05, 0.01),
        replications=100_000,
        master_seed=MASTER_SEED,
    )
    return estimate_critical_values(cfg)


@pytest.fixture(scope="module")
def tm_cv_fine():
    # the n = 50 99th-percentile order statistic settles about 0.002 above
    # its reference of 0.779; at R = 1e6 its MC SE of about 0.0022 leaves
    # under 2 SE of margin inside the +/- 0.006 acceptance band, so some
    # seeds fail by chance. R = 1e7 (SE about 0.0007) makes the spot checks
    # pass on statistical merit (tm only, which keeps this under a minute)
    cfg = StudyConfig(
        mode="critical_values",
        tests=("tm",),
        family="uniform",
        alternatives=(),
        sizes=(10, 50),
        alphas=(0.05, 0.01),
        replications=10_000_000,
        master_seed=MASTER_SEED,
    )
    return estimate_critical_values(cfg)


@pytest.fixture(scope="module")
def normal_cv():
    cfg = StudyConfig(
        mode="critical_values",
        tests=TEST_IDS,
        family="normal",
        alternatives=(),
        sizes=(50,),
        alphas=(0.05,),
        replications=100_000,
        master_seed=MASTER_SEED,
    )
    return estimate_critical_values(cfg)


@pytest.fixture(scope="module")
def pareto_cv():
    cfg = StudyConfig(
        mode="critical_values",
        tests=TEST_IDS,
        family="pareto",
        alternatives=(),
        sizes=(50,),
        alphas=(0.05,),
        replications=100_000,
        master_seed=MASTER_SEED,
    )
    return estimate_critical_values(cfg)


# ---------------------------------------------------------------------------
# criteria


def test_01_closed_form_matches_piecewise_integral():
    """Prefix-sum formula agrees with exact segment quadrature, < 1e-8."""
    gen = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for i in range(1000):
        n = 1 + (i % 100)
        u = gen.random(n)
        worst = max(worst, abs(tm_statistic(u) - tm_statistic_integral(u)))
    _report(
        "criterion 01 statistic equivalence",
        worst < 1e-8,
        f"max |closed - integral| = {worst:.3e} over 1000 samples (tol 1e-8)",
    )


def test_02_limit_cumulant_reproduction():
    """First two cumulants from closed kernel integrals, third and fourth
    from quadrature traces at order 512."""
    k_exact = (
        float(Fraction(2, 15)),
        float(Fraction(109, 4050)),
        float(Fraction(502883, 40540500)),
        float(Fraction(200311667, 23260111875)),
    )

    # k1 = integral of the kernel diagonal, a quartic polynomial
    rule = gauss_legendre(16)
    k1 = float(rule.weights @ null_kernel(rule.nodes, rule.nodes))

    # k2 = 2 * double integral of K^2; fold onto the lower triangle where
    # the kernel is a single polynomial and substitute s = t * xi so both
    # axes run over (0, 1) and a tensor Gauss rule is exact
    xi = rule.nodes[:, None]
    t = rule.nodes[None, :]
    w2 = rule.weights[:, None] * rule.weights[None, :]
    k2 = 4.0 * float(np.sum(w2 * t * null_kernel(xi * t, t) ** 2))

    num = cumulants_numeric(order=512)
    errs = (
        abs(k1 - k_exact[0]),
        abs(k2 - k_exact[1]),
        abs(num.k3 - k_exact[2]),
        abs(num.k4 - k_exact[3]),
    )
    ok = errs[0] < 1e-10 and errs[1] < 1e-10 and errs[2] < 1e-6 and errs[3] < 1e-6
    _report(
        "criterion 02 cumulant reproduction",
        ok,
        "errors k1 = {:.1e}, k2 = {:.1e} (tol 1e-10); k3 = {:.1e}, k4 = {:.1e} (tol 1e-6)".format(
            *errs
        ),
    )


def test_03_limit_quantiles():
    """Moment-fit quantiles against the tabulated limit row, +/- 0.002."""
    fit = pearson_fit(cumulants_exact())
    got = tuple(pearson_quantile(fit, p) for p in (0.90, 0.95, 0.99))
    want = (0.332, 0.462, 0.785)
    errs = tuple(abs(g - w) for g, w in zip(got, want))
    _report(
        "criterion 03 limit quantiles",
        max(errs) < 0.002,
        f"quantiles {got[0]:.4f}/{got[1]:.4f}/{got[2]:.4f} vs 0.332/0.462/0.785, "
        f"max err {max(errs):.4f} (tol 0.002)",
    )


def test_04_finite_sample_critical_values(tm_cv_fine):
    """Monte Carlo critical values of the tail-moment test, +/- 0.006."""
    cv = critical_value_map(tm_cv_fine)
    targets = {(10, 0.05): 0.453, (50, 0.05): 0.461, (50, 0.01): 0.779}
    errs = {key: abs(cv[("tm", key[0], key[1])] - want) for key, want in targets.items()}
    detail = ", ".join(
        f"(n={n}, a={a:g}) {cv[('tm', n, a)]:.4f} vs {targets[(n, a)]:.3f}"
        for (n, a) in targets
    )
    _report(
        "criterion 04 finite-n critical values",
        max(errs.values()) < 0.006,
        f"{detail}; max err {max(errs.values()):.4f} (tol 0.006, R = 1e7)",
    )


def test_05_fixed_alternative_constants():
    """Stored drift and variance constants for the four Beta alternatives."""
    exact = {
        "beta(2,2)": (Fraction(1, 210), Fraction(107297, 94594500)),
        "beta(2,3)": (Fraction(71, 2310), Fraction(13088573, 2948195250)),
        "beta(1,0.5)": (Fraction(53, 945), Fraction(426456598, 10854718875)),
    }
    numeric = {"beta(0.5,0.5)": (0.007130789, 0.004386925)}
    specs = {s.name: s for s in builtin_beta_specs()}

    worst_exact = 0.0
    for name, (d, v) in exact.items():
        worst_exact = max(
            worst_exact,
            abs(specs[name].delta - float(d)),
            abs(specs[name].sigma2 - float(v)),
        )
    worst_numeric = 0.0
    for name, (d, v) in numeric.items():
        worst_numeric = max(
            worst_numeric,
            abs(specs[name].delta - d),
            abs(specs[name].sigma2 - v),
        )
    ok = worst_exact < 1e-8 and worst_numeric < 1e-6
    _report(
        "criterion 05 alternative constants",
        ok,
        f"max err {worst_exact:.2e} vs exact fractions (tol 1e-8), "
        f"{worst_numeric:.2e} vs arcsine values (tol 1e-6)",
    )


def test_06_power_table_cells(unif_cv, normal_cv, pareto_cv):
    """Spot-check tabulated rejection rates at R = 1e4.

    Table cells are percentages rounded to the nearest point, so the
    tolerance is three binomial standard errors plus 0.005 rounding slack.
    """
    cases = [
        ("uniform", unif_cv, 30, "beta(2,3)", 0.93),
        ("uniform", unif_cv, 30, "beta(1,0.5)", 0.94),
        ("uniform", unif_cv, 30, "kumaraswamy(1.5,2.5)", 0.81),
        ("normal", normal_cv, 50, "chisq(5)", 0.78),
        ("normal", normal_cv, 50, "mix(0.5,normal(0,1),normal(1,9))", 0.68),
        ("pareto", pareto_cv, 50, "gamma(0.8)+1", 0.35),
        ("pareto", pareto_cv, 50, "weibull(0.7)+1", 0.29),
    ]
    reps = 10_000
    lines = []
    ok = True
    for family, cv, n, label, want in cases:
        cfg = StudyConfig(
            mode="power",
            tests=("tm",),
            family=family,
            alternatives=(parse_spec(label),),
            sizes=(n,),
            alphas=(0.05,),
            replications=reps,
            master_seed=MASTER_SEED,
        )
        row = estimate_power(cfg, cv).rows[0]
        tol = 3.0 * np.sqrt(row.estimate * (1.0 - row.estimate) / reps) + 0.005
        hit = abs(row.estimate - want) <= tol
        ok = ok and hit
        lines.append(f"{label}@n={n}: {row.estimate:.3f} vs {want:.2f} (tol {tol:.3f})")
    _report("criterion 06 power table cells", ok, "; ".join(lines))


def test_07_size_control(unif_cv, normal_cv, pareto_cv):
    """Every test holds its 5% level under all three nulls, +/- 0.007."""
    cases = [
        ("uniform", unif_cv, "uniform"),
        ("normal", normal_cv, "normal(3,9)"),
        ("pareto", pareto_cv, "pareto(2)"),
    ]
    worst = 0.0
    worst_label = ""
    for family, cv, null_member in cases:
        cfg = StudyConfig(
            mode="power",
            tests=TEST_IDS,
            family=family,
            alternatives=(parse_spec(null_member),),
            sizes=(50,),
            alphas=(0.05,),
            replications=10_000,
            master_seed=MASTER_SEED,
        )
        for row in estimate_power(cfg, cv).rows:
            err = abs(row.estimate - 0.05)
            if err > worst:
                worst = err
                worst_label = f"{row.test} under {family}"
    _report(
        "criterion 07 size control",
        worst <= 0.007,
        f"worst |size - 0.05| = {worst:.4f} ({worst_label}) over "
        f"{len(TEST_IDS) * 3} cells at n = 50, R = 1e4 (tol 0.007)",
    )


def test_08_pareto_profile_is_parameter_free():
    """Shape re-estimated after the power transform is exactly one."""
    gen = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(10_000):
        n = int(gen.integers(2, 81))
        shape = float(gen.uniform(0.2, 5.0))
        x = 1.0 + gen.pareto(shape, n)
        beta_hat = estimate_pareto(x)
        worst = max(worst, abs(estimate_pareto(x**beta_hat) - 1.0))
    _report(
        "criterion 08 transform invariance",
        worst < 1e-12,
        f"max |shape(x**beta_hat) - 1| = {worst:.2e} over 1e4 samples (tol 1e-12)",
    )


def test_09_power_curves_dominate_approximation():
    """Empirical curves sit above the analytic approximation less 3 SEs at
    90% of grid points; both curves agree near saturation."""
    sizes = tuple(range(10, 201, 10))
    lines = []
    ok = True
    gap_at_200 = None
    for label in ("beta(2,2)", "beta(2,3)", "beta(1,0.5)", "beta(0.5,0.5)"):
        cfg = StudyConfig(
            mode="power_curve",
            tests=("tm",),
            family="uniform",
            alternatives=(parse_spec(label),),
            sizes=sizes,
            alphas=(0.05,),
            replications=2000,
            master_seed=MASTER_SEED,
        )
        curve = run_power_curve(cfg)
        good = sum(
            emp >= approx - 3.0 * se
            for emp, approx, se in zip(curve.empirical_power, curve.approx_power, curve.mc_se)
        )
        ok = ok and good >= 0.9 * len(sizes)
        lines.append(f"{label}: {good}/{len(sizes)} points")
        if label == "beta(2,3)":
            gap_at_200 = abs(curve.empirical_power[-1] - curve.approx_power[-1])
    ok = ok and gap_at_200 <= 0.05
    _report(
        "criterion 09 power curve lower bound",
        ok,
        "; ".join(lines) + f"; beta(2,3) gap at n=200 is {gap_at_200:.4f} (tol 0.05)",
    )


def test_10_parallel_runs_are_byte_identical(tmp_path, monkeypatch):
    """Thread count never changes study output for a fixed master seed."""
    results = {}
    for threads in (1, 3):
        # cells of one and two row blocks per study: three cores score their three tasks
        monkeypatch.setattr(statistic, "_cores", lambda: threads)
        cv_cfg = StudyConfig(
            mode="critical_values",
            tests=("tm", "ks"),
            family="uniform",
            alternatives=(),
            sizes=(10, 25),
            alphas=(0.10, 0.05),
            replications=2000,
            master_seed=99,
        )
        cv = estimate_critical_values(cv_cfg)
        pw_cfg = StudyConfig(
            mode="power",
            tests=("tm", "ks"),
            family="uniform",
            alternatives=(parse_spec("beta(2,3)"),),
            sizes=(10, 25),
            alphas=(0.10, 0.05),
            replications=2000,
            master_seed=99,
        )
        pw = estimate_power(pw_cfg, cv)
        cv_path = tmp_path / f"cv{threads}.csv"
        pw_path = tmp_path / f"pw{threads}.csv"
        write_study_csv(cv, cv_path)
        write_study_csv(pw, pw_path)
        results[threads] = (cv_path.read_bytes(), pw_path.read_bytes())
    same = results[1] == results[3]
    _report(
        "criterion 10 determinism across threads",
        same,
        "critical-value and power CSVs byte-identical for 1 vs 3 threads"
        if same
        else "outputs differ between thread counts",
    )
