"""The four benchmark workloads: inputs, operations and output checks.

A workload is a fixed *pass* of operations, each one call into the public
API of ``unigof``, built from the workload seed. The benchmark repeats the
pass with identical inputs, so every pass of a Monte Carlo workload must
return bit-identical results (the engine promises this for any worker
count), and the statistical checks hold for every pass alike.

Tolerances are fixed here, before any result is seen, and are never
loosened to get a pass. Monte Carlo bands scale with the replication
count, so the same checks apply at the tiny size the smoke test uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("critval", "power", "bootstrap", "asymptotic")

# replication counts per scale; "tiny" serves the smoke test and the warm-up
SIZES = {
    "full": {
        "critval": {"replications": 4096},
        "power": {"replications": 3000, "curve_replications": 500},
        "bootstrap": {"B": 9999},
        "asymptotic": {"requests": 100},
    },
    "tiny": {
        "critval": {"replications": 500},
        "power": {"replications": 500, "curve_replications": 200},
        "bootstrap": {"B": 199},
        "asymptotic": {"requests": 10},
    },
}


@dataclass
class Op:
    """One call into the program, with its output check and digest form."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    canon: Callable[[object], object]
    samples: int  # unit samples drawn, transformed and scored
    cells: int = 0  # Monte Carlo cells the engine runs
    timed: bool = True  # a request whose latency counts
    deterministic: bool = True  # identical inputs must give bit-identical output
    pooled: bool = False  # starts worker processes when workers > 1


def derive_seed(seed: int, tag: str) -> int:
    """A master seed for one workload, derived from the benchmark seed."""
    key = [int(seed)] + [ord(c) for c in tag]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def build(name: str, api, seed: int, scale: str, workers: int) -> list[Op]:
    """The operations of one pass of workload ``name``."""
    sizes = SIZES[scale][name]
    if name == "critval":
        return _critval(api, seed, **sizes)
    if name == "power":
        return _power(api, seed, workers=workers, **sizes)
    if name == "bootstrap":
        return _bootstrap(api, seed, **sizes)
    if name == "asymptotic":
        return _asymptotic(api, seed, **sizes)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _canon_study(result) -> tuple:
    return tuple(
        (r.test, r.alternative, r.n, r.alpha, r.estimate, r.mc_se, r.replications) for r in result.rows
    )


# ---------------------------------------------------------------------------
# critval: the table job behind the paper, uniform null, all ten tests

CRITVAL_SIZES = (10, 50, 200)
CRITVAL_ALPHAS = (0.10, 0.05, 0.01)
# published table values of the tm test; the band is 4 reported MC SEs plus
# the table's rounding, and 0.779 sits about 0.002 below the 1e7-replication
# value 0.7813, which the SE term has to cover
CRITVAL_TABLE = {(10, 0.05): 0.453, (50, 0.05): 0.461, (50, 0.01): 0.779}
TABLE_ROUNDING = 0.0005


def _critval(api, seed: int, replications: int) -> list[Op]:
    master = derive_seed(seed, "critval")
    ops = []
    for n in CRITVAL_SIZES:
        config = api.StudyConfig(
            mode="critical_values",
            tests=api.TEST_IDS,
            family="uniform",
            alternatives=(),
            sizes=(n,),
            alphas=CRITVAL_ALPHAS,
            replications=replications,
            master_seed=master,
            workers=1,
        )
        ops.append(
            Op(
                f"critval.n{n}",
                lambda config=config: api.estimate_critical_values(config),
                _check_critval,
                _canon_study,
                samples=replications,
                cells=1,
            )
        )
    return ops


def _check_critval(result) -> list[str]:
    problems = []
    by_key = {(r.test, r.n, r.alpha): r for r in result.rows}
    tests = sorted({r.test for r in result.rows})
    if len(tests) != 10 or len(by_key) != 10 * len(CRITVAL_ALPHAS):
        problems.append(f"expected 10 tests x {len(CRITVAL_ALPHAS)} alphas, got {len(by_key)} cells")
    for r in result.rows:
        if not _finite(r.estimate, r.mc_se) or r.mc_se < 0.0:
            problems.append(f"{r.test} n={r.n} a={r.alpha}: estimate {r.estimate!r}, se {r.mc_se!r}")
    for n in sorted({r.n for r in result.rows}):
        for t in tests:
            est = [by_key[(t, n, a)].estimate for a in CRITVAL_ALPHAS if (t, n, a) in by_key]
            if any(lo > hi for lo, hi in zip(est, est[1:])):
                problems.append(f"{t} n={n}: critical values not monotone in alpha: {est}")
        for (tn, alpha), want in CRITVAL_TABLE.items():
            r = by_key.get(("tm", tn, alpha))
            if tn == n and r is not None:
                tol = 4.0 * r.mc_se + TABLE_ROUNDING
                if not abs(r.estimate - want) <= tol:
                    problems.append(f"tm n={n} a={alpha}: {r.estimate:.4f} vs table {want} (tol {tol:.4f})")
    return problems


# ---------------------------------------------------------------------------
# power: composite nulls with all ten tests, plus the tm power curve

POWER_ALTERNATIVES = {
    "normal": ("chisq(5)", "mix(0.5,normal(0,1),normal(1,9))", "normal(3,9)"),
    "pareto": ("gamma(0.8)+1", "weibull(0.7)+1", "pareto(2)"),
}
SIZE_MEMBERS = ("normal(3,9)", "pareto(2)")
# tabulated tm power at n = 50, alpha = 0.05; band 3 SE + 0.005 (criterion 06)
TM_POWER_TABLE = {
    "chisq(5)": 0.78,
    "mix(0.5,normal(0,1),normal(1,9))": 0.68,
    "gamma(0.8)+1": 0.35,
    "weibull(0.7)+1": 0.29,
}
POWER_N = 50
POWER_ALPHA = 0.05
CURVE_ALTERNATIVE = "beta(2,3)"
CURVE_SIZES = tuple(range(10, 201, 10))


def load_critical_values(api) -> tuple[dict, int]:
    """The committed critical values (``make_critvals.py``), one study per family."""
    data = json.loads((HERE / "critvals.json").read_text(encoding="ascii"))
    reps = int(data["replications"])
    studies = {}
    for family in POWER_ALTERNATIVES:
        rows = [
            api.CellResult(
                test=r["test"],
                alternative=family,
                n=r["n"],
                alpha=r["alpha"],
                estimate=r["estimate"],
                mc_se=r["mc_se"],
                replications=reps,
                seed=int(data["master_seed"]),
            )
            for r in data["rows"]
            if r["family"] == family
        ]
        studies[family] = api.StudyResult(mode="critical_values", rows=rows, master_seed=int(data["master_seed"]))
    return studies, reps


def _power(api, seed: int, replications: int, curve_replications: int, workers: int) -> list[Op]:
    master = derive_seed(seed, "power")
    critical, cv_reps = load_critical_values(api)
    ops = []
    for family, labels in POWER_ALTERNATIVES.items():
        config = api.StudyConfig(
            mode="power",
            tests=api.TEST_IDS,
            family=family,
            alternatives=tuple(api.parse_spec(a) for a in labels),
            sizes=(POWER_N,),
            alphas=(POWER_ALPHA,),
            replications=replications,
            master_seed=master,
            workers=workers,
        )
        ops.append(
            Op(
                f"power.{family}",
                lambda config=config, cv=critical[family]: api.estimate_power(config, cv),
                lambda result, reps=replications: _check_power(result, reps, cv_reps),
                _canon_study,
                samples=replications * len(labels),
                cells=len(labels),
                pooled=True,
            )
        )
    curve_config = api.StudyConfig(
        mode="power_curve",
        tests=("tm",),
        family="uniform",
        alternatives=(api.parse_spec(CURVE_ALTERNATIVE),),
        sizes=CURVE_SIZES,
        alphas=(POWER_ALPHA,),
        replications=curve_replications,
        master_seed=master,
    )
    ops.append(
        Op(
            "power.curve",
            lambda: api.run_power_curve(curve_config),
            _check_curve,
            lambda c: (c.sample_sizes, c.approx_power, c.empirical_power, c.mc_se),
            samples=curve_replications * len(CURVE_SIZES),
            cells=len(CURVE_SIZES),
        )
    )
    return ops


def _check_power(result, reps: int, cv_reps: int) -> list[str]:
    problems = []
    if len(result.rows) != 10 * 3:
        problems.append(f"expected 30 cells, got {len(result.rows)}")
    # a size estimate carries the binomial error of its own draws plus that of
    # the critical value's exceedance probability; the band is 4 combined SEs
    size_band = 4.0 * math.sqrt(POWER_ALPHA * (1.0 - POWER_ALPHA) * (1.0 / reps + 1.0 / cv_reps))
    for r in result.rows:
        if not _finite(r.estimate) or not 0.0 <= r.estimate <= 1.0:
            problems.append(f"{r.test} under {r.alternative}: rate {r.estimate!r}")
            continue
        if r.alternative in SIZE_MEMBERS and abs(r.estimate - POWER_ALPHA) > size_band:
            problems.append(f"{r.test} size under {r.alternative}: {r.estimate:.4f} (band {size_band:.4f})")
        want = TM_POWER_TABLE.get(r.alternative)
        if r.test == "tm" and want is not None:
            tol = 3.0 * math.sqrt(r.estimate * (1.0 - r.estimate) / reps) + 0.005
            if abs(r.estimate - want) > tol:
                problems.append(f"tm power under {r.alternative}: {r.estimate:.4f} vs {want} (tol {tol:.4f})")
    return problems


def _check_curve(curve) -> list[str]:
    """Criterion 09: empirical power sits above the approximation less 3 SEs
    at 90% of sizes, and the two agree within 0.05 at n = 200."""
    emp, approx, se = curve.empirical_power, curve.approx_power, curve.mc_se
    if len(emp) != len(CURVE_SIZES) or not _finite(*emp, *approx, *se):
        return [f"curve has {len(emp)} points or non-finite values"]
    problems = []
    if any(not 0.0 <= v <= 1.0 for v in (*emp, *approx)):
        problems.append("curve power outside [0, 1]")
    good = sum(e >= a - 3.0 * s for e, a, s in zip(emp, approx, se))
    if good < 0.9 * len(CURVE_SIZES):
        problems.append(f"empirical >= approx - 3 SE at only {good}/{len(CURVE_SIZES)} sizes")
    if abs(emp[-1] - approx[-1]) > 0.05:
        problems.append(f"gap at n=200 is {abs(emp[-1] - approx[-1]):.4f} (tol 0.05)")
    return problems


# ---------------------------------------------------------------------------
# bootstrap: parametric bootstrap p-values on fixed n = 200 datasets

BOOTSTRAP_N = 200
BOOTSTRAP_DATA = (
    ("normal", "normal(3,9)"),
    ("normal", "chisq(5)"),
    ("normal", "mix(0.5,normal(0,1),normal(1,9))"),
    ("pareto", "pareto(2)"),
    ("pareto", "pareto(0.5)"),
    ("pareto", "gamma(0.8)+1"),
    ("pareto", "weibull(0.7)+1"),
)
BOOTSTRAP_TESTS = ("tm", "ad")


def _bootstrap(api, seed: int, B: int) -> list[Op]:
    master = derive_seed(seed, "bootstrap")
    ops = []
    for i, (family, label) in enumerate(BOOTSTRAP_DATA):
        x = api.sample(api.parse_spec(label), BOOTSTRAP_N, np.random.default_rng([master, i])).values
        to_unit = api.transform_normal if family == "normal" else api.transform_pareto
        reference_tm = api.tm_statistic_integral(to_unit(x))
        for j, kind in enumerate(BOOTSTRAP_TESTS):
            ops.append(
                Op(
                    f"bootstrap.{family}.{kind}",
                    lambda family=family, kind=kind, x=x, key=(master, i, j): api.bootstrap_pvalue(
                        family, kind, x, B, np.random.default_rng(key)
                    ),
                    lambda res, ref=(reference_tm if kind == "tm" else None): _check_bootstrap(res, B, ref),
                    lambda res: (res.p_value, res.replications, res.observed_statistic),
                    samples=B + 1,
                )
            )
    return ops


def _check_bootstrap(result, B: int, reference_tm: float | None) -> list[str]:
    problems = []
    if result.replications != B:
        problems.append(f"{result.replications} valid replicates of {B}")
    if not (_finite(result.p_value) and 0.0 < result.p_value <= 1.0):
        problems.append(f"p-value {result.p_value!r} outside (0, 1]")
    if not _finite(result.observed_statistic):
        problems.append(f"observed statistic {result.observed_statistic!r}")
    elif reference_tm is not None and abs(result.observed_statistic - reference_tm) > 1e-8:
        problems.append(
            f"observed tm {result.observed_statistic!r} vs quadrature {reference_tm!r} (tol 1e-8)"
        )
    return problems


# ---------------------------------------------------------------------------
# asymptotic: single-sample requests served with Pearson critical values

REQUEST_SPECS = ("uniform", "uniform", "beta(2,3)", "kumaraswamy(1.5,2.5)", "beta(2,2)", "beta(1,0.5)")
REQUEST_N = (10, 500)
LIMIT_QUANTILES = {0.90: 0.332, 0.95: 0.462, 0.99: 0.785}  # tabulated limit row, +/- 0.002
THEORY_ALTERNATIVES = ("kumaraswamy(1.5,2.5)", "truncnormal(0.5,0.25)")
SPECTRUM_ORDER = 512


def _asymptotic(api, seed: int, requests: int) -> list[Op]:
    rng = np.random.default_rng(derive_seed(seed, "asymptotic"))
    lo, hi = REQUEST_N
    # stratified sizes: every seed covers 10..500 evenly, in its own order
    sizes = lo + ((np.arange(requests) + rng.random(requests)) * (hi - lo + 1) / requests).astype(int)
    sizes = rng.permutation(sizes)
    ops = []
    for i, n in enumerate(sizes):
        u = api.sample(api.parse_spec(REQUEST_SPECS[i % len(REQUEST_SPECS)]), int(n), rng).values
        ops.append(
            Op(
                "asymptotic.request",
                lambda u=u: _serve_request(api, u),
                _check_request,
                lambda out: (tuple(o.statistic for o in out[0]), *out[1:]),
                samples=1,
            )
        )
    ops.append(
        Op(
            "asymptotic.spectrum",
            lambda: (api.nystrom_spectrum(SPECTRUM_ORDER), api.cumulants_numeric(SPECTRUM_ORDER)),
            lambda out: _check_spectrum(api, out),
            lambda out: (tuple(out[0].eigenvalues), out[1]),
            samples=0,
            timed=False,
            # matrix products and eigenvalues go through BLAS, whose rounding
            # may depend on threading, so only the tolerance checks apply
            deterministic=False,
        )
    )
    ops.append(
        Op(
            "asymptotic.quantiles",
            lambda: tuple(api.pearson_quantile(api.pearson_fit(api.cumulants_exact()), p) for p in LIMIT_QUANTILES),
            _check_quantiles,
            lambda out: out,
            samples=0,
            timed=False,
        )
    )
    for label in THEORY_ALTERNATIVES:
        ops.append(
            Op(
                "asymptotic.theory",
                lambda label=label: _fixed_alternative(api, label),
                _check_theory,
                lambda out: out,
                samples=0,
                timed=False,
            )
        )
    return ops


def _serve_request(api, u):
    """What ``unigof test --critvals pearson`` does for one sample, plus the p-value."""
    battery = api.classical_battery(u)
    t = api.tm_statistic(u)
    fit = api.pearson_fit(api.cumulants_exact())
    c = api.pearson_quantile(fit, 0.95)
    return battery, t, c, 1.0 - fit.cdf(t)


def _check_request(out) -> list[str]:
    battery, t, c, p = out
    problems = []
    stats = [o.statistic for o in battery]
    if len(stats) != 10 or not _finite(*stats):
        problems.append(f"battery {[(o.test_id, o.statistic) for o in battery]}")
    if not _finite(t) or t < 0.0:
        problems.append(f"tm statistic {t!r}")
    if not abs(c - LIMIT_QUANTILES[0.95]) <= 0.002:
        problems.append(f"95% Pearson quantile {c!r} vs {LIMIT_QUANTILES[0.95]} (tol 0.002)")
    if not (_finite(p) and 0.0 <= p <= 1.0):
        problems.append(f"p-value {p!r} outside [0, 1]")
    return problems


def _check_spectrum(api, out) -> list[str]:
    spectrum, numeric = out
    exact = api.cumulants_exact()
    problems = []
    if spectrum.eigenvalues.size != SPECTRUM_ORDER or not np.all(np.isfinite(spectrum.eigenvalues)):
        problems.append("spectrum has the wrong size or non-finite eigenvalues")
    for name in ("k3", "k4"):
        err = abs(getattr(numeric, name) - getattr(exact, name))
        if not err <= 1e-6:
            problems.append(f"numeric {name} off exact by {err:.2e} (tol 1e-6)")
    return problems


def _check_quantiles(out) -> list[str]:
    return [
        f"{p:.0%} limit quantile {got:.4f} vs {want} (tol 0.002)"
        for (p, want), got in zip(LIMIT_QUANTILES.items(), out)
        if not abs(got - want) <= 0.002
    ]


def _fixed_alternative(api, label: str):
    spec = api.mc.theory_spec_for(api.parse_spec(label))
    c = api.pearson_quantile(api.pearson_fit(api.cumulants_exact()), 0.95)
    curve = api.power_curve(spec, 0.05, list(CURVE_SIZES), c)
    return spec.delta, spec.sigma2, tuple(curve.approx_power)


def _check_theory(out) -> list[str]:
    delta, sigma2, power = out
    problems = []
    if not (_finite(delta, sigma2) and delta > 0.0 and sigma2 > 0.0):
        problems.append(f"delta {delta!r}, sigma2 {sigma2!r}")
    if not _finite(*power) or any(not 0.0 <= v <= 1.0 for v in power):
        problems.append("approximate power outside [0, 1]")
    elif any(a > b for a, b in zip(power, power[1:])):
        problems.append("approximate power decreases with n")
    return problems
