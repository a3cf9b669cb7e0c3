"""Command-line interface.

Subcommands mirror the workflows the package automates: ``test`` runs the
battery on a data file, ``critval`` and ``power`` drive Monte Carlo
studies, ``curve`` emits approximate-versus-empirical power across sample
sizes, ``bootstrap`` computes composite p-values, and ``spectrum`` prints
diagnostics of the null limit operator.

Exit codes: 0 the null is retained, 1 it is rejected (decided by the
tail-moment test), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .classical import TEST_IDS, batch_statistic
from .composite import bootstrap_pvalue, transform_normal, transform_pareto
from .distributions import GRAMMAR_HELP, cdf as spec_cdf, parse_spec
from .mc import (
    StudyConfig,
    critical_value_map,
    estimate_critical_values,
    estimate_power,
    format_critval_table,
    format_power_table,
    read_study_csv,
    rng_substream,
    run_power_curve,
    write_study_csv,
)
from .null_limit import cumulants_exact, cumulants_numeric, nystrom_spectrum, pearson_fit, pearson_quantile
from .statistic import Sample, UnitSample

__all__ = ["main"]


def _read_observations(path: str) -> np.ndarray:
    values: list[float] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no observations found")
    return np.asarray(values)


def _parse_id_list(raw: str, valid: tuple[str, ...], what: str) -> tuple[str, ...]:
    items = tuple(s.strip() for s in raw.split(",") if s.strip())
    for item in items:
        if item not in valid:
            raise ValueError(f"unknown {what} {item!r}; expected one of {', '.join(valid)}")
    if not items:
        raise ValueError(f"no {what}s given")
    return items


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(s) for s in raw.split(",") if s.strip())


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(s) for s in raw.split(",") if s.strip())


def _parse_size_range(raw: str) -> tuple[int, ...]:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) not in (2, 3):
            raise ValueError("size range must be start:stop[:step]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1 or stop < start:
            raise ValueError("size range must be increasing with positive step")
        return tuple(range(start, stop + 1, step))
    return _parse_int_list(raw)


def _to_unit(args, data: np.ndarray) -> UnitSample:
    null = args.null
    if null == "uniform":
        bad = data[(data < 0.0) | (data > 1.0)]
        if bad.size:
            raise ValueError(f"uniform null needs data in [0, 1]; found {float(bad[0])!r}")
        return UnitSample(data)
    if null == "normal":
        return transform_normal(Sample(data))
    if null == "pareto":
        return transform_pareto(Sample(data))
    spec = parse_spec(null)  # simple null with a fully specified CDF
    u = np.asarray(spec_cdf(spec, data))
    return UnitSample(u)


def _critical_values_for(args, tests: tuple[str, ...], n: int) -> dict[tuple[str, int, float], float]:
    source = args.critvals
    alpha = args.alpha
    if source == "pearson":
        if tests != ("tm",):
            raise ValueError("--critvals pearson covers only the tm test; use --tests tm or --critvals mc")
        if args.null in ("normal", "pareto"):
            raise ValueError("--critvals pearson applies to simple nulls only; composite nulls need mc")
        c = pearson_quantile(pearson_fit(cumulants_exact()), 1.0 - alpha)
        return {("tm", n, alpha): c}
    if source == "mc":
        family = args.null if args.null in ("normal", "pareto") else "uniform"
        config = StudyConfig(
            mode="critical_values",
            tests=tests,
            family=family,
            alternatives=(),
            sizes=(n,),
            alphas=(alpha,),
            replications=args.reps,
            master_seed=args.seed,
            workers=args.workers,
        )
        return critical_value_map(estimate_critical_values(config))
    table = critical_value_map(read_study_csv(source))
    for t in tests:
        if (t, n, alpha) not in table:
            raise ValueError(f"{source}: no critical value for test={t}, n={n}, alpha={alpha:g}")
    return table


def _cmd_test(args) -> int:
    data = _read_observations(args.data)
    unit = _to_unit(args, data)
    tests = _parse_id_list(args.tests, TEST_IDS, "test id")
    n = unit.values.size
    cv = _critical_values_for(args, tests, n)

    decision_test = "tm" if "tm" in tests else tests[0]
    exit_code = 0
    print(f"n = {n}, null = {args.null}, alpha = {args.alpha:g}, critical values: {args.critvals}")
    for t in tests:
        stat = float(batch_statistic(t, unit.values[None, :])[0])
        c = cv[(t, n, args.alpha)]
        verdict = "reject" if stat > c else "retain"
        print(f"{t:>8s}  statistic {stat:12.6f}  critical {c:12.6f}  -> {verdict}")
        if t == decision_test and stat > c:
            exit_code = 1
    return exit_code


def _cmd_critval(args) -> int:
    config = StudyConfig(
        mode="critical_values",
        tests=_parse_id_list(args.tests, TEST_IDS, "test id"),
        family=args.family,
        alternatives=(),
        sizes=_parse_int_list(args.n),
        alphas=_parse_float_list(args.alpha),
        replications=args.reps,
        master_seed=args.seed,
        workers=args.workers,
    )
    result = estimate_critical_values(config)
    if args.out:
        write_study_csv(result, args.out)
        print(f"wrote {len(result.rows)} rows to {args.out}")
    if args.table or not args.out:
        print(format_critval_table(result))
    return 0


def _cmd_power(args) -> int:
    tests = _parse_id_list(args.tests, TEST_IDS, "test id")
    sizes = _parse_int_list(args.n)
    alphas = _parse_float_list(args.alpha)
    alternatives = tuple(parse_spec(s) for s in args.alt)
    config = StudyConfig(
        mode="power",
        tests=tests,
        family=args.family,
        alternatives=alternatives,
        sizes=sizes,
        alphas=alphas,
        replications=args.reps,
        master_seed=args.seed,
        workers=args.workers,
    )
    if args.critvals:
        cv_result = read_study_csv(args.critvals)
    else:
        cv_config = StudyConfig(
            mode="critical_values",
            tests=tests,
            family=args.family,
            alternatives=(),
            sizes=sizes,
            alphas=alphas,
            replications=args.critval_reps,
            master_seed=args.seed,
            workers=args.workers,
        )
        cv_result = estimate_critical_values(cv_config)
    result = estimate_power(config, cv_result)
    if args.out:
        write_study_csv(result, args.out)
        print(f"wrote {len(result.rows)} rows to {args.out}")
    if args.table or not args.out:
        print(format_power_table(result))
    return 0


def _cmd_curve(args) -> int:
    config = StudyConfig(
        mode="power_curve",
        tests=("tm",),
        family="uniform",
        alternatives=(parse_spec(args.alt),),
        sizes=_parse_size_range(args.n_range),
        alphas=(args.alpha,),
        replications=args.reps,
        master_seed=args.seed,
        workers=args.workers,
    )
    curve = run_power_curve(config)
    if args.out:
        curve.write_csv(args.out)
        print(f"wrote {len(curve.sample_sizes)} rows to {args.out}")
    else:
        print("n,approx_power,empirical_power,mc_se")
        for i, n in enumerate(curve.sample_sizes):
            print(
                f"{n},{curve.approx_power[i]:.6f},"
                f"{curve.empirical_power[i]:.6f},{curve.mc_se[i]:.6f}"
            )
    return 0


def _cmd_bootstrap(args) -> int:
    data = _read_observations(args.data)
    result = bootstrap_pvalue(
        args.family, args.test, Sample(data), args.B, rng_substream(args.seed, 0)
    )
    print(
        f"test {result.test_id}, family {result.family_tag}: "
        f"statistic {result.observed_statistic:.6f}, "
        f"p-value {result.p_value:.6g} ({result.replications} bootstrap replications)"
    )
    return 0


def _cmd_spectrum(args) -> int:
    spec = nystrom_spectrum(args.order)
    exact = cumulants_exact()
    numeric = cumulants_numeric(max(args.order, 128))
    top = spec.eigenvalues[: args.top]
    print(f"leading eigenvalues (order {spec.order}):")
    for i, lam in enumerate(top, start=1):
        print(f"  {i:3d}  {lam:.12f}")
    print(f"trace: {float(np.sum(spec.eigenvalues)):.12f} (mean of limit: {exact.k1:.12f})")
    print(
        "cumulants (numeric vs exact): "
        + ", ".join(
            f"k{j} {getattr(numeric, f'k{j}'):.10f}/{getattr(exact, f'k{j}'):.10f}"
            for j in (1, 2, 3, 4)
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unigof",
        description="Goodness-of-fit testing built around a tail-moment characterisation of uniformity.",
        epilog=f"Alternative spec grammar: {GRAMMAR_HELP}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the test battery on a data file")
    p_test.add_argument("data", help="text file, one observation per line")
    p_test.add_argument(
        "--null",
        default="uniform",
        help="uniform, normal, pareto, or a fully specified distribution spec",
    )
    p_test.add_argument("--tests", default=",".join(TEST_IDS), help="comma-separated test ids")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument(
        "--critvals",
        default="mc",
        help="'pearson' (asymptotic, tm only), 'mc' (simulate), or a study CSV path",
    )
    p_test.add_argument("--reps", type=int, default=20000, help="replications for --critvals mc")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--workers", type=int, default=1)
    p_test.set_defaults(func=_cmd_test)

    p_crit = sub.add_parser("critval", help="tabulate Monte Carlo critical values")
    p_crit.add_argument("--family", default="uniform", choices=("uniform", "normal", "pareto"))
    p_crit.add_argument("--n", required=True, help="comma-separated sample sizes")
    p_crit.add_argument("--alpha", default="0.1,0.05,0.01")
    p_crit.add_argument("--tests", default="tm")
    p_crit.add_argument("--reps", type=int, default=100000)
    p_crit.add_argument("--seed", type=int, default=0)
    p_crit.add_argument("--workers", type=int, default=1)
    p_crit.add_argument("--out", help="write the study CSV here")
    p_crit.add_argument("--table", action="store_true", help="also print a formatted table")
    p_crit.set_defaults(func=_cmd_critval)

    p_pow = sub.add_parser("power", help="estimate empirical power against alternatives")
    p_pow.add_argument("--family", default="uniform", choices=("uniform", "normal", "pareto"))
    p_pow.add_argument("--alt", action="append", required=True, help="alternative spec (repeatable)")
    p_pow.add_argument("--n", default="30,50")
    p_pow.add_argument("--alpha", default="0.05")
    p_pow.add_argument("--tests", default=",".join(TEST_IDS))
    p_pow.add_argument("--reps", type=int, default=10000)
    p_pow.add_argument("--critval-reps", type=int, default=100000, dest="critval_reps")
    p_pow.add_argument("--critvals", help="reuse critical values from this study CSV")
    p_pow.add_argument("--seed", type=int, default=0)
    p_pow.add_argument("--workers", type=int, default=1)
    p_pow.add_argument("--out", help="write the study CSV here")
    p_pow.add_argument("--table", action="store_true")
    p_pow.set_defaults(func=_cmd_power)

    p_curve = sub.add_parser("curve", help="approximate vs empirical power across sample sizes")
    p_curve.add_argument("--alt", required=True, help="unit-interval alternative spec")
    p_curve.add_argument("--n-range", default="10:200:10", dest="n_range")
    p_curve.add_argument("--alpha", type=float, default=0.05)
    p_curve.add_argument("--reps", type=int, default=2000)
    p_curve.add_argument("--seed", type=int, default=0)
    p_curve.add_argument("--workers", type=int, default=1)
    p_curve.add_argument("--out", help="write the curve CSV here")
    p_curve.set_defaults(func=_cmd_curve)

    p_boot = sub.add_parser("bootstrap", help="parametric bootstrap p-value for composite nulls")
    p_boot.add_argument("data")
    p_boot.add_argument("--family", required=True, choices=("normal", "pareto"))
    p_boot.add_argument("--test", default="tm", choices=TEST_IDS)
    p_boot.add_argument("-B", type=int, default=1000)
    p_boot.add_argument("--seed", type=int, default=0)
    p_boot.set_defaults(func=_cmd_bootstrap)

    p_spec = sub.add_parser("spectrum", help="eigenvalues and cumulants of the null limit")
    p_spec.add_argument("--order", type=int, default=512)
    p_spec.add_argument("--top", type=int, default=10)
    p_spec.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
