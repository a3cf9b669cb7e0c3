"""Command-line interface.

Subcommands mirror the workflows the package automates: ``test`` runs the
battery on a data file, ``critval`` and ``power`` drive Monte Carlo
studies, ``curve`` emits approximate-versus-empirical power across sample
sizes, ``bootstrap`` computes composite p-values, and ``spectrum`` prints
diagnostics of the null limit operator.

Every request is checked by the ``StudyConfig`` it runs: ``test`` checks
--tests and --alpha on every ``--critvals`` route and refuses --reps and
--seed beside ``pearson`` or a CSV, which simulate nothing. Studies run
their (cell, chunk) tasks on every core; ``taskset`` sets the count.
argparse splits the list options and names the option when one is malformed.
``--out`` is checked before any draw, and nothing is written when the study fails.

Exit codes: 0 the null is retained, 1 it is rejected (decided by the
tail-moment test), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace

import numpy as np

from .classical import TEST_IDS, batch_statistic
from .composite import FAMILIES as COMPOSITE_FAMILIES, bootstrap_pvalue
from .distributions import GRAMMAR_HELP, _number, cdf as spec_cdf, covers, parse_spec, support
from .mc import (
    NULL_FAMILIES,
    StudyConfig,
    critical_value_map,
    critical_value_table,
    estimate_critical_values,
    estimate_power,
    format_critval_table,
    format_power_table,
    read_study_csv,
    rng_substream,
    run_power_curve,
    write_study_csv,
)
from .null_limit import (
    _power_sum_cumulants, cumulants_exact, cumulants_numeric, nystrom_spectrum, pearson_fit, pearson_quantile,
)
from .statistic import Sample, UnitRows, UnitSample

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


def _list_of(convert):
    """argparse type: a comma-separated list, each entry passed through ``convert``."""
    def parse(raw: str) -> tuple:
        try:
            return tuple(convert(s.strip()) for s in raw.split(",") if s.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {raw!r}") from None
    return parse


def _size_range(raw: str) -> tuple[int, ...]:
    """argparse type of ``--n-range``: start:stop[:step], or comma-separated sizes."""
    if ":" not in raw:
        return _list_of(int)(raw)
    parts = raw.split(":")
    try:
        start, stop, step = (int(s) for s in parts + ["1"] * (len(parts) == 2))
        if step < 1 or stop < start:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"size range must be start:stop[:step], increasing with positive step, got {raw!r}") from None
    return tuple(range(start, stop + 1, step))


def _to_unit(args, data: np.ndarray) -> UnitSample:
    null = args.null
    if null == "uniform":
        return UnitSample(data)
    if null in COMPOSITE_FAMILIES:
        return COMPOSITE_FAMILIES[null].transform(Sample(data))
    spec = parse_spec(null)  # simple null with a fully specified CDF
    x = Sample(data).values
    outside = x[~covers(spec, x)]  # the CDF is flat off the support, so such data must fail here
    if outside.size:
        lo, hi = support(spec)
        raise ValueError(f"value {float(outside[0])!r} lies outside the support of {spec.label()} "
                         f"(its hull is [{lo:g}, {hi:g}])")
    return UnitSample(spec_cdf(spec, x))


def _study(args, mode, family, alternatives, sizes, alphas) -> StudyConfig:
    """The study a subcommand runs on every core: --tests, --reps and --seed are its
    tests, replications and master_seed."""
    return StudyConfig(mode=mode, tests=args.tests, family=family, alternatives=alternatives,
                       sizes=sizes, alphas=alphas, replications=args.reps, master_seed=args.seed)


def _critical_values(config: StudyConfig, source):
    """The critical-value study ``config`` describes.

    Read from the study CSV at ``source``, or simulated when ``source`` is
    None. A CSV that ``critical_value_table`` refuses is an error prefixed
    with its path.
    """
    if source is None:
        return estimate_critical_values(config)
    result = read_study_csv(source)
    try:
        critical_value_table(result, config.family, config.tests, config.sizes, config.alphas)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
    return result


def _check_out(path: str) -> None:
    """Raise the error that writing ``path`` would, before any draw, creating or truncating nothing."""
    folder = os.path.dirname(os.path.abspath(path))
    code = (errno.EISDIR if os.path.isdir(path) else errno.ENOENT if not os.path.isdir(folder)
            else 0 if os.access(path if os.path.exists(path) else folder, os.W_OK) else errno.EACCES)
    if code:
        raise OSError(code, os.strerror(code), path)


def _emit(args, result, format_table) -> int:
    """Write the study CSV to ``--out`` and print its table unless only a CSV was asked for."""
    if args.out:
        write_study_csv(result, args.out)
        print(f"wrote {len(result.rows)} rows to {args.out}")
    if args.table or not args.out:
        print(format_table(result))
    return 0


def _cmd_test(args) -> int:
    for name, default in (("reps", 20000), ("seed", 0)):  # only --critvals mc simulates
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.critvals != "mc":
            raise ValueError(f"--{name} applies only to --critvals mc, the route that simulates")
    rows = UnitRows(_to_unit(args, _read_observations(args.data)))
    n = rows.values.shape[1]
    # the study behind every route checks tests and alpha
    family = args.null if args.null in COMPOSITE_FAMILIES else "uniform"
    config = _study(args, "critical_values", family, (), (n,), (args.alpha,))
    tests = config.tests
    if args.critvals == "pearson":
        if tests != ("tm",):
            raise ValueError("--critvals pearson covers only the tm test; use --tests tm or --critvals mc")
        if config.family != "uniform":
            raise ValueError("--critvals pearson applies to simple nulls only; composite nulls need mc")
        cv = {("tm", n, args.alpha): pearson_quantile(pearson_fit(cumulants_exact()), 1.0 - args.alpha)}
    else:
        cv = critical_value_map(_critical_values(config, None if args.critvals == "mc" else args.critvals))

    decision_test = "tm" if "tm" in tests else tests[0]
    exit_code = 0
    print(f"n = {n}, null = {args.null}, alpha = {_number(args.alpha)}, critical values: {args.critvals}")
    for t in tests:
        stat = float(batch_statistic(t, rows)[0])
        c = cv[(t, n, args.alpha)]
        verdict = "reject" if stat > c else "retain"
        print(f"{t:>8s}  statistic {stat:12.6f}  critical {c:12.6f}  -> {verdict}")
        if t == decision_test and stat > c:
            exit_code = 1
    return exit_code


def _cmd_critval(args) -> int:
    config = _study(args, "critical_values", args.family, (), args.n, args.alpha)
    return _emit(args, estimate_critical_values(config), format_critval_table)


def _cmd_power(args) -> int:
    config = _study(args, "power", args.family, tuple(parse_spec(s) for s in args.alt), args.n, args.alpha)
    # every field but the replications has passed as the power study's
    try:
        cv_config = replace(config, mode="critical_values", alternatives=(),
                            replications=config.replications if args.critvals else args.critval_reps)
    except ValueError as exc:
        raise ValueError(f"--critval-reps: {exc}") from None
    return _emit(args, estimate_power(config, _critical_values(cv_config, args.critvals)), format_power_table)


def _cmd_curve(args) -> int:
    config = _study(args, "power_curve", "uniform", (parse_spec(args.alt),), args.n_range, (args.alpha,))
    curve = run_power_curve(config)
    if args.out:
        curve.write_csv(args.out)
        print(f"wrote {len(curve.sample_sizes)} rows to {args.out}")
    else:
        print("n,approx_power,empirical_power,mc_se")
        for n, *values in zip(curve.sample_sizes, curve.approx_power, curve.empirical_power, curve.mc_se):
            print(f"{n}," + ",".join(f"{v:.6f}" for v in values))
    return 0


def _cmd_bootstrap(args) -> int:
    if args.seed < 0:
        raise ValueError(f"master_seed: expected a non-negative integer, got {args.seed}")
    data = Sample(_read_observations(args.data))
    result = bootstrap_pvalue(args.family, args.test, data, args.B, rng_substream(args.seed, 0))
    print(f"test {result.test_id}, family {result.family_tag}: statistic {result.observed_statistic:.6f}, "
          f"p-value {result.p_value:.6g} ({result.replications} bootstrap replications)")
    return 0


def _cmd_spectrum(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    spec = nystrom_spectrum(args.order)
    exact = cumulants_exact()
    numeric = _power_sum_cumulants(spec.eigenvalues) if args.order >= 128 else cumulants_numeric(128)
    top = spec.eigenvalues[: args.top]
    print(f"leading eigenvalues (order {spec.eigenvalues.size}):")
    for i, lam in enumerate(top, start=1):
        print(f"  {i:3d}  {lam:.12f}")
    print(f"trace: {float(np.sum(spec.eigenvalues)):.12f} (mean of limit: {exact.k1:.12f})")
    pairs = (f"k{j} {getattr(numeric, f'k{j}'):.10f}/{getattr(exact, f'k{j}'):.10f}" for j in (1, 2, 3, 4))
    print(f"cumulants (numeric vs exact): {', '.join(pairs)}")
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
    p_test.add_argument("--tests", type=_list_of(str), default=",".join(TEST_IDS), help="comma-separated test ids")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument(
        "--critvals",
        default="mc",
        help="'pearson' (asymptotic, tm only), 'mc' (simulate), or a study CSV path",
    )
    p_test.add_argument("--reps", type=int, help="replications for --critvals mc (default 20000)")
    p_test.add_argument("--seed", type=int, help="seed for --critvals mc (default 0)")
    p_test.set_defaults(func=_cmd_test)

    p_crit = sub.add_parser("critval", help="tabulate Monte Carlo critical values")
    p_crit.add_argument("--family", default="uniform", choices=NULL_FAMILIES)
    p_crit.add_argument("--n", type=_list_of(int), required=True, help="comma-separated sample sizes")
    p_crit.add_argument("--alpha", type=_list_of(float), default="0.1,0.05,0.01")
    p_crit.add_argument("--tests", type=_list_of(str), default="tm")
    p_crit.add_argument("--reps", type=int, default=100000)
    p_crit.add_argument("--seed", type=int, default=0)
    p_crit.add_argument("--out", help="write the study CSV here")
    p_crit.add_argument("--table", action="store_true", help="also print a formatted table")
    p_crit.set_defaults(func=_cmd_critval)

    p_pow = sub.add_parser("power", help="estimate empirical power against alternatives")
    p_pow.add_argument("--family", default="uniform", choices=NULL_FAMILIES)
    p_pow.add_argument("--alt", action="append", required=True, help="alternative spec (repeatable)")
    p_pow.add_argument("--n", type=_list_of(int), default="30,50")
    p_pow.add_argument("--alpha", type=_list_of(float), default="0.05")
    p_pow.add_argument("--tests", type=_list_of(str), default=",".join(TEST_IDS))
    p_pow.add_argument("--reps", type=int, default=10000)
    critvals = p_pow.add_mutually_exclusive_group()
    critvals.add_argument("--critval-reps", type=int, default=100000, dest="critval_reps",
                          help="replications for simulated critical values")
    critvals.add_argument("--critvals", help="reuse critical values from this study CSV")
    p_pow.add_argument("--seed", type=int, default=0)
    p_pow.add_argument("--out", help="write the study CSV here")
    p_pow.add_argument("--table", action="store_true")
    p_pow.set_defaults(func=_cmd_power)

    p_curve = sub.add_parser("curve", help="approximate vs empirical power across sample sizes")
    p_curve.add_argument("--alt", required=True, help="unit-interval alternative spec")
    p_curve.add_argument("--n-range", type=_size_range, default="10:200:10", dest="n_range")
    p_curve.add_argument("--alpha", type=float, default=0.05)
    p_curve.add_argument("--reps", type=int, default=2000)
    p_curve.add_argument("--seed", type=int, default=0)
    p_curve.add_argument("--out", help="write the curve CSV here")
    p_curve.set_defaults(func=_cmd_curve, tests=("tm",))

    p_boot = sub.add_parser("bootstrap", help="parametric bootstrap p-value for composite nulls")
    p_boot.add_argument("data")
    p_boot.add_argument("--family", required=True, choices=tuple(COMPOSITE_FAMILIES))
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
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
