"""Goodness-of-fit toolkit built around a tail-moment test of uniformity.

The statistic integrates the squared deviation of a conditional-moment
process from its uniform benchmark; it characterises the uniform law, has
a tractable Gaussian limit, and extends to composite normal and Pareto
hypotheses through probability transforms. The package bundles the
statistic, its asymptotic null theory, fixed-alternative power
approximations, nine classical competitor tests, the alternative
distributions of the accompanying simulation studies, parametric
bootstrap p-values, and a deterministic Monte Carlo engine.
"""

from .classical import CLASSICAL_KINDS, TEST_IDS, batch_statistic, classical_battery
from .composite import (
    BootstrapResult,
    CompositeFamily,
    bootstrap_pvalue,
    estimate_normal,
    estimate_pareto,
    transform_normal,
    transform_pareto,
)
from .distributions import (
    AlternativeSpec,
    cdf,
    check_support,
    parse_spec,
    sample,
    support,
)
from .mc import (
    STREAM_SCHEME,
    CellResult,
    StudyConfig,
    StudyResult,
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
from .null_limit import (
    CumulantSet,
    NystromSpectrum,
    PearsonFit,
    cumulants_exact,
    cumulants_numeric,
    null_kernel,
    nystrom_spectrum,
    pearson_fit,
    pearson_quantile,
)
from .numerics import (
    QuadratureRule,
    gauss_legendre,
    normal_cdf,
    normal_quantile,
    nystrom_discretize,
)
from .power_theory import (
    AlternativeTheorySpec,
    PowerCurve,
    alt_kernel,
    approximate_power,
    asymptotic_variance,
    builtin_beta_specs,
    discrepancy,
    power_curve,
    spec_from_density,
    uniform_theory_spec,
)
from .statistic import (
    Sample,
    TestOutcome,
    UnitRows,
    UnitSample,
    empirical_process,
    tm_statistic,
    tm_statistic_batch,
    tm_statistic_integral,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeSpec",
    "AlternativeTheorySpec",
    "BootstrapResult",
    "CLASSICAL_KINDS",
    "CellResult",
    "CompositeFamily",
    "CumulantSet",
    "NystromSpectrum",
    "PearsonFit",
    "PowerCurve",
    "QuadratureRule",
    "STREAM_SCHEME",
    "Sample",
    "StudyConfig",
    "StudyResult",
    "TEST_IDS",
    "TestOutcome",
    "UnitRows",
    "UnitSample",
    "alt_kernel",
    "approximate_power",
    "asymptotic_variance",
    "batch_statistic",
    "bootstrap_pvalue",
    "builtin_beta_specs",
    "cdf",
    "check_support",
    "classical_battery",
    "critical_value_map",
    "cumulants_exact",
    "cumulants_numeric",
    "discrepancy",
    "empirical_process",
    "estimate_critical_values",
    "estimate_normal",
    "estimate_pareto",
    "estimate_power",
    "format_critval_table",
    "format_power_table",
    "gauss_legendre",
    "normal_cdf",
    "normal_quantile",
    "null_kernel",
    "nystrom_discretize",
    "nystrom_spectrum",
    "parse_spec",
    "pearson_fit",
    "pearson_quantile",
    "power_curve",
    "read_study_csv",
    "rng_substream",
    "run_power_curve",
    "sample",
    "spec_from_density",
    "support",
    "tm_statistic",
    "tm_statistic_batch",
    "tm_statistic_integral",
    "transform_normal",
    "transform_pareto",
    "uniform_theory_spec",
    "write_study_csv",
]
