"""Composite hypotheses: estimate the family parameters, then test the fit.

Two location-scale-free families are supported. For normality the sample
is standardised by the maximum likelihood estimates (variance divisor n,
not n - 1) and pushed through the normal CDF. For the Pareto shape family
the shape estimate enters through a power transform whose re-estimated
shape is exactly one, after which the unit-shape CDF applies. Both
constructions are pivotal: the transformed sample's distribution does not
depend on the true parameter, which is what makes fixed critical-value
tables possible.

Pivotality also makes the standard member the fitted member at standard
parameters, so each family has one sampler, which the Monte Carlo cells and
the bootstrap both draw. A degenerate fit is an error that names the
family; no sample is ever dropped.

P-values come from a parametric bootstrap that re-estimates parameters in
every replicate, mirroring what was done to the data. The replicates stream
through cache-sized blocks of rows, scored on every core the process may
run on. The blocks are drawn in stream order under one lock, so the
bootstrap holds O(cores x block) values, not O(B n), and its p-value is the
one a single (B, n) draw would give, whatever the core count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from numbers import Integral
from typing import Callable

import numpy as np

from .classical import batch_statistic, check_test_id
from .numerics import normal_cdf
from .statistic import _BLOCK_VALUES, Sample, UnitSample, _on_every_core

__all__ = [
    "CompositeFamily",
    "BootstrapResult",
    "FAMILIES",
    "MIN_SIZES",
    "check_sample_size",
    "estimate_normal",
    "transform_normal",
    "estimate_pareto",
    "transform_pareto",
    "bootstrap_pvalue",
]


def _values(x) -> np.ndarray:
    """The observations of a Sample, or of raw data checked as one."""
    return (x if isinstance(x, Sample) else Sample(x)).values


def _normal_data(x) -> np.ndarray:
    """Raw data as one row, refused if it holds fewer than two observations."""
    v = _values(x)
    if v.size < 2:
        raise ValueError("normal estimation needs at least two observations")
    return v[None, :]


def estimate_normal(x) -> tuple[float, float]:
    """Maximum likelihood mean and standard deviation (divisor n); equal values are a degenerate fit."""
    mu, sigma, _ = _normal_fit(_normal_data(x))
    return float(mu[0, 0]), float(sigma[0, 0])


def transform_normal(x) -> UnitSample:
    """Probability transform of the scaled residuals."""
    return UnitSample(_normal_rows(_normal_data(x))[0])


def _pareto_data(x) -> np.ndarray:
    """Raw data as one row, refused if a value lies below 1, the end of the Pareto support."""
    v = _values(x)
    if np.any(v < 1.0):
        raise ValueError(f"Pareto data must be at least 1; found {float(v[v < 1.0][0])!r}")
    return v[None, :]


def estimate_pareto(x) -> float:
    """Maximum likelihood shape for the unit-scale Pareto family; all-ones data is a degenerate fit."""
    return float(_pareto_fit(_pareto_data(x))[0][0, 0])


def transform_pareto(x) -> UnitSample:
    """Shape-free probability transform for Pareto data.

    Raising the data to the estimated shape gives a sample whose own shape
    estimate is exactly one, so the unit-shape CDF 1 - 1/y applies without
    further estimation. The result is invariant to powering the data,
    which is the family's group structure.
    """
    return UnitSample(_pareto_rows(_pareto_data(x))[0])


def _check_fits(tag: str, degenerate: np.ndarray) -> None:
    """Raise when any row's fit is degenerate; ``degenerate`` flags the rows."""
    bad = int(np.count_nonzero(degenerate))
    if bad:
        raise ValueError(f"the {tag} fit is degenerate in {bad} of {degenerate.size} samples")


def _standardise(X: np.ndarray):
    mu = X.mean(axis=1, keepdims=True)
    D = X - mu
    sigma = np.sqrt(np.mean(D**2, axis=1, keepdims=True))
    D /= sigma
    return mu, sigma, D


def _normal_fit(X: np.ndarray):
    """Row means, ML standard deviations and standardised residuals; raises when a row's values are all equal.

    Rows whose moments overflow are fitted again on an exact power-of-two
    rescaling; every other row is computed once. The rounded mean of equal
    values can differ from them, which leaves a standard deviation of up to
    about n eps |mu| instead of 0, so only rows that close to constant are
    compared exactly. ``sigma > 0`` also catches a variance that underflows.
    """
    with np.errstate(all="ignore"):  # overflowing rows are redone, degenerate rows raise
        mu, sigma, Z = _standardise(X)
        huge = np.flatnonzero(~np.isfinite(sigma[:, 0]))
        if huge.size:
            scale = np.ldexp(1.0, np.frexp(np.abs(X[huge]).max(axis=1, keepdims=True))[1] - 1)
            mu_h, sigma_h, Z[huge] = _standardise(X[huge] / scale)
            mu[huge], sigma[huge] = mu_h * scale, sigma_h * scale
    bad = ~(sigma[:, 0] > 0.0)
    near = np.flatnonzero(sigma[:, 0] <= X.shape[1] * np.finfo(float).eps * np.abs(mu[:, 0]))
    bad[near] |= X[near].min(axis=1) == X[near].max(axis=1)
    _check_fits("normal", bad)
    return mu, sigma, Z


def _normal_rows(X: np.ndarray) -> np.ndarray:
    Z = _normal_fit(X)[2]
    return normal_cdf(Z, out=Z)


def _pareto_fit(X: np.ndarray):
    """Row ML shapes and the log values; raises when a row's logs do not sum to a positive finite total."""
    L = np.log(X)
    total = L.sum(axis=1, keepdims=True)
    _check_fits("pareto", ~((total > 0.0) & np.isfinite(total)))
    return X.shape[1] / total, L


def _pareto_rows(X: np.ndarray) -> np.ndarray:
    shape, L = _pareto_fit(X)
    L *= -shape
    np.expm1(L, out=L)
    return np.negative(L, out=L)


@dataclass(frozen=True)
class CompositeFamily:
    """Estimator, transforms and samplers; ``sample_standard`` is ``sample_fitted`` at standard parameters.

    ``sample_standard(shape, rng)`` must be stream-sequential: drawing shape
    (a, n) and then (b, n) from one generator gives the rows of one
    (a + b, n) draw, as a single call on ``rng`` does. The bootstrap draws
    its replicates block by block and relies on this for its p-values.
    No package code calls ``estimator`` or ``sample_fitted``; they stay only
    because ``benchmarks/tracing.py`` rebuilds every family with all five.
    """

    estimator: Callable
    transform: Callable
    transform_rows: Callable[[np.ndarray], np.ndarray]
    sample_standard: Callable[[tuple[int, int], np.random.Generator], np.ndarray]
    sample_fitted: Callable


def _normal_fitted(params, shape, rng):
    mu, sigma = params
    return mu + sigma * rng.standard_normal(shape)


def _pareto_fitted(params, shape, rng):
    return (1.0 - rng.random(shape)) ** (-1.0 / params)


FAMILIES: dict[str, CompositeFamily] = {
    "normal": CompositeFamily(
        estimate_normal, transform_normal, _normal_rows, partial(_normal_fitted, (0.0, 1.0)), _normal_fitted
    ),
    "pareto": CompositeFamily(
        estimate_pareto, transform_pareto, _pareto_rows, partial(_pareto_fitted, 1.0), _pareto_fitted
    ),
}


# Smallest sample sizes at which the fitted transform still varies: at
# n = 2 the normal fit maps every sample to (Phi(-1), Phi(1)), and at n = 1
# the Pareto fit maps every sample to 1 - 1/e.
MIN_SIZES: dict[str, int] = {"normal": 3, "pareto": 2}


def check_sample_size(tag: str, n: int) -> None:
    """Reject a sample size at which the family's transform is degenerate."""
    least = MIN_SIZES.get(tag, 1)
    if n < least:
        raise ValueError(
            f"the {tag} family needs samples of at least {least} observations, got n = {n}; "
            "smaller samples transform to a degenerate unit sample"
        )


@dataclass(frozen=True)
class BootstrapResult:
    p_value: float
    replications: int
    observed_statistic: float
    test_id: str
    family_tag: str

    def __post_init__(self) -> None:
        if not 0.0 < self.p_value <= 1.0:
            raise ValueError("p_value must lie in (0, 1]")
        if self.replications < 1:
            raise ValueError("replications must be positive")


def bootstrap_pvalue(
    tag: str, kind: str, x, B: int, rng: np.random.Generator
) -> BootstrapResult:
    """Parametric bootstrap p-value for one statistic on one sample.

    ``tag`` names the composite family, a key of :data:`FAMILIES`. Fits
    the data once, for the observed statistic on its transformed sample,
    then repeats estimate-transform-evaluate on B samples of the standard
    member: the transform is pivotal, so they have the fitted member's law.
    The p-value uses the add-one convention (1 + exceedances) / (B + 1),
    valid at any finite B. ``kind`` and ``B`` are checked before the fit.

    The replicates stream in blocks of ``max(1, 2^15 // n)`` rows through
    the scheduler that Monte Carlo cells share: block k is the k-th draw
    from ``rng``, taken under one lock, and is transformed and scored on one
    of the threads, one per core the process may run on. Memory is
    O(cores x block), not O(B n). The standard sampler is stream-sequential,
    so the p-value and the final state of ``rng`` are those of one (B, n)
    draw for any core count; the process's CPU affinity (``taskset``) sets
    the count, and there is no worker knob. Every replicate counts: an
    infinite statistic is an exceedance, and a degenerate fit is the
    family's error, as in a Monte Carlo cell, counted over the rows of the
    earliest block that met it. After an error no further block is drawn,
    and the state of ``rng`` is unspecified. Every thread has ended when
    the call returns or raises.
    """
    family = FAMILIES.get(tag)
    if family is None:
        raise ValueError(f"unknown composite family {tag!r}")
    check_test_id(kind)
    if not isinstance(B, Integral) or B < 99:
        raise ValueError(f"B must be an integer of at least 99 for a meaningful p-value, got {B}")

    v = _values(x)
    n = v.size
    check_sample_size(tag, n)
    observed = float(batch_statistic(kind, family.transform(v))[0])

    step = max(1, _BLOCK_VALUES // n)
    counts: list[int] = []

    def score(start: int, X: np.ndarray) -> None:
        counts.append(int(np.count_nonzero(batch_statistic(kind, family.transform_rows(X)) >= observed)))

    _on_every_core(range(0, B, step), lambda start: family.sample_standard((min(step, B - start), n), rng), score)
    return BootstrapResult(p_value=(1.0 + sum(counts)) / (B + 1.0), replications=B,
                           observed_statistic=observed, test_id=kind, family_tag=tag)
