"""Asymptotic null distribution of the tail-moment statistic.

Under uniformity the statistic converges to the squared norm of a centred
Gaussian process whose covariance kernel is :func:`null_kernel`. The first
four cumulants of that limit are known exactly; an independent route
recomputes them from traces of powers of the kernel's Nystrom matrix, and the
pair (exact, numeric) acts as a cross-check on both derivations.

The cumulants feed a Pearson-system fit whose quantiles supply asymptotic
critical values. Only Pearson type VI (beta prime) is fitted: the limit is
a positively weighted sum of chi-square variables, positively skewed, and
its exact cumulants give Pearson's criterion kappa = 177, well inside the
type VI region 1 < kappa < inf. A fit is evaluated with the incomplete beta
functions of ``scipy.special`` that ``scipy.stats.betaprime`` calls, without
importing ``scipy.stats``; ``scipy.special`` itself loads at the first
evaluation. Fits are memoised per cumulant set and immutable, so a process
fits the limit law once. An Imhof inversion of the Nystrom
spectrum (orders 128-1024), measured once outside the package and checked by
no test yet, puts Pearson's 99% point at 0.78517, below the exact 0.78581,
and its 90% point 4.7e-4 above the exact one. It used numpy's eigenvalue-route
rules, whose weights were up to 1e-10 off at those orders, far below the
digits quoted; the package's rules hold theirs to 1e-12 (:mod:`unigof.numerics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import gauss_legendre, nystrom_discretize, special

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
    c = np.maximum(s, t, out=np.empty(np.broadcast_shapes(s.shape, t.shape)))  # with out=, 0-d stays an array
    c *= 2.0
    c -= 1.0
    out = np.multiply(c, c, out=np.empty_like(c))
    out *= c
    np.subtract(1.0, out, out=out)
    out /= 6.0
    out -= np.multiply(s * (1.0 - s), t * (1.0 - t), out=c)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CumulantSet:
    """First four cumulants of a distribution."""

    k1: float
    k2: float
    k3: float
    k4: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"cumulant {name} must be finite, got {value!r}")
        if self.k2 <= 0.0:
            raise ValueError("the second cumulant (variance) must be positive")

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
    """The limit cumulants from traces of powers of the Nystrom matrix.

    The j-th cumulant of ``sum_k lambda_k chi2_1`` is ``2^(j-1) (j-1)!
    sum_k lambda_k^j``, and ``sum_k lambda_k^j = trace(A^j)`` for the matrix
    ``A`` of :func:`nystrom_spectrum`, so one product ``A2 = A A`` gives all
    four without an eigensolve: ``trace(A)`` and the sums of ``A * A``,
    ``A2 * A`` and ``A2 * A2``. This route shares nothing with
    :func:`cumulants_exact` beyond the kernel, so their agreement validates both.
    """
    if not order >= 128:
        raise ValueError("order must be at least 128")
    A = nystrom_discretize(null_kernel, gauss_legendre(order))
    A2 = A @ A
    # einsum, not BLAS vdot: its sums do not depend on the BLAS thread count
    traces = (np.trace(A), *(np.einsum("ij,ij->", X, Y) for X, Y in ((A, A), (A2, A), (A2, A2))))
    return CumulantSet(*(2.0 ** j * math.factorial(j) * float(tr) for j, tr in enumerate(traces)))


def _power_sum_cumulants(lam: np.ndarray) -> CumulantSet:
    return CumulantSet(*(2.0 ** (j - 1) * math.factorial(j - 1) * float(np.sum(lam**j)) for j in (1, 2, 3, 4)))


@dataclass(frozen=True)
class PearsonFit:
    """The Pearson type VI (beta prime) member matching four moments; immutable.

    ``source_moments`` is the (mean, variance, skewness, excess kurtosis)
    tuple the fit reproduces. The law is that of ``loc + scale X``, with X
    beta prime of shapes ``alpha`` and ``beta``.
    """

    source_moments: tuple[float, float, float, float]
    alpha: float
    beta: float
    loc: float
    scale: float

    def cdf(self, x: float) -> float:
        """Distribution function of the fitted family at a point."""
        z = (x - self.loc) / self.scale
        if z <= 0.0:
            return 0.0
        # z / (1 + z) rounds to one for large z, so that side uses the complement
        if z > 1.0:
            return float(special.betaincc(self.beta, self.alpha, 1.0 / (1.0 + z)))
        return float(special.betainc(self.alpha, self.beta, z / (1.0 + z)))


@lru_cache(maxsize=16)
def pearson_fit(c: CumulantSet) -> PearsonFit:
    """Moment-match the Pearson type VI (beta prime) family to four cumulants.

    Pearson's criterion ``kappa = beta1 (beta2 + 3)^2 / (4 (4 beta2 - 3 beta1)
    (2 beta2 - 3 beta1 - 6))`` on ``(beta1, beta2) = (skewness^2, kurtosis)``
    places positively skewed moments with ``1 < kappa < inf`` in type VI,
    whose Pearson quadratic has two real roots of the same sign. Any other
    region raises ``ValueError`` naming the skewness and kappa. The fitted
    family reproduces the input mean, variance, skewness and kurtosis. Fits
    are memoised per cumulant set, so equal sets share one immutable fit; a
    set that cannot be fitted raises on every call.
    """
    mean, var = c.k1, c.k2
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
    fit = PearsonFit((mean, var, g1, g2), alpha, beta, loc=mean + r2, scale=r2 - r1)
    _verify_fit_moments(fit)
    return fit


def _fit_moments(fit: PearsonFit) -> tuple[float, float, float, float]:
    """Mean, variance, skewness and excess kurtosis of the fit; inf or NaN where one does not exist."""
    a, b = fit.alpha, fit.beta
    # raw moments of beta prime: E X^k = prod_{i<=k} (a+i-1)/(b-i), infinite unless b > k
    m1, m2, m3, m4 = (
        np.float64(math.prod((a + i - 1.0) / (b - i) for i in range(1, k + 1)) if b > k else math.inf)
        for k in (1, 2, 3, 4)
    )
    with np.errstate(all="ignore"):
        mu2 = m2 - m1 * m1
        mu3 = (-m1 * m1 - 3.0 * mu2) * m1 + m3
        mu4 = ((-m1 * m1 - 6.0 * mu2) * m1 - 4.0 * mu3) * m1 + m4
        moments = (m1 * fit.scale + fit.loc, mu2 * fit.scale * fit.scale, mu3 / mu2**1.5, mu4 / mu2**2 - 3.0)
    return tuple(float(m) for m in moments)


def _verify_fit_moments(fit: PearsonFit) -> None:
    got = _fit_moments(fit)
    # relative check with an absolute floor for near-zero targets
    for name, want, have in zip(("mean", "variance", "skewness", "kurtosis"), fit.source_moments, got):
        tol = 1e-8 * max(1.0, abs(want))
        if not math.isfinite(have) or abs(have - want) > tol:
            raise ValueError(
                f"fitted beta-prime family failed to reproduce {name}: "
                f"wanted {want!r}, got {have!r}"
            )


def pearson_quantile(fit: PearsonFit, p: float) -> float:
    """Quantile of the fitted family, ``loc + scale r / (1 - r)`` for the beta quantile r of p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    r = float(special.betaincinv(fit.alpha, fit.beta, p))
    # r / (1 - r) loses its digits as r nears one, so there the complement is inverted
    x = 1.0 / float(special.betainccinv(fit.beta, fit.alpha, p)) - 1.0 if r > 0.9999 else r / (1.0 - r)
    return x * fit.scale + fit.loc


@dataclass(frozen=True)
class NystromSpectrum:
    """Leading eigenvalues of the discretised kernel operator."""

    eigenvalues: np.ndarray


def nystrom_spectrum(order: int = 512) -> NystromSpectrum:
    """Eigenvalues of the weighted Nystrom matrix of the null kernel.

    Sorted descending. They approximate the weights of the limit law
    ``sum_k lambda_k chi2_1``; their power sums equal the matrix-power
    traces from which :func:`cumulants_numeric` reads the limit's cumulants.
    """
    if not order >= 64:
        raise ValueError("order must be at least 64")
    A = nystrom_discretize(null_kernel, gauss_legendre(order))
    eig = np.linalg.eigvalsh(A)[::-1]
    return NystromSpectrum(eigenvalues=eig)
