"""Fixed-alternative asymptotics for the tail-moment test.

For a sample from a fixed non-uniform distribution on the unit interval the
statistic grows linearly, with a Gaussian fluctuation around the drift. The
ingredients are the tail moment function ``psi(t) = E[(2U - 1) 1{U >= t}]``,
its second-moment companion, the discrepancy ``delta`` (squared distance of
psi from its uniform counterpart) and an asymptotic variance ``sigma2``.
Together they yield a one-line normal approximation to the power of the
test at any sample size.

Closed forms are registered for four Beta alternatives; any other law on
the unit interval is built by :func:`spec_from_density` from its CDF, to
1e-13 for smooth laws and under 1e-6 for a density infinite at an end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# gauss_legendre has no caller here: benchmarks/tracing.py hooks the name in this module
from .numerics import QuadratureRule, _integer, gauss_legendre, normal_cdf

__all__ = [
    "AlternativeTheorySpec",
    "PowerCurve",
    "discrepancy",
    "alt_kernel",
    "asymptotic_variance",
    "approximate_power",
    "builtin_beta_specs",
    "uniform_theory_spec",
    "spec_from_density",
    "power_curve",
]


@dataclass(frozen=True)
class AlternativeTheorySpec:
    """Tail-moment functions of one alternative distribution.

    ``psi`` and ``second_moment_tail`` must accept numpy arrays of any
    shape. ``delta`` and ``sigma2`` are the law's discrepancy and asymptotic
    variance, exact or from :func:`spec_from_density`.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    second_moment_tail: Callable[[np.ndarray], np.ndarray]
    delta: float
    sigma2: float


def _centered(spec: AlternativeTheorySpec, t: np.ndarray) -> np.ndarray:
    # psi minus its value under uniformity; the quantity whose norm is delta
    return spec.psi(t) - t * (1.0 - t)


def discrepancy(spec: AlternativeTheorySpec, rule: QuadratureRule) -> float:
    """Squared distance of the tail moment function from uniformity.

    Zero exactly when the underlying distribution is uniform, which is the
    characterisation the whole test rests on.
    """
    z = _centered(spec, rule.nodes)
    return float(np.dot(rule.weights, z * z))


def alt_kernel(spec: AlternativeTheorySpec, s, t):
    """Covariance kernel of the limiting process under the alternative."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    m = np.maximum(s, t)
    out = spec.second_moment_tail(m) - spec.psi(s) * spec.psi(t)
    return float(out) if out.ndim == 0 else out


def asymptotic_variance(spec: AlternativeTheorySpec, rule: QuadratureRule) -> float:
    """Variance of the Gaussian fluctuation around the drift.

    Evaluates ``4`` times the double integral of the alternative kernel
    against the centred tail moment in both arguments. The kernel has a
    ridge along the diagonal, so the square is split there: the symmetric
    part reduces to twice an iterated integral over the lower triangle,
    evaluated by mapping the inner integral onto (0, t). This keeps the
    quadrature spectral instead of stalling on the kink.
    """
    x, w = rule.nodes, rule.weights
    z = _centered(spec, x)
    separable = float(np.dot(w, spec.psi(x) * z)) ** 2
    grid = x[:, None] * x[None, :]
    inner = (_centered(spec, grid) @ w) * x
    triangle = 2.0 * float(np.dot(w, spec.second_moment_tail(x) * z * inner))
    return 4.0 * (triangle - separable)


def approximate_power(delta: float, sigma2: float, n: int, c_n: float) -> float:
    """Normal approximation to the rejection probability at sample size n.

    ``c_n`` is the critical value on the scale of the statistic itself, so
    the drift comparison happens at ``c_n / n``.
    """
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive; degenerate alternatives have no normal limit")
    if not delta >= 0.0:
        raise ValueError("delta is a squared distance and cannot be negative")
    if not _integer("n", n) >= 1:
        raise ValueError("n must be a positive integer")
    arg = math.sqrt(n / sigma2) * (delta - c_n / n)
    return float(normal_cdf(arg))


def uniform_theory_spec() -> AlternativeTheorySpec:
    """The degenerate spec of the uniform law itself (zero discrepancy)."""
    return AlternativeTheorySpec(
        name="uniform",
        psi=lambda t: t * (1.0 - t),
        second_moment_tail=lambda t: (1.0 - (2.0 * t - 1.0) ** 3) / 6.0,
        delta=0.0,
        sigma2=0.0,
    )


def builtin_beta_specs() -> list[AlternativeTheorySpec]:
    """Closed-form specs for the four worked Beta alternatives.

    Shapes (2,2), (2,3), (1,1/2) and (1/2,1/2). The first three carry
    exact rational constants; the arcsine case stores a closed form for
    the discrepancy and, for the variance, :func:`asymptotic_variance` of its
    tail moments on Gauss-Legendre 256 mapped by ``t = sin^2(pi x / 2)``.
    """

    def psi_22(t):
        return 3.0 * t * t * (1.0 - t) ** 2

    def m2_22(t):
        return 4.8 * t ** 5 - 12.0 * t ** 4 + 10.0 * t ** 3 - 3.0 * t * t + 0.2

    def psi_23(t):
        return -4.8 * t ** 5 + 15.0 * t ** 4 - 16.0 * t ** 3 + 6.0 * t * t - 0.2

    def m2_23(t):
        return (
            -8.0 * t ** 6
            + 28.8 * t ** 5
            - 39.0 * t ** 4
            + 24.0 * t ** 3
            - 6.0 * t * t
            + 0.2
        )

    def psi_1h(t):
        return (2.0 * t + 1.0) * np.sqrt(1.0 - t) / 3.0

    def m2_1h(t):
        return (12.0 * t * t - 4.0 * t + 7.0) * np.sqrt(1.0 - t) / 15.0

    def psi_hh(t):
        return (2.0 / math.pi) * np.sqrt(t * (1.0 - t))

    def m2_hh(t):
        root = np.sqrt(t * (1.0 - t))
        return (
            (2.0 / math.pi) * t ** 1.5 * np.sqrt(1.0 - t)
            - root / math.pi
            - np.arcsin(2.0 * t - 1.0) / (2.0 * math.pi)
            + 0.25
        )

    return [
        AlternativeTheorySpec(
            "beta(2,2)", psi_22, m2_22, delta=1.0 / 210.0, sigma2=107297.0 / 94594500.0
        ),
        AlternativeTheorySpec(
            "beta(2,3)", psi_23, m2_23, delta=71.0 / 2310.0, sigma2=13088573.0 / 2948195250.0
        ),
        AlternativeTheorySpec(
            "beta(1,0.5)", psi_1h, m2_1h, delta=53.0 / 945.0, sigma2=426456598.0 / 10854718875.0
        ),
        AlternativeTheorySpec(
            "beta(0.5,0.5)",
            psi_hh,
            m2_hh,
            delta=2.0 / (3.0 * math.pi ** 2) + 1.0 / 30.0 - 3.0 / 32.0,
            sigma2=0.00438692512609517,
        ),
    ]


def spec_from_density(
    name: str, cdf: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule
) -> AlternativeTheorySpec:
    """Wrap a law on the unit interval, given by its vectorised CDF, as a theory spec.

    The tail moments are integrated by parts against S = 1 - F, so no
    density is evaluated where it may be infinite:
    ``psi(t) = (2t - 1) S(t) + 2 int_t^1 S(u) du`` and
    ``m2(t) = (2t - 1)^2 S(t) + 4 int_t^1 (2u - 1) S(u) du``, both integrals
    from one S grid on the rule mapped onto (t, 1). sigma2 needs ``C(t) = int_0^t (psi(s) - s(1 - s)) ds``
    at the nodes, by parts ``(2t^2 - t) F(t) - int_0^t (4u - 1) F(u) du + t psi(t) - t^2/2 + t^3/3``
    with the rule mapped onto (0, t): two CDF grids, ``2 order^2 + order`` points in all.
    At Gauss-Legendre 128 delta and sigma2 are within 1e-13 relative for a smooth law and
    8.2e-7 for beta(1,0.5) and beta(0.5,0.5), whose densities are infinite at an end; a kink
    in S inside the interval (stephens3(0.5)) leaves delta 3.1e-5 and sigma2 1.5e-6 off.
    """
    xi, w = rule.nodes, rule.weights

    def tails(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        u = flat[:, None] + (1.0 - flat[:, None]) * xi[None, :]
        surv = 1.0 - cdf(u)
        f = cdf(flat)
        psi = (2.0 * flat - 1.0) * (1.0 - f) + 2.0 * (1.0 - flat) * (surv @ w)
        surv *= 2.0 * u - 1.0
        m2 = (2.0 * flat - 1.0) ** 2 * (1.0 - f) + 4.0 * (1.0 - flat) * (surv @ w)
        return psi.reshape(t.shape), m2.reshape(t.shape), f.reshape(t.shape)

    psi_x, m2_x, f_x = tails(xi)
    z = psi_x - xi * (1.0 - xi)
    u = xi[:, None] * xi[None, :]
    lower = ((4.0 * u - 1.0) * cdf(u)) @ w
    c = (2.0 * xi * xi - xi) * f_x - xi * lower + xi * psi_x - xi * xi / 2.0 + xi**3 / 3.0
    sigma2 = 4.0 * (2.0 * float(np.dot(w, m2_x * z * c)) - float(np.dot(w, psi_x * z)) ** 2)
    delta = float(np.dot(w, z * z))
    return AlternativeTheorySpec(name, lambda t: tails(t)[0], lambda t: tails(t)[1], delta, sigma2)


@dataclass
class PowerCurve:
    """Approximate (and optionally simulated) power across sample sizes."""

    name: str
    alpha: float
    sample_sizes: list[int]
    approx_power: list[float]
    empirical_power: list[float] | None = None
    mc_se: list[float] | None = None

    def __post_init__(self) -> None:
        if len(self.approx_power) != len(self.sample_sizes):
            raise ValueError("approx_power must align with sample_sizes")
        for attr in ("empirical_power", "mc_se"):
            seq = getattr(self, attr)
            if seq is not None and len(seq) != len(self.sample_sizes):
                raise ValueError(f"{attr} must align with sample_sizes")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("n,approx_power,empirical_power,mc_se\n")
            for i, n in enumerate(self.sample_sizes):
                emp = "" if self.empirical_power is None else repr(self.empirical_power[i])
                se = "" if self.mc_se is None else repr(self.mc_se[i])
                fh.write(f"{n},{self.approx_power[i]!r},{emp},{se}\n")


def power_curve(
    spec: AlternativeTheorySpec, alpha: float, sizes: list[int], critical_value: float
) -> PowerCurve:
    """Approximate power of the test over a grid of sample sizes.

    ``critical_value`` is the asymptotic critical value at level
    ``alpha``, used at every size, with the spec's ``delta`` and
    ``sigma2``. A degenerate spec (``sigma2 == 0``, the uniform law itself)
    has no normal approximation, so its powers are NaN.
    """
    sizes = [_integer("sizes", n) for n in sizes]
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if not all(n >= 1 for n in sizes):
        raise ValueError(f"sizes must be positive integers, got {sizes}")
    if not 0.0 < float(alpha) < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    if not float(critical_value) >= 0.0:
        raise ValueError("critical_value must be a nonnegative number")
    if spec.sigma2 > 0.0:
        powers = [approximate_power(spec.delta, spec.sigma2, n, float(critical_value)) for n in sizes]
    else:
        powers = [float("nan")] * len(sizes)
    return PowerCurve(
        name=spec.name,
        alpha=float(alpha),
        sample_sizes=sizes,
        approx_power=powers,
    )
