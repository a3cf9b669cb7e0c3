"""The tail-moment uniformity statistic and its sample containers.

For a sample U_1, ..., U_n on the unit interval, the statistic is

    n * integral_0^1 | (1/n) sum_j (2 U_j - 1) 1{U_j >= t}  -  t (1 - t) |^2 dt.

The benchmark t(1 - t) is the population tail moment E[(2U - 1) 1{U >= t}]
of a standard uniform variable, and no other law on (0, 1) reproduces it,
so the statistic separates uniformity from every fixed alternative. Large
values are evidence against uniformity.

Two evaluation routes are provided: an exact closed form obtained by
integrating the square analytically (:func:`tm_statistic`), and direct
piecewise quadrature of the defining integral
(:func:`tm_statistic_integral`). They agree to near machine precision and
serve as mutual oracles in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import gauss_legendre

__all__ = [
    "Sample",
    "UnitSample",
    "TestOutcome",
    "transform",
    "tm_statistic",
    "tm_statistic_batch",
    "tm_statistic_integral",
    "empirical_process",
]


@dataclass
class Sample:
    """An i.i.d. batch of raw real observations."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("a sample needs at least one observation")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample values must be finite")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass
class UnitSample:
    """Observations mapped to [0, 1], usually via a probability transform."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("a unit sample needs at least one observation")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("unit sample values must be finite")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValueError("unit sample values must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass
class TestOutcome:
    """Result of applying one test to one sample.

    ``reject`` is only meaningful relative to a critical value or p-value,
    so it may be present only when at least one of those is.
    """

    test_id: str
    statistic: float
    critical_value: float | None = None
    p_value: float | None = None
    reject: bool | None = None

    def __post_init__(self) -> None:
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")
        if self.reject is not None and self.critical_value is None and self.p_value is None:
            raise ValueError("reject requires a critical value or p-value")


def transform(sample: Sample, cdf: Callable[[np.ndarray], np.ndarray]) -> UnitSample:
    """Apply a distribution function elementwise, preserving order.

    Raises if the supplied ``cdf`` emits anything outside [0, 1], which
    signals a broken distribution adapter rather than bad data.
    """
    u = np.asarray(cdf(sample.values), dtype=float)
    if u.shape != sample.values.shape:
        raise ValueError("cdf must map the sample elementwise")
    if not np.all(np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise ValueError("cdf output escaped [0, 1]; the distribution adapter is broken")
    return UnitSample(u)


def tm_statistic_batch(U: np.ndarray) -> np.ndarray:
    """Closed-form statistic for each row of a batch of unit samples.

    Parameters
    ----------
    U : np.ndarray, shape (R, n)
        R unit samples of common size n.

    Returns
    -------
    np.ndarray, shape (R,)
        The statistic per row, with tiny negative rounding residue
        clamped to zero (the statistic is a squared norm).

    Notes
    -----
    The closed form is a double sum of ``(4 U_j U_k - 2 (U_j + U_k) + 1)
    min(U_j, U_k)`` plus single-sum corrections. Since the quartic factor
    is ``(2 U_j - 1)(2 U_k - 1)``, sorting each row turns the double sum
    into prefix sums, so a row costs O(n log n) instead of O(n^2).
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValueError("expected a 2-d batch of samples")
    V = np.sort(U, axis=1)
    n = V.shape[1]
    A = 2.0 * V - 1.0
    P = np.cumsum(A * V, axis=1)
    Q = np.sum(A, axis=1, keepdims=True) - np.cumsum(A, axis=1)
    pair = np.sum(A * (P + V * Q), axis=1) / n
    single = np.sum(A * V * V * (3.0 - 2.0 * V), axis=1) / 3.0
    return np.maximum(pair - single + n / 30.0, 0.0)


def tm_statistic(u) -> float:
    """Closed-form statistic of a single unit sample (or plain array)."""
    v = (u if isinstance(u, UnitSample) else UnitSample(u)).values
    return float(tm_statistic_batch(v[None, :])[0])


def tm_statistic_integral(u, nodes: int = 64) -> float:
    """The statistic by piecewise quadrature of its defining integral.

    Between consecutive order statistics the integrand is a fixed quartic
    polynomial in t, so a per-segment Gauss-Legendre rule integrates each
    piece exactly. ``nodes`` is the per-segment order; anything from 3 up
    would already be exact, the floor of 64 simply buys slack against
    misuse on non-polynomial edits.
    """
    if nodes < 64:
        raise ValueError("nodes must be at least 64")
    v = np.sort((u if isinstance(u, UnitSample) else UnitSample(u)).values)
    n = v.size
    a = 2.0 * v - 1.0
    csum = np.concatenate([[0.0], np.cumsum(a)])
    breaks = np.unique(np.concatenate([[0.0], v, [1.0]]))
    lengths = np.diff(breaks)
    # On (breaks[i], breaks[i+1]) the indicator sum counts u_j >= breaks[i+1].
    first = np.searchsorted(v, breaks[1:], side="left")
    tail = (csum[-1] - csum[first]) / n
    rule = gauss_legendre(nodes)
    t = breaks[:-1, None] + lengths[:, None] * rule.nodes[None, :]
    sq = (tail[:, None] - t * (1.0 - t)) ** 2
    return float(n * np.sum(lengths * (sq @ rule.weights)))


def empirical_process(u: UnitSample, t):
    """The scaled tail-moment discrepancy process at one or many points.

    Evaluates ``sqrt(n) * [(1/n) sum_j (2 U_j - 1) 1{U_j >= t} - t (1 - t)]``
    for t in (0, 1). The squared integral of this process over (0, 1)
    equals :func:`tm_statistic` by definition.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(t_arr >= 1.0):
        raise ValueError("evaluation points must lie strictly inside (0, 1)")
    v = np.sort((u if isinstance(u, UnitSample) else UnitSample(u)).values)
    n = v.size
    a = 2.0 * v - 1.0
    csum = np.concatenate([[0.0], np.cumsum(a)])
    first = np.searchsorted(v, t_arr, side="left")
    mean_tail = (csum[-1] - csum[first]) / n
    out = np.sqrt(n) * (mean_tail - t_arr * (1.0 - t_arr))
    return float(out) if out.ndim == 0 else out
