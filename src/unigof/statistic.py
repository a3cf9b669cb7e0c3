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

import numpy as np

from .numerics import gauss_legendre

__all__ = [
    "Sample",
    "UnitSample",
    "UnitRows",
    "TestOutcome",
    "tm_statistic",
    "tm_statistic_batch",
    "tm_statistic_integral",
    "empirical_process",
]

_BLOCK_VALUES = 1 << 15  # values per row block of a batch kernel: 256 KB per float64 temporary


@dataclass
class Sample:
    """An i.i.d. batch of raw real observations."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("sample must be one-dimensional with at least one observation")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample values must be finite")


class UnitSample(Sample):
    """A :class:`Sample` whose values also lie in [0, 1], usually after a probability transform.

    Raises ``ValueError`` naming the first value outside the interval.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        outside = self.values[(self.values < 0.0) | (self.values > 1.0)]
        if outside.size:
            raise ValueError(f"unit sample values must lie in [0, 1]; found {float(outside[0])!r} "
                             "(apply the probability transform first)")


@dataclass
class UnitRows:
    """Unit samples of one size, one per row, checked once and kept sorted in ``values``.

    Built from an ``(R, n)`` matrix, or from a :class:`UnitSample` or a 1-D
    array as one row; every value is checked through :class:`UnitSample`.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        u = self.values
        mat = np.atleast_2d(np.asarray(u.values if isinstance(u, UnitSample) else u, dtype=float))
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("expected one sample per row with at least one observation")
        UnitSample(mat.ravel())
        self.values = np.sort(mat, axis=1)


@dataclass
class TestOutcome:
    """The statistic of one test on one sample."""

    test_id: str
    statistic: float


def by_blocks(kernel, V: np.ndarray) -> np.ndarray:
    """Apply ``kernel``, which must treat each row on its own, to cache-sized blocks of the rows of ``V``."""
    step = max(1, _BLOCK_VALUES // V.shape[1])
    if V.shape[0] <= step:
        return kernel(V)
    return np.concatenate([kernel(V[i:i + step]) for i in range(0, V.shape[0], step)])


def _tm_rows(V: np.ndarray) -> np.ndarray:
    n = V.shape[1]
    A = 2.0 * V - 1.0
    Q = np.cumsum(A, axis=1)
    np.subtract(Q[:, -1:], Q, out=Q)  # Q_k = sum_{j>k} A_j
    Q *= 2.0
    Q += A
    Q *= 3.0 / n
    T = 2.0 - A  # 3 - 2V
    T *= V
    Q -= T
    Q *= A
    Q *= V
    # a sum over each row, not einsum: einsum splits rows longer than its
    # 8192-value buffer, and then a row's bits depend on the rows beside it
    return np.maximum(Q.sum(axis=1) / 3.0 + n / 30.0, 0.0)


def tm_statistic_batch(U) -> np.ndarray:
    """Closed-form statistic for each row of a batch of unit samples.

    Parameters
    ----------
    U : UnitRows, or anything :class:`UnitRows` accepts
        R unit samples of common size n. A :class:`UnitRows` is used as it
        is; any other input is checked and sorted into one first.

    Returns
    -------
    np.ndarray, shape (R,)
        The statistic per row, with tiny negative rounding residue
        clamped to zero (the statistic is a squared norm).

    Notes
    -----
    The closed form is a double sum of ``(4 U_j U_k - 2 (U_j + U_k) + 1)
    min(U_j, U_k)`` minus single-sum corrections, plus ``n / 30``. The
    quartic factor is ``A_j A_k`` with ``A = 2 U - 1``, so on a sorted row
    the double sum is ``sum_k A_k U_k (A_k + 2 Q_k) / n`` with the suffix
    sums ``Q_k = sum_{j>k} A_j``: one prefix sum, O(n) per sorted row. The
    single sums ``A_k U_k^2 (3 - 2 U_k) / 3`` share the factor ``A_k U_k``
    and fold into the same row sum. Rows are taken in blocks of
    about 256 KB per temporary (:func:`by_blocks`).
    """
    return by_blocks(_tm_rows, (U if isinstance(U, UnitRows) else UnitRows(U)).values)


def tm_statistic(u) -> float:
    """Closed-form statistic of a single unit sample (or plain array)."""
    return float(tm_statistic_batch(u if isinstance(u, UnitSample) else UnitSample(u))[0])


def tm_statistic_integral(u) -> float:
    """The statistic by piecewise quadrature of its defining integral.

    Between consecutive order statistics the integrand is a fixed quartic
    polynomial in t, so a per-segment Gauss-Legendre rule integrates each
    piece exactly. The rule has 64 nodes per segment: 3 would already be
    exact, and the rest is slack against edits that break the polynomial
    form.
    """
    v = np.sort((u if isinstance(u, UnitSample) else UnitSample(u)).values)
    n = v.size
    a = 2.0 * v - 1.0
    csum = np.concatenate([[0.0], np.cumsum(a)])
    breaks = np.unique(np.concatenate([[0.0], v, [1.0]]))
    lengths = np.diff(breaks)
    # On (breaks[i], breaks[i+1]) the indicator sum counts u_j >= breaks[i+1].
    first = np.searchsorted(v, breaks[1:], side="left")
    tail = (csum[-1] - csum[first]) / n
    rule = gauss_legendre(64)
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
