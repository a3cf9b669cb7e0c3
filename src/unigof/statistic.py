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

The batch kernels keep their block-size temporaries in a per-thread scratch
(:func:`_temp`) of a few slots, each at most one block plus one column per
row; what a kernel returns is always a fresh array, never scratch.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
_scratch = threading.local()  # each thread's kernel temporaries, one block each at most: see _temp


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
    array as one row. Sorting puts -inf first and NaN and +inf last, so the
    two end columns decide the range check; only when they fail is every
    value checked through :class:`UnitSample`, which names the first bad
    value in input order. :meth:`reduced` keeps each row kernel's result,
    so ``values`` must not change after construction.
    """

    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u = self.values
        mat = np.atleast_2d(np.asarray(u.values if isinstance(u, UnitSample) else u, dtype=float))
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("expected one sample per row with at least one observation")
        self.values = np.sort(mat, axis=1)
        if not (np.all(self.values[:, 0] >= 0.0) and np.all(self.values[:, -1] <= 1.0)):
            UnitSample(mat.ravel())

    def reduced(self, kernel) -> np.ndarray:
        """``by_blocks(kernel, values)``, computed on the first call for each kernel and kept."""
        if kernel not in self._memo:
            self._memo[kernel] = by_blocks(kernel, self.values)
        return self._memo[kernel]


@dataclass(slots=True)
class TestOutcome:
    """The statistic of one test on one sample; slotted, so an outcome carries no ``__dict__``."""

    test_id: str
    statistic: float


def by_blocks(kernel, V: np.ndarray) -> np.ndarray:
    """Apply ``kernel``, which must treat each row on its own, to cache-sized blocks of the rows of ``V``."""
    step = max(1, _BLOCK_VALUES // V.shape[1])
    if V.shape[0] <= step:
        return kernel(V)
    return np.concatenate([kernel(V[i:i + step]) for i in range(0, V.shape[0], step)])


def _temp(slot: int, V: np.ndarray, cols: int | None = None) -> np.ndarray:
    """An uninitialised array of V's rows and ``cols`` columns (V's by default), for a kernel's temporary.

    For a block V of at most ``_BLOCK_VALUES`` values it is a view of this thread's scratch slot ``slot``,
    grown to the largest such block asked of it; a larger V gets a fresh array, which the scratch never keeps.
    """
    shape = (V.shape[0], V.shape[1] if cols is None else cols)
    if V.size > _BLOCK_VALUES:
        return np.empty(shape)
    size, slots = shape[0] * shape[1], _scratch.__dict__.setdefault("slots", {})
    if slot not in slots or slots[slot].size < size:
        slots[slot] = np.empty(size)
    return slots[slot][:size].reshape(shape)


def _cores() -> int:
    """The number of cores this process may run on: its CPU affinity where the OS reports one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _on_every_core(items, take, work) -> None:
    """Call ``work(item, take(item))`` for each item, on one thread per core.

    Items go out in order under one lock, and ``take`` runs inside it, so the k-th ``take`` is the k-th item's;
    ``work`` runs outside it, on the caller and ``min(_cores(), len(items)) - 1`` helper threads. After a failure
    no item goes out; all threads are joined, and then the error of the earliest failing item is raised.
    """
    queue, lock, errors = iter(enumerate(items)), threading.Lock(), {}

    def run() -> None:
        try:
            while True:
                with lock:
                    k, item = (None, None) if errors else next(queue, (None, None))
                    if k is None:
                        return
                    taken = take(item)
                work(item, taken)
        except BaseException as err:  # an interrupt too stops the hand-out, and is raised below
            with lock:
                errors[k] = err

    helpers = min(_cores(), len(items)) - 1
    with ThreadPoolExecutor(max(helpers, 1)) as pool:  # joins its threads on the way out
        futures = [pool.submit(run) for _ in range(helpers)]
        run()
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]


def _tm_rows(V: np.ndarray) -> np.ndarray:
    n = V.shape[1]
    A = np.multiply(2.0, V, out=_temp(0, V))
    A -= 1.0
    Q = np.cumsum(A, axis=1, out=_temp(1, V))
    np.subtract(Q[:, -1:], Q, out=Q)  # Q_k = sum_{j>k} A_j
    Q *= 2.0
    Q += A
    Q *= 3.0 / n
    T = np.subtract(2.0, A, out=_temp(2, V))  # 3 - 2V
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
    """The statistic by piecewise quadrature of its defining integral, the
    square of :func:`empirical_process` over (0, 1).

    Between consecutive order statistics the integrand is a fixed quartic
    polynomial in t, so a per-segment Gauss-Legendre rule integrates each
    piece exactly. The rule has 64 nodes per segment: 3 would already be
    exact, and the rest is slack against edits that break the polynomial
    form.
    """
    sample = u if isinstance(u, UnitSample) else UnitSample(u)
    breaks = np.unique(np.concatenate([[0.0], sample.values, [1.0]]))
    lengths = np.diff(breaks)
    rule = gauss_legendre(64)
    t = breaks[:-1, None] + lengths[:, None] * rule.nodes[None, :]
    # nodes of a segment one ulp wide can round onto 0 or 1, where the process is not defined
    sq = empirical_process(sample, np.clip(t, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))) ** 2
    return float(np.sum(lengths * (sq @ rule.weights)))


def empirical_process(u: UnitSample, t):
    """The scaled tail-moment discrepancy process at one or many points.

    Evaluates ``sqrt(n) * [(1/n) sum_j (2 U_j - 1) 1{U_j >= t} - t (1 - t)]``
    for t in (0, 1). The squared integral of this process over (0, 1)
    equals :func:`tm_statistic` by definition.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0.0) & (t_arr < 1.0)):
        raise ValueError("evaluation points must lie strictly inside (0, 1)")
    v = np.sort((u if isinstance(u, UnitSample) else UnitSample(u)).values)
    n = v.size
    a = 2.0 * v - 1.0
    csum = np.concatenate([[0.0], np.cumsum(a)])
    first = np.searchsorted(v, t_arr, side="left")
    mean_tail = (csum[-1] - csum[first]) / n
    out = np.sqrt(n) * (mean_tail - t_arr * (1.0 - t_arr))
    return float(out) if out.ndim == 0 else out
