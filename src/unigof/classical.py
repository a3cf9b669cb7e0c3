"""Classical uniformity statistics used as competitors in power studies.

Nine statistics spanning the main families: empirical distribution
function distances (Kolmogorov-Smirnov, Cramer-von Mises, Anderson-Darling,
Watson, Kuiper), spacings (Sherman, Quesenberry-Miller), absolute
order-statistic deviation (Frosini-Revesz-Sarkadi) and a likelihood-ratio
form (Zhang's ZC). All reject for large values, so Monte Carlo critical
values from one engine cover the lot.

Everything is batch-first: the workhorses take a
:class:`~unigof.statistic.UnitRows`, the checked and sorted rows of a
batch of samples, and return one statistic per row; a single sample is a
batch of one.

Statistics built from the same row work share one pass. A kernel table
maps each test id to a group kernel and a column: ``_extremes`` gives ks and
kuiper from one D+ and one D- per row, ``_centred`` cvm, watson and frs from
one matrix of deviations from the plotting positions, ``_gaps`` sherman and
qm from one matrix of spacings; ad and zc are groups of one. Each group's
pass is kept on the ``UnitRows`` (:meth:`~unigof.statistic.UnitRows.reduced`).
"""

from __future__ import annotations

import numpy as np

from .statistic import TestOutcome, UnitRows, _temp, tm_statistic_batch

__all__ = [
    "CLASSICAL_KINDS",
    "TEST_IDS",
    "classical_battery",
    "batch_statistic",
    "check_test_id",
]

CLASSICAL_KINDS = ("ks", "cvm", "ad", "watson", "sherman", "kuiper", "qm", "frs", "zc")
TEST_IDS = ("tm",) + CLASSICAL_KINDS

_ZC_CLAMP = 1e-12


def check_test_id(kind: str) -> None:
    """Raise unless ``kind`` is one of :data:`TEST_IDS`; the error lists all ten."""
    if kind not in TEST_IDS:
        raise ValueError(f"unknown test id {kind!r}; expected one of {', '.join(TEST_IDS)}")


def _extremes(V: np.ndarray) -> np.ndarray:
    # ks and kuiper from one D+ = max(j/n - V) and one D- = max(V - (j-1)/n) per row
    n = V.shape[1]
    j = np.arange(1, n + 1, dtype=float)
    tmp = np.subtract(j / n, V, out=_temp(0, V))
    d_plus = tmp.max(axis=1)
    np.subtract(V, (j - 1.0) / n, out=tmp)
    d_minus = tmp.max(axis=1)
    return np.column_stack([np.maximum(d_plus, d_minus), d_plus + d_minus])


def _centred(V: np.ndarray) -> np.ndarray:
    # cvm, watson and frs from one matrix V - (2j-1)/(2n); (j-0.5)/n rounds to the same centres
    n = V.shape[1]
    j = np.arange(1, n + 1, dtype=float)
    C = np.subtract(V, (2.0 * j - 1.0) / (2.0 * n), out=_temp(0, V))
    frs = np.sum(np.abs(C, out=C), axis=1) / np.sqrt(n)
    w2 = 1.0 / (12.0 * n) + np.sum(np.multiply(C, C, out=C), axis=1)
    return np.column_stack([w2, w2 - n * (np.mean(V, axis=1) - 0.5) ** 2, frs])


def _gaps(V: np.ndarray) -> np.ndarray:
    # sherman and qm from the n + 1 gaps per row after augmenting with the interval endpoints
    n = V.shape[1]
    G = _temp(0, V, n + 1)
    G[:, 0] = V[:, 0]
    np.subtract(V[:, 1:], V[:, :-1], out=G[:, 1:n])
    np.subtract(1.0, V[:, -1], out=G[:, n])
    # squared-gap sum runs over all n + 1 gaps, the cross term over the
    # first n adjacent pairs only
    qm = (np.sum(np.multiply(G, G, out=_temp(1, V, n + 1)), axis=1)
          + np.sum(np.multiply(G[:, :-1], G[:, 1:], out=_temp(1, V)), axis=1))
    np.subtract(G, 1.0 / (n + 1.0), out=G)
    sherman = 0.5 * np.sum(np.abs(G, out=G), axis=1)
    return np.column_stack([sherman, qm])


def _ad(V: np.ndarray) -> np.ndarray:
    n = V.shape[1]
    j = np.arange(1, n + 1, dtype=float)
    L = np.negative(V[:, ::-1], out=_temp(0, V))
    with np.errstate(divide="ignore"):
        np.log1p(L, out=L)
        L += np.log(V, out=_temp(1, V))
    L *= 2.0 * j - 1.0
    return (-n - np.sum(L, axis=1) / n)[:, None]


def _zc(V: np.ndarray) -> np.ndarray:
    n = V.shape[1]
    j = np.arange(1, n + 1, dtype=float)
    W = np.clip(V, _ZC_CLAMP, 1.0 - _ZC_CLAMP, out=_temp(0, V))
    np.divide(1.0, W, out=W)
    W -= 1.0
    W /= (n - 0.5) / (j - 0.75) - 1.0
    np.log(W, out=W)
    return np.sum(np.multiply(W, W, out=W), axis=1)[:, None]


# test id -> (group kernel, column): a group kernel maps a block of sorted rows
# to one column per member, and UnitRows keeps each group's columns once computed
_KERNELS = {"ks": (_extremes, 0), "kuiper": (_extremes, 1), "cvm": (_centred, 0), "watson": (_centred, 1),
            "frs": (_centred, 2), "sherman": (_gaps, 0), "qm": (_gaps, 1), "ad": (_ad, 0), "zc": (_zc, 0)}


def batch_statistic(kind: str, U) -> np.ndarray:
    """Evaluate one statistic, tail-moment or classical, on each row of a batch.

    A :class:`~unigof.statistic.UnitRows` is used as it is; any other input
    (a matrix, a ``UnitSample`` or a 1-D array) is checked and sorted into
    one first. A caller that evaluates several statistics on one batch
    builds the ``UnitRows`` once and passes it to every call, so the tests
    of one group share a pass; each call returns an array of its own.
    """
    check_test_id(kind)
    rows = U if isinstance(U, UnitRows) else UnitRows(U)
    if kind == "tm":
        return tm_statistic_batch(rows)
    kernel, column = _KERNELS[kind]
    return rows.reduced(kernel)[:, column].copy()


def classical_battery(u) -> list[TestOutcome]:
    """All ten statistics (tail-moment first) for one sample.

    The sample is checked and sorted once; an error in any statistic
    propagates.
    """
    rows = UnitRows(u)
    if rows.values.shape[0] != 1:
        raise ValueError("classical_battery expects a single sample")
    return [TestOutcome(test_id=t, statistic=float(batch_statistic(t, rows)[0])) for t in TEST_IDS]
