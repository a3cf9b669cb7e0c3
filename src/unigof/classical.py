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
"""

from __future__ import annotations

import numpy as np

from .statistic import TestOutcome, UnitRows, tm_statistic_batch

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


def _spacings(V: np.ndarray) -> np.ndarray:
    # n + 1 gaps per row after augmenting with the interval endpoints
    R = V.shape[0]
    zeros = np.zeros((R, 1))
    ones = np.ones((R, 1))
    return np.diff(np.hstack([zeros, V, ones]), axis=1)


def _batch_sorted(kind: str, V: np.ndarray) -> np.ndarray:
    R, n = V.shape
    j = np.arange(1, n + 1, dtype=float)

    if kind == "ks":
        d_plus = np.max(j / n - V, axis=1)
        d_minus = np.max(V - (j - 1.0) / n, axis=1)
        return np.maximum(d_plus, d_minus)

    if kind == "kuiper":
        return np.max(j / n - V, axis=1) + np.max(V - (j - 1.0) / n, axis=1)

    if kind == "cvm":
        return 1.0 / (12.0 * n) + np.sum((V - (2.0 * j - 1.0) / (2.0 * n)) ** 2, axis=1)

    if kind == "watson":
        w2 = 1.0 / (12.0 * n) + np.sum((V - (2.0 * j - 1.0) / (2.0 * n)) ** 2, axis=1)
        return w2 - n * (np.mean(V, axis=1) - 0.5) ** 2

    if kind == "ad":
        with np.errstate(divide="ignore"):
            logs = np.log(V) + np.log1p(-V[:, ::-1])
        return -n - np.sum((2.0 * j - 1.0) * logs, axis=1) / n

    if kind == "sherman":
        return 0.5 * np.sum(np.abs(_spacings(V) - 1.0 / (n + 1.0)), axis=1)

    if kind == "qm":
        gaps = _spacings(V)
        # squared-gap sum runs over all n + 1 gaps, the cross term over the
        # first n adjacent pairs only
        return np.sum(gaps * gaps, axis=1) + np.sum(gaps[:, :-1] * gaps[:, 1:], axis=1)

    if kind == "frs":
        return np.sum(np.abs(V - (j - 0.5) / n), axis=1) / np.sqrt(n)

    # zc, the last id batch_statistic lets through
    W = np.clip(V, _ZC_CLAMP, 1.0 - _ZC_CLAMP)
    ratio = (1.0 / W - 1.0) / ((n - 0.5) / (j - 0.75) - 1.0)
    return np.sum(np.log(ratio) ** 2, axis=1)


def batch_statistic(kind: str, U) -> np.ndarray:
    """Evaluate one statistic, tail-moment or classical, on each row of a batch.

    A :class:`~unigof.statistic.UnitRows` is used as it is; any other input
    (a matrix, a ``UnitSample`` or a 1-D array) is checked and sorted into
    one first. A caller that evaluates several statistics on one batch
    builds the ``UnitRows`` once and passes it to every call.
    """
    check_test_id(kind)
    rows = U if isinstance(U, UnitRows) else UnitRows(U)
    if kind == "tm":
        return tm_statistic_batch(rows)
    return _batch_sorted(kind, rows.values)


def classical_battery(u) -> list[TestOutcome]:
    """All ten statistics (tail-moment first) for one sample.

    The sample is checked and sorted once; an error in any statistic
    propagates.
    """
    rows = UnitRows(u)
    if rows.values.shape[0] != 1:
        raise ValueError("classical_battery expects a single sample")
    return [TestOutcome(test_id=t, statistic=float(batch_statistic(t, rows)[0])) for t in TEST_IDS]
