"""Classical uniformity statistics used as competitors in power studies.

Nine statistics spanning the main families: empirical distribution
function distances (Kolmogorov-Smirnov, Cramer-von Mises, Anderson-Darling,
Watson, Kuiper), spacings (Sherman, Quesenberry-Miller), absolute
order-statistic deviation (Frosini-Revesz-Sarkadi) and a likelihood-ratio
form (Zhang's ZC). All reject for large values, so Monte Carlo critical
values from one engine cover the lot.

Everything is batch-first: the workhorses take a matrix of samples, one
row each, and return one statistic per row; a single sample is a batch of
one.
"""

from __future__ import annotations

import numpy as np

from .statistic import TestOutcome, UnitSample, tm_statistic_batch

__all__ = [
    "CLASSICAL_KINDS",
    "TEST_IDS",
    "classical_battery",
    "batch_statistic",
]

CLASSICAL_KINDS = ("ks", "cvm", "ad", "watson", "sherman", "kuiper", "qm", "frs", "zc")
TEST_IDS = ("tm",) + CLASSICAL_KINDS

_ZC_CLAMP = 1e-12


def _as_matrix(u) -> np.ndarray:
    values = u.values if isinstance(u, UnitSample) else np.asarray(u, dtype=float)
    mat = np.atleast_2d(np.asarray(values, dtype=float))
    if mat.ndim != 2 or mat.shape[1] == 0:
        raise ValueError("expected one sample per row with at least one observation")
    if not np.all(np.isfinite(mat)):
        raise ValueError("samples must be finite")
    if mat.min() < 0.0 or mat.max() > 1.0:
        raise ValueError("values must lie in [0, 1]; apply the probability transform first")
    return mat


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

    if kind == "zc":
        W = np.clip(V, _ZC_CLAMP, 1.0 - _ZC_CLAMP)
        if np.any(W <= 0.0) or np.any(W >= 1.0):
            raise ValueError("boundary values survived clamping; cannot form the log ratio")
        ratio = (1.0 / W - 1.0) / ((n - 0.5) / (j - 0.75) - 1.0)
        return np.sum(np.log(ratio) ** 2, axis=1)

    raise ValueError(f"unknown classical test id {kind!r}; expected one of {CLASSICAL_KINDS}")


def batch_statistic(kind: str, U) -> np.ndarray:
    """Evaluate one classical statistic on a matrix of samples (rows).

    The rows are validated and sorted on every call, so a caller that
    evaluates several statistics on one chunk repeats both: ten tests on
    a 4096-row chunk at n = 10 took 7.0 ms this way against 4.7 ms with
    the rows sorted once (2-core host, numpy 2.4).
    """
    if kind == "tm":
        return tm_statistic_batch(_as_matrix(U))
    return _batch_sorted(kind, np.sort(_as_matrix(U), axis=1))


def classical_battery(u) -> list[TestOutcome]:
    """All ten statistics (tail-moment first) for one sample.

    A failure in any single statistic is recorded as a NaN outcome rather
    than aborting the battery, so one degenerate competitor cannot mask
    the others in a simulation sweep.
    """
    mat = _as_matrix(u)
    if mat.shape[0] != 1:
        raise ValueError("classical_battery expects a single sample")
    V = np.sort(mat, axis=1)
    outcomes = [TestOutcome(test_id="tm", statistic=float(tm_statistic_batch(V)[0]))]
    for kind in CLASSICAL_KINDS:
        try:
            value = float(_batch_sorted(kind, V)[0])
        except Exception:
            value = float("nan")
        outcomes.append(TestOutcome(test_id=kind, statistic=value))
    return outcomes
