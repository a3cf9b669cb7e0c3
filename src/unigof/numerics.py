"""Numerical substrate: quadrature rules, special functions, Nystrom matrices.

Everything here is deliberately boring. The statistical modules lean on
these helpers for integrals over the unit interval and for discretising
integral kernels, so the accuracy targets are tighter than any single
caller strictly needs.

``special`` stands for ``scipy.special`` and imports it at its first use, so
a run that never calls it (a uniform- or Pareto-null study) skips its import.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np


class _Special:
    """``scipy.special``, imported at the first read; the import lock gives threads that ask at once one import."""

    def __getattr__(self, name: str):
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)  # later reads of the name are plain attribute reads
        return value


special = _Special()


@dataclass(frozen=True)
class QuadratureRule:
    """A fixed quadrature rule on the open unit interval.

    Attributes
    ----------
    nodes : np.ndarray
        Strictly increasing abscissae in (0, 1).
    weights : np.ndarray
        Positive weights summing to one.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.ndim != 1 or self.weights.shape != self.nodes.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.nodes)) and np.all(np.diff(self.nodes) > 0)):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(self.weights > 0):
            raise ValueError("weights must be positive")
        if not abs(float(self.weights.sum()) - 1.0) <= 1e-12:
            raise ValueError("weights must sum to one on (0, 1)")


def _integer(field: str, value) -> int:
    try:
        if not isinstance(value, bool):  # an int to Python, but True is no count, size or seed
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{field}: expected an integer, got {value!r}")


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule mapped from (-1, 1) to (0, 1).

    Exact for polynomials of degree up to ``2 * order - 1``.
    """
    order = _integer("order", order)
    if order < 2:
        raise ValueError("order must be at least 2")
    x, w = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(nodes=0.5 * (x + 1.0), weights=0.5 * w)


def normal_cdf(x, out=None):
    """Standard normal distribution function, accurate to ~1e-16; ``out`` as for a ufunc."""
    return special.ndtr(x, out=out)


def normal_quantile(p):
    """Inverse of :func:`normal_cdf` on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("normal_quantile requires p strictly inside (0, 1)")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def nystrom_discretize(
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rule: QuadratureRule,
) -> np.ndarray:
    """Discretise an integral kernel on a quadrature grid.

    Returns the symmetrically weighted matrix ``A_ij = sqrt(w_i w_j)
    K(x_i, x_j)`` on the rule's nodes. For a symmetric kernel,
    ``trace(A^k)`` approximates the diagonal integral of the k-fold
    iterated kernel, and the eigenvalues of ``A`` approximate those of the
    kernel's integral operator.

    The ``kernel`` callable must accept broadcast arrays.
    """
    x = rule.nodes
    sw = np.sqrt(rule.weights)
    K = kernel(x[:, None], x[None, :])
    return sw[:, None] * K * sw[None, :]
