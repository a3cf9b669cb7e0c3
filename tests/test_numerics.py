"""Tests for the numerical substrate.

The quadrature rules and special functions are checked against closed
forms, and the kernel discretisation against the Brownian bridge kernel,
whose spectrum is known exactly.
"""

import numpy as np
import pytest
from scipy import stats

from unigof import (
    QuadratureRule,
    gauss_legendre,
    normal_cdf,
    normal_quantile,
    nystrom_discretize,
)


class TestGaussLegendre:
    def test_weights_sum_to_one(self):
        for order in (2, 5, 16, 64, 256):
            rule = gauss_legendre(order)
            assert abs(rule.weights.sum() - 1.0) < 1e-13

    def test_nodes_strictly_inside_unit_interval(self):
        rule = gauss_legendre(64)
        assert rule.nodes[0] > 0.0
        assert rule.nodes[-1] < 1.0
        assert np.all(np.diff(rule.nodes) > 0.0)

    @pytest.mark.parametrize("order", [*range(2, 13), 16, 63, 64])
    def test_polynomial_exactness_up_to_degree_2k_minus_1(self, order):
        # an order-k rule integrates t^d exactly for d <= 2k - 1; odd orders have a middle node
        rule = gauss_legendre(order)
        for d in range(2 * order):
            got = rule.weights @ rule.nodes**d
            assert abs(got - 1.0 / (d + 1)) < 1e-14, f"degree {d}"

    @pytest.mark.parametrize("order", [512, 1024])
    def test_legendre_moments_vanish(self, order):
        # sum_i w_i P_k(2 x_i - 1) = 0 for 1 <= k < 2 order; legvander shares no code with the rule
        rule = gauss_legendre(order)
        P = np.polynomial.legendre.legvander(2.0 * rule.nodes - 1.0, 2 * order - 1)
        assert np.max(np.abs(rule.weights @ P[:, 1:])) < 2e-15

    @pytest.mark.parametrize("order", [*range(2, 13), 511, 512])
    def test_nodes_symmetric_about_one_half(self, order):
        nodes = gauss_legendre(order).nodes
        assert np.all(nodes + nodes[::-1] == 1.0)

    def test_end_nodes_and_weights_match_40_digit_values(self):
        # mpmath roots of P_128 at 40 digits, rounded; near the ends x cannot hold the root, 1 - x can
        rule = gauss_legendre(128)
        nodes = [8.755602643404277e-05, 0.0004612700113120525, 0.00113337568724299]
        weights = [0.00022469048014604518, 0.0005229063396701744, 0.0008212515093345147]
        np.testing.assert_allclose(rule.nodes[:3], nodes, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(rule.weights[:3], weights, rtol=1e-13, atol=0.0)

    def test_nodes_match_the_eigenvalue_route(self):
        # numpy's leggauss solves the Jacobi-matrix eigenproblem; its nodes are accurate to ~5e-17 at order 512
        x, _ = np.polynomial.legendre.leggauss(512)
        np.testing.assert_allclose(gauss_legendre(512).nodes, 0.5 * (x + 1.0), rtol=0.0, atol=2e-16)

    def test_smooth_non_polynomial(self):
        rule = gauss_legendre(32)
        assert abs(rule.weights @ np.sin(rule.nodes) - (1.0 - np.cos(1.0))) < 1e-15

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            gauss_legendre(1)

    @pytest.mark.parametrize("order", [2.5, np.nan])
    def test_order_that_is_not_an_integer_rejected(self, order):
        with pytest.raises(ValueError, match="^order: expected an integer"):
            gauss_legendre(order)


class TestQuadratureRuleValidation:
    def test_rejects_decreasing_nodes(self):
        with pytest.raises(ValueError):
            QuadratureRule(
                nodes=np.array([0.7, 0.3]), weights=np.array([0.5, 0.5])
            )

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            QuadratureRule(
                nodes=np.array([0.3, 0.7]), weights=np.array([1.5, -0.5])
            )

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ValueError):
            QuadratureRule(
                nodes=np.array([0.3, 0.7]), weights=np.array([0.5, 0.6])
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.2, 0.5, 0.7]), weights=np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: QuadratureRule(nodes=np.array([0.3, np.nan]), weights=np.array([0.5, 0.5])),
        lambda: QuadratureRule(nodes=np.array([np.nan]), weights=np.array([1.0])),
        lambda: QuadratureRule(nodes=np.array([0.3, 0.7]), weights=np.array([0.5, np.nan])),
        lambda: normal_quantile(np.nan),
        lambda: normal_quantile(np.array([0.1, np.nan])),
    ],
    ids=["nan-node", "lone-nan-node", "nan-weight", "nan-p", "nan-in-array"],
)
def test_range_checks_refuse_nan(call):
    with pytest.raises(ValueError):
        call()


class TestNormalFunctions:
    def test_cdf_anchors(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
        assert normal_cdf(-np.inf) == 0.0
        assert normal_cdf(np.inf) == 1.0

    def test_quantile_round_trip(self):
        x = np.linspace(-6.0, 6.0, 41)
        back = normal_quantile(normal_cdf(x))
        np.testing.assert_allclose(back, x, atol=1e-9)

    def test_quantile_rejects_boundary(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(p)

    def test_vectorised(self):
        p = np.array([0.1, 0.5, 0.9])
        out = normal_quantile(p)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.0, abs=1e-15)


class TestNystromDiscretize:
    """Checked against the Brownian bridge kernel min(s,t) - st.

    Its integral operator has eigenvalues 1 / (pi k)^2 and diagonal
    integral 1/6, which pins down both the weighting convention and the
    spectral accuracy of the discretisation.
    """

    @staticmethod
    def bridge(s, t):
        return np.minimum(s, t) - s * t

    def test_matrix_symmetric_and_weighted(self):
        A = nystrom_discretize(self.bridge, gauss_legendre(64))
        np.testing.assert_allclose(A, A.T, atol=1e-15)

    def test_trace_matches_diagonal_integral(self):
        A = nystrom_discretize(self.bridge, gauss_legendre(64))
        assert np.trace(A) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_eigenvalues_match_bridge_spectrum(self):
        # the kernel has a kink on the diagonal, so the discretisation
        # converges at second order rather than spectrally; at order 256
        # the leading eigenvalues are good to a few parts in 1e4
        A = nystrom_discretize(self.bridge, gauss_legendre(256))
        eigs = np.sort(np.linalg.eigvalsh(A))[::-1]
        expected = 1.0 / (np.pi * np.arange(1, 9)) ** 2
        np.testing.assert_allclose(eigs[:8], expected, rtol=3e-3)
        np.testing.assert_allclose(eigs[0], expected[0], rtol=1e-4)

    def test_iterated_trace(self):
        # trace(A^2) approximates the double integral of K^2, which for the
        # bridge kernel is sum 1/(pi k)^4 = 1/90; the diagonal kink again
        # limits the rate, measured error at order 256 is ~8e-7
        A = nystrom_discretize(self.bridge, gauss_legendre(256))
        assert np.trace(A @ A) == pytest.approx(1.0 / 90.0, abs=3e-6)

    def test_iterated_trace_converges(self):
        errs = []
        for order in (64, 256):
            A = nystrom_discretize(self.bridge, gauss_legendre(order))
            errs.append(abs(np.trace(A @ A) - 1.0 / 90.0))
        assert errs[1] < errs[0] / 8.0


def test_normal_cdf_writes_to_out(rng):
    x = rng.normal(size=50)
    out = np.empty_like(x)
    assert normal_cdf(x, out=out) is out
    assert np.array_equal(out, normal_cdf(x))
    assert normal_cdf(x, out=x) is x  # in place
    assert np.array_equal(x, out)


def test_normal_cdf_matches_scipy_distribution(rng):
    x = rng.normal(size=200) * 3.0
    np.testing.assert_allclose(normal_cdf(x), stats.norm.cdf(x), atol=1e-15)
