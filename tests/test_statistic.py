"""Core statistic tests: anchors, the dual quadrature route, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigof import (
    Sample,
    UnitSample,
    empirical_process,
    gauss_legendre,
    tm_statistic,
    tm_statistic_batch,
    tm_statistic_integral,
)
from unigof.statistic import UnitRows

unit_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=60
)


# ---------------------------------------------------------------------------
# value objects


class TestSampleObjects:
    def test_sample_accepts_list(self):
        s = Sample([1.0, -2.0, 3.5])
        assert s.values.size == 3

    def test_sample_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Sample([1.0, np.nan])
        with pytest.raises(ValueError):
            Sample([np.inf])

    def test_sample_rejects_empty(self):
        with pytest.raises(ValueError):
            Sample([])

    def test_sample_rejects_matrix(self):
        with pytest.raises(ValueError):
            Sample(np.zeros((2, 2)))

    def test_unit_sample_range_check(self):
        UnitSample([0.0, 0.5, 1.0])  # closed endpoints are fine
        with pytest.raises(ValueError):
            UnitSample([-0.01])
        with pytest.raises(ValueError):
            UnitSample([1.01])


# ---------------------------------------------------------------------------
# closed form: hand-computed anchors

# For a single observation u the statistic is
#   (2u - 1)^2 u - (2u - 1) u^2 (3 - 2u) / 3 ... + 1/30,
# most easily checked at a few points worked out by hand.


@pytest.mark.parametrize(
    "values, expected",
    [
        ([0.5], 1.0 / 30.0),  # weight 2u-1 vanishes, only the drift term remains
        ([0.0], 1.0 / 30.0),
        ([1.0], 0.7),
        ([0.25, 0.75], 7.0 / 480.0),
    ],
)
def test_closed_form_anchors(values, expected):
    assert tm_statistic(values) == pytest.approx(expected, abs=1e-15)


def test_accepts_unit_sample_wrapper():
    assert tm_statistic(UnitSample([0.25, 0.75])) == pytest.approx(7.0 / 480.0)


def test_batch_matches_single_rows(rng):
    U = rng.random((40, 17))
    batch = tm_statistic_batch(U)
    singles = np.array([tm_statistic(row) for row in U])
    np.testing.assert_allclose(batch, singles, rtol=1e-13)


def _tm_two_prefix_sums(V):
    """The batch kernel as it was before row blocks: two prefix sums over the whole matrix."""
    n = V.shape[1]
    A = 2.0 * V - 1.0
    P = np.cumsum(A * V, axis=1)
    Q = np.sum(A, axis=1, keepdims=True) - np.cumsum(A, axis=1)
    pair = np.sum(A * (P + V * Q), axis=1) / n
    single = np.sum(A * V * V * (3.0 - 2.0 * V), axis=1) / 3.0
    return np.maximum(pair - single + n / 30.0, 0.0)


def test_row_blocks_match_the_two_prefix_sum_kernel(block_rows):
    rows, picks = block_rows
    V = rows.values
    n = V.shape[1]
    got = tm_statistic_batch(rows)
    # both forms cancel terms of size n / 30 down to a value of order one,
    # so their rounding grows with n: 1.8e-14 at n = 200, 2e-11 near n = 33000
    np.testing.assert_allclose(got, _tm_two_prefix_sums(V), rtol=0.0, atol=1e-12 * max(1.0, n / 1000))
    for i in picks:
        assert tm_statistic(V[i]) == got[i], f"row {i}"


def test_batch_requires_matrix():
    with pytest.raises(ValueError):
        tm_statistic_batch(np.array([0.1, 0.2, 0.3]).reshape(1, 1, 3))


def test_single_sample_rejects_matrix():
    with pytest.raises(ValueError, match="one-dimensional"):
        tm_statistic(np.full((2, 3), 0.5))


class TestUnitRows:
    @pytest.mark.parametrize(
        "values, match",
        [
            ([[0.1, np.nan]], "finite"),
            ([[0.1, np.inf]], "finite"),
            ([[0.1, -np.inf]], "finite"),
            ([[0.1, -0.2]], "probability transform"),
            ([[0.1, 1.7]], "probability transform"),
            (np.full((1, 2, 3), 0.5), "one sample per row"),
            (np.empty((3, 0)), "one sample per row"),
        ],
    )
    def test_rejects(self, values, match):
        with pytest.raises(ValueError, match=match):
            UnitRows(values)

    def test_rows_are_sorted_copies(self):
        U = np.array([[0.9, 0.1, 0.5], [1.0, 0.0, 0.0]])
        rows = UnitRows(U)
        np.testing.assert_array_equal(rows.values, [[0.1, 0.5, 0.9], [0.0, 0.0, 1.0]])
        assert U[0, 0] == 0.9

    @pytest.mark.parametrize("single", [UnitSample([0.7, 0.2]), np.array([0.7, 0.2])])
    def test_one_sample_is_one_row(self, single):
        np.testing.assert_array_equal(UnitRows(single).values, [[0.2, 0.7]])


def test_rejects_values_outside_unit_interval():
    with pytest.raises(ValueError):
        tm_statistic([0.2, 1.2])
    with pytest.raises(ValueError):
        tm_statistic_integral([-0.2])


# ---------------------------------------------------------------------------
# dual route: the closed form against direct quadrature of the integral


def test_integral_route_matches_closed_form(rng):
    for _ in range(300):
        n = int(rng.integers(1, 81))
        u = rng.random(n)
        a = tm_statistic(u)
        b = tm_statistic_integral(u)
        assert abs(a - b) < 1e-12, f"n={n}"


def test_integral_route_handles_ties_and_endpoints():
    u = [0.0, 0.0, 0.5, 0.5, 1.0]
    assert abs(tm_statistic(u) - tm_statistic_integral(u)) < 1e-12


@given(unit_lists)
@settings(max_examples=150)
def test_dual_route_property(values):
    assert abs(tm_statistic(values) - tm_statistic_integral(values)) < 1e-10


# ---------------------------------------------------------------------------
# invariances


@given(unit_lists)
@settings(max_examples=150)
def test_nonnegative_and_finite(values):
    t = tm_statistic(values)
    assert t >= 0.0
    assert np.isfinite(t)


@given(unit_lists, st.randoms())
@settings(max_examples=100)
def test_permutation_invariance(values, shuffler):
    permuted = list(values)
    shuffler.shuffle(permuted)
    assert tm_statistic(permuted) == pytest.approx(tm_statistic(values), abs=1e-12)


def test_statistic_scales_like_n_under_replication():
    # duplicating every observation doubles n and exactly doubles the
    # statistic, since the empirical tail moment is unchanged
    u = [0.1, 0.4, 0.6, 0.9]
    assert tm_statistic(u * 2) == pytest.approx(2.0 * tm_statistic(u), rel=1e-12)


# ---------------------------------------------------------------------------
# the discrepancy process


def test_process_anchor_single_point_below():
    # u = 0.5 contributes weight zero, leaving the negated drift
    got = empirical_process(UnitSample([0.5]), 0.25)
    assert got == pytest.approx(-0.1875, abs=1e-15)


def test_process_anchor_full_weight():
    got = empirical_process(UnitSample([1.0]), 0.5)
    assert got == pytest.approx(0.75, abs=1e-15)


def test_process_vectorised_and_bounded(rng):
    u = UnitSample(rng.random(25))
    t = np.linspace(0.01, 0.99, 197)
    z = empirical_process(u, t)
    assert z.shape == t.shape
    assert np.all(np.abs(z) <= np.sqrt(25) * 1.25)


def test_process_rejects_boundary_points(rng):
    u = UnitSample(rng.random(5))
    for t in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            empirical_process(u, t)


def test_squared_process_integrates_to_statistic(rng):
    # independent oracle: integrate the squared process segment by segment;
    # between order statistics it is a quartic polynomial in t, so a
    # Gauss-Legendre rule per segment is exact
    u = rng.random(23)
    n = u.size
    breaks = np.unique(np.concatenate([[0.0], u, [1.0]]))
    rule = gauss_legendre(8)
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        t = lo + (hi - lo) * rule.nodes
        tail = np.array([np.sum((2.0 * u[u >= ti] - 1.0)) / n for ti in t])
        z = np.sqrt(n) * (tail - t * (1.0 - t))
        total += (hi - lo) * np.sum(rule.weights * z**2)
    assert tm_statistic(u) == pytest.approx(total, abs=1e-12)
